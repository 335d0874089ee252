"""Small summary statistics used by the benchmark report."""

import math
import statistics

import numpy as np

TAIL_BEYOND = 10
_GRID = np.linspace(0.0, 1.0, 20001)


def harrell_davis(samples, q):
    """Harrell-Davis estimate of the q-quantile of samples.

    A weighted mean of every order statistic, with weights from the Beta((n+1)q,
    (n+1)(1-q)) distribution. Unlike a single order statistic it does not jump
    when two samples of unequal size near the quantile swap places, which on a
    few dozen trials of very different cost is most of a plain median's noise.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("quantile of an empty sample")
    if n == 1:
        return float(x[0])
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    inner = _GRID[1:-1]
    log_pdf = ((a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
               + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    pdf = np.concatenate(([0.0], np.exp(log_pdf), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(_GRID))))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, _GRID, cdf))
    return float(weights @ x)


def tail(samples, beyond=TAIL_BEYOND):
    """Highest percentile of samples that has at least `beyond` samples above it.

    Returns (value, percentile, count). The percentile is the share of samples
    at or below the order statistic with exactly `beyond` samples ranked above
    it; the value is the Harrell-Davis estimate at that percentile. Below
    2 * beyond + 2 samples that order statistic lies under the median, so the
    median is returned at percentile 50.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n < 2 * beyond + 2:
        return harrell_davis(samples, 0.5), 50.0, n
    share = (n - beyond) / n
    return harrell_davis(samples, share), 100.0 * share, n


def relative_iqr(values):
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
