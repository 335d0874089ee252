"""Shared numerical kernel: the principal branch of the Lambert W function."""

import numpy as np

_INV_E = 1.0 / np.e
HALLEY_STEPS = 5  # four already reach rounding from every guess up to 1e12


def lambert_w0(x):
    """Principal branch of the Lambert W function, elementwise for x >= -1/e.

    Piecewise initial guess (cubic, branch-point series, log asymptotics),
    then HALLEY_STEPS Halley steps on every element. The fixed step count
    gives each element the bits of a call on it alone. A float for a scalar.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < -_INV_E - 1e-15):
        raise ValueError("lambert_w0 undefined below -1/e")
    x = np.maximum(x, -_INV_E)
    w = x * (1.0 - x + 1.5 * x * x)
    near = x < -0.25
    if near.any():
        w = np.where(near, -1.0 + np.sqrt(2.0 * np.maximum(np.e * x + 1.0, 0.0)), w)
    big = x >= 1.0
    if big.any():
        lx = np.log(np.where(big, x, 1.0))
        w = np.where(big, np.where(lx > 1.0, lx - np.log(np.maximum(lx, 1.1)), lx), w)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(HALLEY_STEPS):
            ew = np.exp(w)
            f = w * ew - x
            w = w - f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
    # Halley divides by w + 1, which vanishes at the branch point
    w = np.where(x == -_INV_E, -1.0, w)
    return float(w) if w.ndim == 0 else w
