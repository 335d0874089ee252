"""A fixed reference computation that measures how fast the machine runs now.

The benchmark times it before and after every pass-A trial and scales the
trial's time by REFERENCE_S over the mean of those two timings. On a machine
shared with other jobs, identical trials ran 10-30 percent slower for minutes
at a time; the reference slows with them, so the scaled times stay comparable
between runs.
It mixes what the program spends its time on: small dense complex algebra
through numpy and LAPACK, and Python-level loops.
"""

import time

import numpy as np

# Median time of calibrate() on the machine the bounds were set on, in its
# quieter hours (2 shared cores, numpy 2.4.6 with OpenBLAS 0.3.31 on one
# thread). It fixes the unit of the scaled times and nothing else. At half as
# many ROUNDS the scaled trial times kept 63 percent of the unscaled per-trial
# noise across runs, against 54 percent at this count.
REFERENCE_S = 0.105
ROUNDS = 10800

_rng = np.random.default_rng(20250331)
_A = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_H = _A @ _A.conj().T
_B = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))


def calibrate():
    """Seconds taken by a fixed mix of small linear algebra and Python loops."""
    start = time.perf_counter()
    v = np.ones(64, dtype=complex)
    acc = 0.0
    for k in range(ROUNDS):
        v = _H @ v
        v /= np.linalg.norm(v)
        acc += float((v.conj() @ v).real)
        if k % 10 == 0:
            np.linalg.solve(_B, _B)
        for j in range(8):
            acc += j * 0.5
    np.linalg.eigh(_H)
    if not np.isfinite(acc):
        raise FloatingPointError("reference computation diverged")
    return time.perf_counter() - start
