"""Shared numerical kernels: Lambert W, bisection, Hermitian eigendecomposition."""

import numpy as np

from .errors import BracketError

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


def bisect(f, lo, hi, tol=1e-12):
    """Bisection root search on [lo, hi].

    Requires f(lo) and f(hi) of opposite (or zero) sign. Returns a point x
    with |f(x)| <= tol or bracketing interval narrower than tol, or the
    midpoint after 200 halvings.
    """
    if not lo < hi:
        raise ValueError("bisect requires lo < hi")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol or (hi - lo) <= tol:
            return mid
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def hermitian_eig(a):
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized defensively. Returns (values, vectors) with real
    eigenvalues sorted in descending order and orthonormal columns such that
    vectors @ diag(values) @ vectors^H reconstructs the input.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"hermitian_eig expects a square matrix, got {a.shape}")
    a = 0.5 * (a + a.conj().T)
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]
