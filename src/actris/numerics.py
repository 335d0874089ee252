"""Shared numerical kernels: Lambert W, bisection, factorizations, FD oracle."""

import numpy as np

from .errors import BracketError

_INV_E = 1.0 / np.e


def lambert_w0(x):
    """Principal branch of the Lambert W function.

    Halley iteration seeded from a log-based guess; accurate to ~1e-15 for
    arguments away from the branch point at -1/e.
    """
    x = float(x)
    if x < -_INV_E:
        if x > -_INV_E - 1e-15:
            return -1.0
        raise ValueError(f"lambert_w0 undefined for x={x} < -1/e")
    if x == 0.0:
        return 0.0
    if abs(x + _INV_E) < 1e-14:
        return -1.0
    # initial guess: series near the branch point, log asymptotics elsewhere
    if x < -0.25:
        p = np.sqrt(2.0 * (np.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0
    elif x < 1.0:
        w = x * (1.0 - x + 1.5 * x * x) if abs(x) < 0.3 else 0.5
    else:
        lx = np.log(x)
        w = lx - np.log(lx) if lx > 1.0 else lx
    for _ in range(50):
        ew = np.exp(w)
        f = w * ew - x
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0) if w != -1.0 else ew
        w_new = w - f / denom
        if abs(w_new - w) <= 1e-16 * (1.0 + abs(w_new)):
            w = w_new
            break
        w = w_new
    return float(w)


def lambert_w0_vec(x):
    """Vectorized principal-branch Lambert W for arrays with x >= -1/e.

    Halley stops per slice along the last axis, so a stack of inputs gives
    every row the same bits as a call on that row alone.
    """
    x = np.asarray(x, dtype=float)
    shape = x.shape
    if np.any(x < -_INV_E - 1e-15):
        raise ValueError("lambert_w0_vec undefined below -1/e")
    if x.size == 0:
        return np.empty(shape)
    x = np.maximum(x, -_INV_E).reshape(-1, shape[-1] if shape else 1)
    # piecewise initial guess, then vectorized Halley
    w = np.where(x < -0.25, -1.0 + np.sqrt(2.0 * np.maximum(np.e * x + 1.0, 0.0)), 0.0)
    mid = (x >= -0.25) & (x < 1.0)
    w = np.where(mid, x * (1.0 - x + 1.5 * x * x), w)
    big = x >= 1.0
    if np.any(big):
        lx = np.log(np.where(big, x, 1.0))
        w = np.where(big, np.where(lx > 1.0, lx - np.log(np.maximum(lx, 1.1)), lx), w)
    out = np.empty_like(w)
    rows = np.arange(w.shape[0])
    for _ in range(40):
        ew = np.exp(w)
        f = w * ew - x
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        step = f / np.where(denom != 0.0, denom, 1.0)
        w = w - step
        done = np.maximum.reduce(np.abs(step), axis=-1) <= 1e-16 * (
            1.0 + np.maximum.reduce(np.abs(w), axis=-1)
        )
        n_done = np.count_nonzero(done)
        if n_done == done.size:
            break
        if n_done:
            out[rows[done]] = w[done]
            rows, w, x = rows[~done], w[~done], x[~done]
    out[rows] = w
    return out.reshape(shape)


def bisect(f, lo, hi, tol=1e-12, max_iter=200):
    """Bisection root search on [lo, hi].

    Requires f(lo) and f(hi) of opposite (or zero) sign. Returns a point x
    with |f(x)| <= tol or bracketing interval narrower than tol.
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
    for _ in range(max_iter):
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


def svd(a):
    """Singular value decomposition, numpy convention: a = u @ diag(s) @ vh."""
    return np.linalg.svd(np.asarray(a), full_matrices=False)


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a real scalar field over a complex vector.

    Component k is df/dRe(x_k) + 1j * df/dIm(x_k), i.e. twice the conjugate
    Wirtinger derivative, matching the convention of the analytic gradients.
    """
    x = np.asarray(x, dtype=complex)
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        d_re = (f(x + e) - f(x - e)) / (2.0 * h)
        e[k] = 1j * h
        d_im = (f(x + e) - f(x - e)) / (2.0 * h)
        g[k] = d_re + 1j * d_im
    return g
