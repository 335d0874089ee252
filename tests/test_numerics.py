import numpy as np
import pytest

from actris.numerics import lambert_w0


def svd(a):
    """The SVD call of do.svd_precoder_combiner: reduced factors, a = u @ diag(s) @ vh."""
    return np.linalg.svd(a, full_matrices=False)


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a real scalar field over a complex vector:
    the reference the analytic phase gradients are checked against.

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


def reference_lambert_w0(x):
    """Scalar Halley loop with a convergence test: the reference kernel."""
    x = float(x)
    if x < -1.0 / np.e:
        if x > -1.0 / np.e - 1e-15:
            return -1.0
        raise ValueError(f"lambert_w0 undefined for x={x} < -1/e")
    if x == 0.0:
        return 0.0
    if abs(x + 1.0 / np.e) < 1e-14:
        return -1.0
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


class TestLambertW:
    def test_zero(self):
        assert lambert_w0(0.0) == 0.0

    def test_at_e(self):
        assert lambert_w0(np.e) == pytest.approx(1.0, abs=1e-12)

    def test_branch_point(self):
        assert lambert_w0(-1.0 / np.e) == -1.0
        assert lambert_w0(-1.0 / np.e + 1e-12) == pytest.approx(
            reference_lambert_w0(-1.0 / np.e + 1e-12), abs=1e-11
        )

    def test_defining_identity(self):
        for x in [1e-8, 0.1, 0.5, 2.0, 10.0, 1e3, 1e8, -0.05, -0.25, -0.36]:
            w = lambert_w0(x)
            assert w * np.exp(w) == pytest.approx(x, abs=1e-12 * max(1.0, abs(x)))
        # the fixed Halley count converges from every initial guess
        x = np.concatenate([np.linspace(-0.3678, 0.0, 1000), np.logspace(-8, 12, 2001)])
        w = lambert_w0(x)
        assert np.max(np.abs(w * np.exp(w) - x) / np.maximum(np.abs(x), 1e-300)) <= 4e-15

    def test_roundtrip_grid(self):
        # w in [-1, 5]: w0(w e^w) must recover w
        for w in np.linspace(-1.0, 5.0, 100):
            x = w * np.exp(w)
            assert lambert_w0(x) == pytest.approx(w, abs=1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(-1.0 / np.e - 1e-6)
        with pytest.raises(ValueError):
            lambert_w0(np.array([0.5, -1.0 / np.e - 1e-6]))

    def test_vector_matches_scalar(self):
        xs = np.array([0.0, 1e-8, 0.1, 0.5, 2.0, 10.0, 1e3, -0.05, -0.25, -0.36])
        assert np.allclose(lambert_w0(xs), [reference_lambert_w0(x) for x in xs], atol=1e-12)
        # the diode band maps to x in [0.46, 2.73]
        xs = np.linspace(0.46, 2.73, 5001)
        ref = np.array([reference_lambert_w0(x) for x in xs])
        assert np.max(np.abs(lambert_w0(xs) - ref) / ref) <= 1e-15

    def test_stack_rows_match_single_calls(self):
        # a fixed Halley count makes each element's bits its own
        rng = np.random.default_rng(4)
        x = rng.uniform(0.47, 2.72, (200, 16))
        w = lambert_w0(x)
        assert all(np.array_equal(w[k], lambert_w0(x[k])) for k in range(200))
        assert all(w[0, j] == lambert_w0(x[0, j]) for j in range(16))
        assert isinstance(lambert_w0(2.0), float)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4)])
    def test_empty_input_keeps_its_shape(self, shape):
        w = lambert_w0(np.zeros(shape))
        assert w.shape == shape and w.dtype == float


class TestFactorizations:
    def test_svd_identity(self):
        _, s, _ = svd(np.eye(4))
        assert np.allclose(s, 1.0)

    def test_svd_rank_one(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        _, s, _ = svd(np.outer(u, v.conj()))
        assert s[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(s[1:] < 1e-12)

    def test_svd_reconstruction(self):
        rng = np.random.default_rng(13)
        for shape in ((4, 6), (64, 32)):
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            u, s, vh = svd(a)
            rec = u @ np.diag(s) @ vh
            assert np.linalg.norm(rec - a) / np.linalg.norm(a) < 1e-10
            assert np.all(np.diff(s) <= 0.0)


class TestFdGradient:
    def test_norm_squared_at_zero(self):
        g = fd_gradient(lambda x: float(np.vdot(x, x).real), np.zeros(4, dtype=complex))
        assert np.allclose(g, 0.0, atol=1e-9)

    def test_linear_form_matches_coefficients(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        x0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        g = fd_gradient(lambda x: float(np.real(a.conj() @ x)), x0, h=1e-6)
        assert np.allclose(g, a, atol=1e-8)

    def test_quadratic_form(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = m + m.conj().T
        x0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        g = fd_gradient(lambda x: float(np.real(np.vdot(x, m @ x))), x0, h=1e-6)
        # d/dx* of x^H M x is (M x); doubled by the convention
        assert np.allclose(g, 2.0 * m @ x0, atol=1e-6)
