import dataclasses

import numpy as np
import pytest

from actris.channel import (
    MimoChannels,
    ScenarioConfig,
    effective_channel,
    hop_gains,
    lmmse_receiver,
    pathloss,
    rate_lmmse,
    noise_covariance,
    sample_channels,
)

TWO_PI = 2.0 * np.pi


def selector_matrix(n):
    """Dense diagonal-vectorization selector used by the small-N oracles."""
    d = np.zeros((n * n, n))
    for j in range(n):
        d[j * n + j, j] = 1.0
    return d


def _reference_solve_streams(f_stack, b, cols):
    try:
        return np.linalg.solve(f_stack, cols[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if f_stack.ndim > 3:
            return np.stack([_reference_solve_streams(*parts) for parts in zip(f_stack, b, cols)])
        ridge = 1e-12 * np.trace(b).real / b.shape[0]
        eye = ridge * np.eye(b.shape[0])
        return np.linalg.solve(f_stack + eye[None], cols[:, :, None])[:, :, 0]


def reference_stream_sinrs(ch, v, gamma, scenario):
    """Per-stream SINRs from one solve per stream against its interference-
    plus-noise matrix B - g_k g_k^H: the reference receiver."""
    g = effective_channel(ch, gamma) @ v
    b = noise_covariance(ch, gamma, scenario) + g @ g.conj().swapaxes(-1, -2)
    cols = g.swapaxes(-1, -2)
    f_stack = b[..., None, :, :] - cols[..., :, :, None] * cols.conj()[..., None, :]
    sol = _reference_solve_streams(f_stack, b, cols)
    return np.maximum(np.einsum("...ij,...ij->...i", cols.conj(), sol).real, 0.0)


def reference_spectral_efficiency(ch, v, w, gamma, scenario):
    """Spectral efficiency summed stream by stream: the reference loop."""
    g = effective_channel(ch, gamma) @ v
    h2g = ch.h_2 * np.asarray(gamma)[None, :]
    rate = 0.0
    for i in range(v.shape[1]):
        wi = w[:, i]
        wn2 = np.vdot(wi, wi).real
        if wn2 <= 0.0:
            continue
        sig = abs(np.vdot(wi, g[:, i])) ** 2
        interf = sum(abs(np.vdot(wi, g[:, j])) ** 2 for j in range(v.shape[1]) if j != i)
        noise = scenario.sigma2_w * (
            scenario.f_s * np.linalg.norm(wi.conj() @ h2g) ** 2 + scenario.f_r * wn2
        )
        rate += np.log2(1.0 + sig / (interf + noise))
    return float(rate)


def random_channels(rng, m_r, m_t, n, scale=1.0, direct=False):
    def cn(rows, cols):
        return scale * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))

    return MimoChannels(
        h_d=cn(m_r, m_t) if direct else np.zeros((m_r, m_t), dtype=complex),
        h_1=cn(n, m_t),
        h_2=cn(m_r, n),
    )


class TestPathloss:
    def test_reference_snr_anchor(self):
        # the reference parameter set deduces a -30 dB cascade SNR
        sc = ScenarioConfig()
        assert sc.rho_db == pytest.approx(-30.0, abs=0.1)

    def test_double_both_distances(self):
        # inverse square per hop: doubling both distances costs a factor 16
        sc = ScenarioConfig()
        far = dataclasses.replace(sc, d_ris_tx_m=80.0, d_rx_ris_m=8.0)
        assert pathloss(sc) / pathloss(far) == pytest.approx(16.0, rel=1e-12)

    def test_unit_normalization(self):
        # wavelength chosen so each Friis factor is one at unit distance
        sc = ScenarioConfig(d_ris_tx_m=1.0, d_rx_ris_m=1.0, wavelength_m=4.0 * np.pi)
        assert pathloss(sc) == pytest.approx(1.0, rel=1e-12)

    def test_rho_backsolve(self):
        sc = ScenarioConfig().with_rho_db(-17.5)
        assert sc.rho_db == pytest.approx(-17.5, abs=1e-9)

    def test_cascade_reference_compensation(self):
        sc = dataclasses.replace(ScenarioConfig(), cascade_ref_d_rx_ris_m=4.0)
        near = dataclasses.replace(sc, d_rx_ris_m=0.8)
        assert pathloss(near) == pytest.approx(pathloss(sc), rel=1e-12)
        pl1_near, pl2_near = hop_gains(near)
        pl1_ref, pl2_ref = hop_gains(sc)
        assert pl2_near > pl2_ref  # RX-side hop strengthens as the RIS gets closer
        assert pl1_near * pl2_near == pytest.approx(pl1_ref * pl2_ref, rel=1e-12)


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        sc = ScenarioConfig(m_t=4, m_r=4, d=4, n=8, n_act=8)
        a = sample_channels(sc, np.random.default_rng(42))
        b = sample_channels(sc, np.random.default_rng(42))
        assert np.array_equal(a.h_1, b.h_1)
        assert np.array_equal(a.h_2, b.h_2)

    def test_direct_path_blocked(self):
        sc = ScenarioConfig(m_t=4, m_r=4, d=4, n=8, n_act=8)
        ch = sample_channels(sc, np.random.default_rng(0))
        assert not np.any(ch.h_d)

    def test_hop_variances(self):
        sc = ScenarioConfig(m_t=5, m_r=5, d=4, n=40, n_act=40)
        rng = np.random.default_rng(1)
        pl1, pl2 = hop_gains(sc)
        # accumulate 1e5 entries per hop
        m1 = []
        m2 = []
        for _ in range(500):
            ch = sample_channels(sc, rng)
            m1.append(np.mean(np.abs(ch.h_1) ** 2))
            m2.append(np.mean(np.abs(ch.h_2) ** 2))
        assert np.mean(m1) == pytest.approx(pl1, rel=0.02)
        assert np.mean(m2) == pytest.approx(pl2, rel=0.02)


class TestEffectiveChannel:
    def test_zero_reflection_gives_direct(self):
        rng = np.random.default_rng(2)
        ch = random_channels(rng, 3, 4, 5, direct=True)
        assert np.array_equal(effective_channel(ch, np.zeros(5)), ch.h_d)

    def test_single_element_rank_one_update(self):
        rng = np.random.default_rng(3)
        ch = random_channels(rng, 3, 4, 1, direct=True)
        g = np.array([0.7 - 0.2j])
        expect = ch.h_d + g[0] * np.outer(ch.h_2[:, 0], ch.h_1[0, :])
        assert np.allclose(effective_channel(ch, g), expect, atol=1e-14)

    def test_matches_kronecker_construction(self):
        rng = np.random.default_rng(4)
        for n in (2, 4, 8):
            ch = random_channels(rng, 3, 4, n, direct=True)
            gamma = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            dmat = selector_matrix(n)
            hcal = np.kron(ch.h_1.T, ch.h_2) @ dmat
            vec = hcal @ gamma + ch.h_d.reshape(-1, order="F")
            direct = effective_channel(ch, gamma).reshape(-1, order="F")
            assert np.linalg.norm(vec - direct) / np.linalg.norm(vec) < 1e-10


class TestRateLmmse:
    def _setup(self, seed, d=3, f_s=1.5):
        sc = ScenarioConfig(m_t=4, m_r=4, d=d, n=6, n_act=6, p_t_w=1.0,
                            sigma2_w=1e-3, f_r=2.0, f_s=f_s)
        rng = np.random.default_rng(seed)
        ch = random_channels(rng, 4, 4, 6)
        gamma = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v = rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d))
        v *= np.sqrt(sc.p_t_w / np.trace(v.conj().T @ v).real)
        return sc, ch, gamma, v

    def test_equals_spectral_efficiency_at_lmmse_combiner(self):
        for seed in range(10):
            sc, ch, gamma, v = self._setup(seed)
            w, _ = lmmse_receiver(ch, v, gamma, sc)
            assert rate_lmmse(ch, v, gamma, sc) == pytest.approx(
                reference_spectral_efficiency(ch, v, w, gamma, sc), abs=1e-9
            )

    def test_no_signal_path_is_zero_rate(self):
        sc, ch, _, v = self._setup(5)
        assert rate_lmmse(ch, v, np.zeros(6), sc) == 0.0

    def test_beats_random_combiners(self):
        rng = np.random.default_rng(7)
        for seed in range(100):
            sc, ch, gamma, v = self._setup(100 + seed, d=2)
            w_rnd = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            assert rate_lmmse(ch, v, gamma, sc) >= reference_spectral_efficiency(
                ch, v, w_rnd, gamma, sc) - 1e-9

    def test_surface_scaling_invariance(self):
        # gamma scaled up with the RX-side channel scaled down leaves the
        # effective channel and, without surface noise, the rate unchanged
        sc, ch, gamma, v = self._setup(3, f_s=1e-300)
        scaled = MimoChannels(h_d=ch.h_d, h_1=ch.h_1, h_2=ch.h_2 / 3.0)
        assert rate_lmmse(scaled, v, 3.0 * gamma, sc) == pytest.approx(
            rate_lmmse(ch, v, gamma, sc), rel=1e-10
        )

    def test_per_column_phase_rotation_invariance(self):
        sc, ch, gamma, v = self._setup(5)
        rng = np.random.default_rng(55)
        phases = np.exp(1j * rng.uniform(0, TWO_PI, v.shape[1]))
        assert rate_lmmse(ch, v * phases[None, :], gamma, sc) == pytest.approx(
            rate_lmmse(ch, v, gamma, sc), rel=1e-10
        )

    def test_monotone_in_transmit_power_single_stream(self):
        sc, ch, gamma, v = self._setup(9, d=1)
        sc_big = dataclasses.replace(sc, p_t_w=10.0 * sc.p_t_w)
        assert rate_lmmse(ch, np.sqrt(10.0) * v, gamma, sc_big) >= rate_lmmse(
            ch, v, gamma, sc
        )

    def test_single_stream_matched_filter_sinr(self):
        sc, ch, gamma, v = self._setup(11, d=1)
        heff = effective_channel(ch, gamma)
        g = heff @ v[:, 0]
        h2g = ch.h_2 * gamma[None, :]
        cov = sc.sigma2_w * sc.f_s * (h2g @ h2g.conj().T) + sc.sigma2_w * sc.f_r * np.eye(4)
        sinr = np.vdot(g, np.linalg.solve(cov, g)).real
        assert rate_lmmse(ch, v, gamma, sc) == pytest.approx(np.log2(1 + sinr), rel=1e-10)


class TestLmmseReceiver:
    def test_matches_the_per_stream_reference(self):
        rng = np.random.default_rng(31)
        lo, hi = np.inf, 0.0
        for trial in range(40):
            d = 1 + trial % 4
            # SINRs from about 0.5 to 250, like the paper's links
            sc = ScenarioConfig(m_t=4, m_r=4, d=d, n=6, n_act=6, p_t_w=1.0,
                                sigma2_w=0.5, f_r=2.0, f_s=1.5)
            ch = random_channels(rng, 4, 4, 6, direct=trial % 2 == 1)
            gamma = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            v = rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d))
            y, sinrs = lmmse_receiver(ch, v, gamma, sc)
            # the combiner is the plain solve with B = noise + g g^H
            g = effective_channel(ch, gamma) @ v
            b = noise_covariance(ch, gamma, sc) + g @ g.conj().T
            assert np.array_equal(y, np.linalg.solve(b, g))
            ref = reference_stream_sinrs(ch, v, gamma, sc)
            assert np.max(np.abs(sinrs - ref) / ref) <= 1e-12
            lo, hi = min(lo, ref.min()), max(hi, ref.max())
        assert lo < 1.0 < 10.0 < hi


class TestStackedDesigns:
    """A (K, n) stack of designs gives each design the bits of its own call."""

    def test_stack_equals_single_design_calls(self):
        sc = ScenarioConfig(m_t=4, m_r=3, d=3, n=7, n_act=7, p_t_w=1.0,
                            sigma2_w=1e-3, f_r=2.0, f_s=1.5)
        rng = np.random.default_rng(21)
        ch = random_channels(rng, 3, 4, 7, direct=True)
        gamma = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        v = rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))
        y, sinrs = lmmse_receiver(ch, v, gamma, sc)
        rates = rate_lmmse(ch, v, gamma, sc)
        heff = effective_channel(ch, gamma)
        cov = noise_covariance(ch, gamma, sc)
        assert y.shape == (5, 3, 3) and sinrs.shape == (5, 3) and rates.shape == (5,)
        for k in range(5):
            y_k, sinrs_k = lmmse_receiver(ch, v[k], gamma[k], sc)
            assert np.array_equal(y[k], y_k) and np.array_equal(sinrs[k], sinrs_k)
            assert rates[k] == rate_lmmse(ch, v[k], gamma[k], sc)
            assert np.array_equal(heff[k], effective_channel(ch, gamma[k]))
            assert np.array_equal(cov[k], noise_covariance(ch, gamma[k], sc))
        assert isinstance(rate_lmmse(ch, v[0], gamma[0], sc), float)

    def test_singular_design_alone_gets_the_ridge(self):
        # one stream on two identical RX antennas: at gamma = 2^30 the thermal
        # term drops below the rounding of the surface noise, so the noise
        # covariance and the receiver matrix B = noise + g g^H are exactly
        # singular
        sc = ScenarioConfig(m_t=1, m_r=2, d=1, n=1, n_act=1, p_t_w=1.0,
                            sigma2_w=2.0**-10, f_r=1.0, f_s=1.0)
        ch = MimoChannels(h_d=np.zeros((2, 1), dtype=complex),
                          h_1=np.ones((1, 1), dtype=complex),
                          h_2=np.ones((2, 1), dtype=complex))
        gamma = np.array([[0.5], [2.0**30], [0.9 - 0.3j]], dtype=complex)
        v = np.ones((3, 1, 1), dtype=complex)
        g = effective_channel(ch, gamma[1]) @ v[1]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(noise_covariance(ch, gamma[1], sc) + g @ g.conj().T, g)
        y, sinrs = lmmse_receiver(ch, v, gamma, sc)
        rates = rate_lmmse(ch, v, gamma, sc)
        for k in range(3):
            y_k, sinrs_k = lmmse_receiver(ch, v[k], gamma[k], sc)
            assert np.array_equal(y[k], y_k) and np.array_equal(sinrs[k], sinrs_k)
            assert rates[k] == rate_lmmse(ch, v[k], gamma[k], sc)
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(rates))
        # the ridge gives the singular design the SINR of the per-stream solve
        assert sinrs[1] == pytest.approx(reference_stream_sinrs(ch, v[1], gamma[1], sc), rel=1e-9)
        # without the singular design the stack solves in one call, unchanged
        assert np.array_equal(rate_lmmse(ch, v[::2], gamma[::2], sc), rates[::2])
