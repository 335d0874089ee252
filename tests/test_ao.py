import dataclasses
import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actris import ao
from actris.ao import (
    PhaseObjective,
    amplitude_qp,
    build_phase_objective,
    phase_gradient,
    power_repair_loop,
    precoder_update,
    random_init,
    rmo_phase_opt,
    run_ao,
)
from actris import circuit
from actris.channel import (
    MimoChannels,
    ScenarioConfig,
    effective_channel,
    lmmse_receiver,
    noise_covariance,
    rate_lmmse,
)
from actris.constraints import POWER_TOL
from actris.do import cascade_norm_objective, do_amplitude_max
from actris.errors import ConvergenceError, InfeasibleBudgetError
from actris.harness import (
    ExperimentSpec,
    SchemeVariant,
    _scenario_for,
    _scheme_rng,
    fig_presets,
    run_experiment,
    run_scheme,
    trial_channels,
)
from test_numerics import fd_gradient
from actris.reflection import (
    ElementFits,
    approx_amplitude_bounds,
    class_fits,
    realize_minimum_power,
    realizer,
)
from conftest import desk_scenario
from test_channel import random_channels, reference_spectral_efficiency, selector_matrix
from test_circuit import reference_bisect
from test_reflection import model_gamma

TWO_PI = 2.0 * np.pi


def make_instance(rng, fits, m=4, d=3, n=None, scenario=None, direct=False):
    n = n if n is not None else fits.n
    sc = scenario or ScenarioConfig(
        m_t=m, m_r=m, d=d, n=n, n_act=n, p_t_w=1.0, sigma2_w=1e-3, f_r=2.0, f_s=1.5
    )
    ch = random_channels(rng, sc.m_r, sc.m_t, n, direct=direct)
    v = rng.standard_normal((sc.m_t, sc.d)) + 1j * rng.standard_normal((sc.m_t, sc.d))
    v *= np.sqrt(sc.p_t_w / np.trace(v.conj().T @ v).real)
    gamma = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return sc, ch, v, gamma


def explicit_phase_objective(ch, v, y, sigma_aux, fits, alpha_bar, scenario):
    """Materialized Kronecker-product construction, usable for small N only."""
    n = ch.h_1.shape[0]
    dmat = selector_matrix(n)
    hcal = np.kron(ch.h_1.T, ch.h_2) @ dmat
    sig = np.diag(sigma_aux + 1.0)
    ysy = y @ sig @ y.conj().T
    t = scenario.sigma2_w * scenario.f_s * (
        dmat.T @ np.kron(np.eye(n), ch.h_2.conj().T @ ysy @ ch.h_2) @ dmat
    ) + hcal.conj().T @ np.kron((v @ v.conj().T).conj(), ysy) @ hcal
    q = hcal.conj().T @ (y @ sig @ v.conj().T).reshape(-1, order="F")
    q = q - hcal.conj().T @ (ysy @ ch.h_d @ v @ v.conj().T).reshape(-1, order="F")
    z2, z1, z = fits.coefficients(alpha_bar)
    return PhaseObjective(t=t, q=q, z2=z2, z1=z1, z=z)


class TestLmmseCombiner:
    def test_consistency_with_rate(self, fits_all_active):
        rng = np.random.default_rng(0)
        for seed in range(5):
            sc, ch, v, gamma = make_instance(np.random.default_rng(seed), fits_all_active, n=6)
            w = lmmse_receiver(ch, v, gamma, sc)[0]
            assert reference_spectral_efficiency(ch, v, w, gamma, sc) == pytest.approx(
                rate_lmmse(ch, v, gamma, sc), abs=1e-9
            )

    def test_single_stream_matched_filter_direction(self):
        sc = ScenarioConfig(m_t=4, m_r=4, d=1, n=4, n_act=4, p_t_w=1.0,
                            sigma2_w=1e-3, f_r=2.0, f_s=1e-300)
        rng = np.random.default_rng(1)
        ch = random_channels(rng, 4, 4, 4)
        v = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        gamma = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = lmmse_receiver(ch, v, gamma, sc)[0]
        g = effective_channel(ch, gamma) @ v[:, 0]
        # interference-free, white noise: the combiner is collinear with the
        # effective signature up to the rank-one MMSE shrinkage
        cross = abs(np.vdot(w[:, 0], g)) / (np.linalg.norm(w) * np.linalg.norm(g))
        assert cross == pytest.approx(1.0, abs=1e-9)

    def test_beats_sampled_combiners_per_stream(self, fits_all_active):
        rng = np.random.default_rng(2)
        sc, ch, v, gamma = make_instance(rng, fits_all_active, n=6)
        w, sinr_opt = lmmse_receiver(ch, v, gamma, sc)

        def per_stream_sinr(wi, i):
            g = effective_channel(ch, gamma) @ v
            f_i = noise_covariance(ch, gamma, sc) + g @ g.conj().T - np.outer(g[:, i], g[:, i].conj())
            sig = abs(np.vdot(wi, g[:, i])) ** 2
            den = np.vdot(wi, f_i @ wi).real
            return sig / den

        for i in range(sc.d):
            assert per_stream_sinr(w[:, i], i) == pytest.approx(sinr_opt[i], rel=1e-9)
            for _ in range(100):
                wr = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                assert per_stream_sinr(wr, i) <= sinr_opt[i] * (1 + 1e-9)


    def test_sinrs_match_per_stream_reference_on_paper_ao_designs(
        self, active_fit, passive_fit
    ):
        # paper size at rho = -20 dB, where SINRs are highest and 1 - s_k
        # cancels most in the one-solve Sherman-Morrison form
        import mpmath

        from actris.do import run_do
        from test_channel import reference_stream_sinrs

        sc = ScenarioConfig().with_rho_db(-20.0)
        worst_ref = worst_exact = top = 0.0
        for trial in range(2):
            ch, mask = trial_channels(sc, 2020, 0, trial)
            fits = ElementFits.from_classes(active_fit, passive_fit, mask)
            do_res = run_do(sc, ch, fits, np.random.default_rng(trial))
            res = run_ao(sc, ch, fits, (do_res.v, do_res.design), j_alt=4)
            v, gamma = res.v, res.design.gamma
            _, sinrs = lmmse_receiver(ch, v, gamma, sc)
            ref = reference_stream_sinrs(ch, v, gamma, sc)
            # 40-digit SINR of each stream against B - g_k g_k^H
            g = effective_channel(ch, gamma) @ v
            b = noise_covariance(ch, gamma, sc) + g @ g.conj().T
            unit = 1.0 / np.abs(b).max()
            exact = np.zeros(sc.d)
            with mpmath.workdps(40):
                big_b = mpmath.matrix((unit * b).tolist())
                for k in range(sc.d):
                    g_k = mpmath.matrix((np.sqrt(unit) * g[:, k]).tolist())
                    f_k = big_b - g_k * g_k.H
                    exact[k] = float(mpmath.re((g_k.H * mpmath.lu_solve(f_k, g_k))[0]))
            on = ref > 0.0   # a zero precoder column carries no stream
            assert np.all(sinrs[~on] == 0.0)
            worst_ref = max(worst_ref, np.max(np.abs(sinrs[on] - ref[on]) / ref[on]))
            worst_exact = max(worst_exact, np.max(np.abs(sinrs[on] - exact[on]) / exact[on]))
            top = max(top, ref.max())
        assert top > 1000.0
        assert worst_ref <= 1e-12
        assert worst_exact <= 1e-12


def opbar_objective(ch, v, y, sigma_aux, gamma, scenario):
    """Reference: the reformulated rate objective with explicit auxiliaries,
    stream by stream (bps/Hz at the optimal auxiliaries)."""
    heff = effective_channel(ch, gamma)
    g = heff @ v
    f = noise_covariance(ch, gamma, scenario) + g @ g.conj().T
    total = 0.0
    for i in range(v.shape[1]):
        quad = 2.0 * np.vdot(y[:, i], g[:, i]).real - np.vdot(
            y[:, i], f @ y[:, i]
        ).real
        total += np.log2(1.0 + sigma_aux[i]) - sigma_aux[i] + (1.0 + sigma_aux[i]) * quad
    return float(total)


class TestAuxiliaries:
    def test_transform_tightness(self, fits_all_active):
        for seed in range(5):
            rng = np.random.default_rng(seed + 10)
            sc, ch, v, gamma = make_instance(rng, fits_all_active, n=6)
            y, sig = lmmse_receiver(ch, v, gamma, sc)
            assert opbar_objective(ch, v, y, sig, gamma, sc) == pytest.approx(
                rate_lmmse(ch, v, gamma, sc), abs=1e-8
            )

    def test_zero_channel(self, fits_all_active):
        rng = np.random.default_rng(3)
        sc, ch, v, _ = make_instance(rng, fits_all_active, n=6)
        gamma = np.zeros(6, dtype=complex)
        y, sig = lmmse_receiver(ch, v, gamma, sc)
        assert np.allclose(sig, 0.0)
        assert opbar_objective(ch, v, y, sig, gamma, sc) == pytest.approx(0.0, abs=1e-12)

    def test_sinr_weights_nonnegative(self, fits_all_active):
        rng = np.random.default_rng(4)
        for _ in range(10):
            sc, ch, v, gamma = make_instance(rng, fits_all_active, n=6)
            _, sig = lmmse_receiver(ch, v, gamma, sc)
            assert np.all(sig >= 0.0)


def _reference_precoder(ch, y, sigma_aux, gamma, scenario):
    """The bisection precoder that precoder_update replaced: a symmetrized,
    descending eigendecomposition; the multiplier zero when the unconstrained
    solution fits the budget, else bisected on [0, lam_hi], with lam_hi from
    ||z|| / sqrt(p_t) doubled until the power fits."""
    heff = effective_channel(ch, gamma)
    z = heff.conj().T @ y @ np.diag(sigma_aux + 1.0)
    k = z @ y.conj().T @ heff
    vals, u = np.linalg.eigh(0.5 * (k + k.conj().T))
    vals, u = np.maximum(vals[::-1], 0.0), u[:, ::-1]
    num = np.sum(np.abs(u.conj().T @ z) ** 2, axis=1)
    keep = num > 1e-14 * max(num.sum(), 1e-300)
    vals_kept, num_kept = vals[keep], num[keep]

    def tx_power(lam):
        return float(np.sum(num_kept / (vals_kept + lam) ** 2))

    p_t = scenario.p_t_w
    if not keep.any():
        return np.zeros((scenario.m_t, y.shape[1]), dtype=complex)
    if np.all(vals_kept > 0.0) and tx_power(0.0) <= p_t:
        lam_opt = 0.0
    else:
        lam_hi = np.linalg.norm(z) / np.sqrt(p_t)
        while tx_power(lam_hi) > p_t:
            lam_hi *= 2.0
        lam_opt = reference_bisect(lambda lam: tx_power(lam) - p_t, 0.0, lam_hi, tol=1e-11 * p_t)
    scale = np.zeros_like(vals)
    scale[keep] = 1.0 / (vals_kept + lam_opt)
    return u @ (scale[:, None] * (u.conj().T @ z))


@st.composite
def precoder_problems(draw):
    d = draw(st.integers(1, 4))                # streams: k has rank d of 4
    passive = draw(st.booleans())              # some cells on the passive fit
    log_ratio = draw(st.floats(-3.0, 3.0))     # budget over the unconstrained power, log10
    seed = draw(st.integers(0, 2**32 - 1))
    return d, passive, log_ratio, seed


class TestPrecoderUpdate:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(precoder_problems())
    @example((3, False, 0.0, 1))               # the budget is the unconstrained power
    def test_newton_multiplier_matches_the_bisection(self, active_fit, passive_fit, problem):
        d, passive, log_ratio, seed = problem
        rng = np.random.default_rng(seed)
        n = 6
        mask = rng.uniform(size=n) < 0.5 if passive else np.ones(n, dtype=bool)
        fits = ElementFits.from_classes(active_fit, passive_fit, mask)
        sc, ch, v, _ = make_instance(rng, fits, d=d, n=n)
        gamma = model_gamma(fits, rng.uniform(0.0, TWO_PI, n), rng.uniform(0.0, 1.0, n))
        y, sig = lmmse_receiver(ch, v, gamma, sc)
        free = _reference_precoder(ch, y, sig, gamma, dataclasses.replace(sc, p_t_w=1e30))
        free_power = np.trace(free.conj().T @ free).real
        sc = dataclasses.replace(sc, p_t_w=free_power * 10.0**log_ratio)
        got = precoder_update(ch, y, sig, gamma, sc)
        power = np.trace(got.conj().T @ got).real
        if sc.p_t_w < free_power:
            # Newton rises onto the multiplier's root from below, so the power
            # falls onto [p_t, p_t (1 + 1e-11)], widened by rounding of 1e-14
            assert sc.p_t_w * (1.0 - 1e-14) <= power <= sc.p_t_w * (1.0 + 1e-11 + 1e-14)
        else:
            assert np.linalg.norm(got - free) <= 1e-12 * np.linalg.norm(free)
        want = _reference_precoder(ch, y, sig, gamma, sc)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_step_cap_raises_naming_power_and_budget(self, fits_all_active, monkeypatch):
        rng = np.random.default_rng(5)
        sc, ch, v, gamma = make_instance(rng, fits_all_active, n=6)
        y, sig = lmmse_receiver(ch, v, gamma, sc)
        monkeypatch.setattr(ao, "NEWTON_STEPS", 1)
        with pytest.raises(ConvergenceError, match=r"precoder power .* exceeds the budget "
                                                   r"0\.001 W after 1 Newton steps"):
            precoder_update(ch, y, sig, gamma, dataclasses.replace(sc, p_t_w=1e-3))

    def test_binding_budget_hits_power_exactly(self, fits_all_active):
        rng = np.random.default_rng(5)
        sc, ch, v, gamma = make_instance(rng, fits_all_active, n=6)
        y, sig = lmmse_receiver(ch, v, gamma, sc)
        unconstrained = precoder_update(ch, y, sig, gamma, sc)
        free_power = np.trace(unconstrained.conj().T @ unconstrained).real
        # shrink the budget below the unconstrained optimum to make it bind
        sc_tight = dataclasses.replace(sc, p_t_w=0.5 * free_power)
        v_new = precoder_update(ch, y, sig, gamma, sc_tight)
        assert np.trace(v_new.conj().T @ v_new).real == pytest.approx(
            sc_tight.p_t_w, abs=1e-8 * sc_tight.p_t_w
        )

    def test_slack_budget_keeps_multiplier_zero(self, fits_all_active):
        rng = np.random.default_rng(6)
        sc, ch, v, gamma = make_instance(rng, fits_all_active, n=6)
        sc_big = dataclasses.replace(sc, p_t_w=1e9)
        y, sig = lmmse_receiver(ch, v, gamma, sc_big)
        v_new = precoder_update(ch, y, sig, gamma, sc_big)
        assert np.trace(v_new.conj().T @ v_new).real < sc_big.p_t_w * (1 - 1e-6)

    def test_objective_nondecreasing_across_update(self, fits_all_active):
        for seed in range(8):
            rng = np.random.default_rng(seed + 20)
            sc, ch, v, gamma = make_instance(rng, fits_all_active, n=6)
            y, sig = lmmse_receiver(ch, v, gamma, sc)
            before = opbar_objective(ch, v, y, sig, gamma, sc)
            v_new = precoder_update(ch, y, sig, gamma, sc)
            after = opbar_objective(ch, v_new, y, sig, gamma, sc)
            assert after >= before - 1e-9 * max(1.0, abs(before))


class TestPhaseObjectiveAssembly:
    def test_matches_explicit_kronecker(self, active_fit, passive_fit):
        for n in (2, 4, 8):
            rng = np.random.default_rng(n)
            mask = np.ones(n, dtype=bool)
            if n > 2:
                mask[1] = False
            fits = ElementFits.from_classes(active_fit, passive_fit, mask)
            sc, ch, v, gamma = make_instance(rng, fits, n=n, direct=True)
            y, sig = lmmse_receiver(ch, v, gamma, sc)
            ab = rng.uniform(0, 1, n)
            fast = build_phase_objective(ch, v, y, sig, fits, ab, sc)
            full = explicit_phase_objective(ch, v, y, sig, fits, ab, sc)
            assert np.linalg.norm(fast.t - full.t) / np.linalg.norm(full.t) < 1e-9
            assert np.linalg.norm(fast.q - full.q) / max(np.linalg.norm(full.q), 1e-300) < 1e-9
            for _ in range(5):
                ph = np.exp(1j * rng.uniform(0, TWO_PI, n))
                assert fast.value(ph) == pytest.approx(full.value(ph), rel=1e-9)

    def test_value_is_real(self, fits_all_active):
        rng = np.random.default_rng(9)
        sc, ch, v, gamma = make_instance(rng, fits_all_active)
        y, sig = lmmse_receiver(ch, v, gamma, sc)
        obj = build_phase_objective(ch, v, y, sig, fits_all_active, rng.uniform(0, 1, 16), sc)
        for _ in range(100):
            ph = np.exp(1j * rng.uniform(0, TWO_PI, 16))
            g = obj.gamma_of(ph)
            raw = complex(g.conj() @ (obj.t @ g))
            assert abs(raw.imag) <= 1e-9 * max(1.0, abs(raw.real))

    def test_degenerate_inputs_give_flat_objective(self, fits_all_active):
        rng = np.random.default_rng(10)
        sc, ch, _, gamma = make_instance(rng, fits_all_active)
        sc0 = dataclasses.replace(sc, f_s=1e-300)
        v0 = np.zeros((sc.m_t, sc.d), dtype=complex)
        y, sig = lmmse_receiver(ch, v0, gamma, sc0)
        obj = build_phase_objective(ch, v0, y, sig, fits_all_active, np.ones(16), sc0)
        assert np.abs(obj.t).max() < 1e-250
        assert np.abs(obj.q).max() < 1e-250
        vals = [obj.value(np.exp(1j * rng.uniform(0, TWO_PI, 16))) for _ in range(5)]
        assert np.ptp(vals) < 1e-250


class TestPhaseGradient:
    def _random_objective(self, rng, fits, n):
        sc, ch, v, gamma = make_instance(rng, fits, n=n, direct=True)
        y, sig = lmmse_receiver(ch, v, gamma, sc)
        obj = build_phase_objective(ch, v, y, sig, fits, rng.uniform(0, 1, n), sc)
        # normalize so finite differences work at a sane scale
        s = max(np.abs(obj.t).max(), np.abs(obj.q).max())
        return PhaseObjective(t=obj.t / s, q=obj.q / s, z2=obj.z2, z1=obj.z1, z=obj.z)

    def test_matches_finite_differences(self, active_fit, passive_fit):
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed + 100)
            mask = rng.uniform(size=8) < 0.8
            mask[0] = True
            fits = ElementFits.from_classes(active_fit, passive_fit, mask)
            obj = self._random_objective(rng, fits, 8)
            ph = np.exp(1j * rng.uniform(0, TWO_PI, 8))
            analytic = phase_gradient(obj, ph)
            numeric = fd_gradient(lambda x: obj.value(x), ph, h=1e-6)
            err = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            worst = max(worst, err)
        assert worst <= 1e-5

    def test_folded_factors_keep_the_bits_of_the_written_out_gradient(self, active_fit,
                                                                       passive_fit):
        # the factors of two folded into gradient_factors are powers of two,
        # so the gradient keeps the bits of 2 (2 conj(p) conj(z2) w + conj(z1) w)
        for seed, n in itertools.product(range(20), (8, 64)):
            rng = np.random.default_rng(seed + 300)
            fits = ElementFits.from_classes(active_fit, passive_fit, rng.uniform(size=n) < 0.8)
            obj = self._random_objective(rng, fits, n)
            ph = np.exp(1j * rng.uniform(0, TWO_PI, n))
            w = obj.t @ obj.gamma_of(ph) - obj.q
            want = 2.0 * (2.0 * np.conj(ph) * np.conj(obj.z2) * w + np.conj(obj.z1) * w)
            assert phase_gradient(obj, ph).tobytes() == want.tobytes()

    def test_zero_data_zero_gradient(self, fits_all_active):
        n = 16
        obj = PhaseObjective(
            t=np.zeros((n, n), dtype=complex),
            q=np.zeros(n, dtype=complex),
            z2=np.zeros(n, dtype=complex),
            z1=np.ones(n, dtype=complex),
            z=np.zeros(n, dtype=complex),
        )
        ph = np.exp(1j * np.linspace(0, TWO_PI, n, endpoint=False))
        assert np.allclose(phase_gradient(obj, ph), 0.0)

    def test_small_n_explicit_oracle(self, active_fit, passive_fit):
        rng = np.random.default_rng(77)
        fits = ElementFits.from_classes(active_fit, passive_fit, np.ones(4, dtype=bool))
        sc, ch, v, gamma = make_instance(rng, fits, n=4, direct=True)
        y, sig = lmmse_receiver(ch, v, gamma, sc)
        ab = rng.uniform(0, 1, 4)
        fast = build_phase_objective(ch, v, y, sig, fits, ab, sc)
        full = explicit_phase_objective(ch, v, y, sig, fits, ab, sc)
        ph = np.exp(1j * rng.uniform(0, TWO_PI, 4))
        g_fast = phase_gradient(fast, ph)
        g_full = phase_gradient(full, ph)
        assert np.linalg.norm(g_fast - g_full) / np.linalg.norm(g_full) < 1e-9


class TestManifoldDescent:
    def test_tangent_projection_identity(self, fits_all_active):
        rng = np.random.default_rng(13)
        obj = TestPhaseGradient()._random_objective(rng, fits_all_active, 16)
        ph = np.exp(1j * rng.uniform(0, TWO_PI, 16))
        from actris.ao import _tangent_project

        rg = _tangent_project(phase_gradient(obj, ph), ph, np.conj(ph))
        assert np.max(np.abs(np.real(rg * np.conj(ph)))) < 1e-12

    def test_monotone_descent_trace(self, fits_all_active):
        for seed in range(5):
            rng = np.random.default_rng(seed + 40)
            obj = TestPhaseGradient()._random_objective(rng, fits_all_active, 16)
            ph0 = np.exp(1j * rng.uniform(0, TWO_PI, 16))
            ph, trace = rmo_phase_opt(obj, ph0)
            assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))
            assert trace[-1] <= trace[0]
            assert np.allclose(np.abs(ph), 1.0, atol=1e-12)

    def test_single_element_toy_reaches_grid_optimum(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            qv = rng.standard_normal() + 1j * rng.standard_normal()
            obj = PhaseObjective(
                t=np.array([[0.3 + 0j]]),
                q=np.array([qv]),
                z2=np.array([0.05 + 0j]),
                z1=np.array([1.0 + 0j]),
                z=np.array([0.02 + 0j]),
            )
            grid = np.linspace(0, TWO_PI, 400_000, endpoint=False)
            gam = obj.z2 * np.exp(2j * grid) + obj.z1 * np.exp(1j * grid) + obj.z
            vals = (np.conj(gam) * (obj.t[0, 0] * gam)).real - 2 * (np.conj(gam) * obj.q[0]).real
            best_phi = grid[np.argmin(vals)]
            # multi-start to dodge the shallow secondary basin of the toy
            cands = []
            for s in range(4):
                ph0 = np.array([np.exp(1j * (s * np.pi / 2))])
                ph, trace = rmo_phase_opt(obj, ph0, tol=1e-10)
                cands.append((trace[-1], float(np.angle(ph[0]) % TWO_PI)))
            _, reached = min(cands)
            diff = abs((reached - best_phi + np.pi) % TWO_PI - np.pi)
            assert diff < 1e-4

    def test_normalizes_bad_start_with_warning(self, fits_all_active):
        rng = np.random.default_rng(15)
        obj = TestPhaseGradient()._random_objective(rng, fits_all_active, 16)
        with pytest.warns(UserWarning):
            ph, _ = rmo_phase_opt(obj, 2.0 * np.exp(1j * rng.uniform(0, TWO_PI, 16)))
        assert np.allclose(np.abs(ph), 1.0)


def _qp(obj, phi, fits, scenario, budget):
    """amplitude_qp on the data of one design step: objective obj at phases phi."""
    return amplitude_qp(ao._qp_phase_data(obj, phi),
                        ao._power_fit_arrays(fits, phi, scenario.circuit), budget)


class TestLinearPowerFit:
    @staticmethod
    def _fit_one(fit, phi, params):
        """The linear power surrogate of a one-cell surface at phase phi:
        (p_min, p_max, slope, lower, upper), p_max read off the chord."""
        fits = ElementFits(fit, fit, np.ones(1, dtype=bool))
        p_min, slope, lower, upper = ao._power_fit_arrays(fits, np.array([phi]), params)
        p_max = p_min[0] + slope[0] * (upper[0] - lower[0])
        return p_min[0], p_max, slope[0], lower[0], upper[0]

    def test_endpoint_exactness(self, params_va, active_fit):
        for phi in (0.5, 2.0, 4.0, 5.9):
            p_min, p_max, slope, lo, up = self._fit_one(active_fit, phi, params_va)
            assert (lo, up) == pytest.approx(approx_amplitude_bounds(active_fit, phi), rel=1e-12)
            assert slope > 0.0
            r_min, r_max = circuit.usable_resistance_band(params_va, phi)
            assert p_min == pytest.approx(circuit.power_consumption(r_max, params_va))
            assert p_max == pytest.approx(circuit.power_consumption(r_min, params_va), rel=1e-12)

    def _surrogate_errors(self, params, fit, phi):
        """Sampled |y(alpha) - P(alpha)| at five interior amplitudes, with the
        true power obtained by circuit inversion under band saturation."""
        band_lo, band_hi = circuit.diode_band(params)
        p_min, p_max, slope, lo, up = self._fit_one(fit, phi, params)
        errs = []
        for frac in (1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6):
            alpha = lo + frac * (up - lo)
            r, _, ok = circuit.circuit_from_gamma(params, alpha * np.exp(1j * phi))
            assert ok
            r = float(np.clip(r, band_lo, band_hi)) if r < 0 else float(r)
            p_true = circuit.power_consumption(r, params)
            errs.append(abs(p_min + slope * (alpha - lo) - p_true))
        return np.array(errs), p_min, p_max

    def test_interior_error_recorded_and_bounded(self, params_va, active_fit):
        # the true power is strongly convex in the amplitude, so the
        # endpoint-exact chord can overestimate interior powers by up to the
        # full power range; both quantities live in [0, P_max], which bounds
        # the sampled error everywhere
        rng = np.random.default_rng(99)
        worst = 0.0
        for phi in rng.uniform(0, TWO_PI, 40):
            if np.isnan(circuit.phase_capacitance(params_va, -5.0, phi)):
                continue
            errs, p_min, p_max = self._surrogate_errors(params_va, active_fit, phi)
            worst = max(worst, errs.max() / p_max)
            assert errs.max() <= p_max * (1 + 1e-9)
        print(f"power-surrogate worst sampled error: {worst:.3f} of P_max")

    def test_interior_error_tight_near_peak(self, params_va, active_fit):
        # in the high-amplitude region the surrogate's own dynamic range is
        # exercised and the chord stays within half the power range
        for phi in (5.6, 5.9271, 6.2):
            errs, p_min, p_max = self._surrogate_errors(params_va, active_fit, phi)
            assert errs.max() <= 0.5 * (p_max - p_min) * (1 + 1e-9)


class TestProjection:
    """The reference projection that the reference QP loop steps with, and
    the amplitude QP's own check of the lower box corner."""

    def test_exactness_against_sampling(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = rng.integers(2, 9)
            lower = rng.uniform(-1, 0, n)
            upper = lower + rng.uniform(0.1, 2.0, n)
            w = rng.uniform(0, 1, n) * (rng.uniform(size=n) < 0.8)
            b = w @ lower + rng.uniform(0.05, 1.0)
            v = rng.uniform(-2, 3, n)
            x = _reference_project(v, lower, upper, w, b)
            assert np.all(x >= lower - 1e-12) and np.all(x <= upper + 1e-12)
            assert w @ x <= b + 1e-9
            # no sampled feasible point is closer to v
            d_star = np.linalg.norm(x - v)
            for _ in range(40):
                y = rng.uniform(lower, upper)
                if w @ y <= b:
                    assert np.linalg.norm(y - v) >= d_star - 1e-9

    def test_corner_over_budget_raises_at_any_scale(self):
        # the amplitude QP's own corner check, on a steep slope whose budget
        # sits 1e-6 relative below the lower corner's power
        lower, w = np.array([0.5, 1.0, 2.0]), np.array([1.8e4, 3.0, 0.5])
        upper = lower + 1.0
        corner = float(w @ lower)
        qp_data = (np.eye(3), -np.ones(3), 2.0)
        with pytest.raises(InfeasibleBudgetError, match="lower box corner"):
            amplitude_qp(qp_data, (w * lower, w, lower, upper), corner - 1e-6 * abs(corner))


class TestAmplitudeQP:
    def _objective(self, rng, fits, n, scale=1.0):
        t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        t = scale * (t @ t.conj().T) / n
        q = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        z2, z1, z = fits.coefficients(np.ones(n))
        return PhaseObjective(t=t, q=q, z2=z2, z1=z1, z=z)

    def test_ample_budget_pushes_to_upper_corner(self, fits_all_active, scenario_desk):
        rng = np.random.default_rng(23)
        n = 16
        phi = rng.uniform(0, TWO_PI, n)
        phasor = np.exp(1j * phi)
        lower, upper = fits_all_active.bounds(phi)
        # a weak quadratic and a linear term aligned to push every amplitude
        # far above its upper bound
        q = phasor * 1.0
        obj = PhaseObjective(
            t=1e-3 * np.eye(n, dtype=complex), q=q,
            z2=np.zeros(n, dtype=complex), z1=np.ones(n, dtype=complex),
            z=np.zeros(n, dtype=complex),
        )
        res = _qp(obj, phi, fits_all_active, scenario_desk, budget=1e9)
        assert np.allclose(res.alpha, upper, atol=1e-6)

    def test_tight_budget_pins_lower_corner(self, fits_all_active, scenario_desk):
        rng = np.random.default_rng(24)
        phi = rng.uniform(0, TWO_PI, 16)
        from actris.ao import _power_fit_arrays

        p_min, _, lower, _ = _power_fit_arrays(fits_all_active, phi, scenario_desk.circuit)
        obj = self._objective(rng, fits_all_active, 16)
        res = _qp(obj, phi, fits_all_active, scenario_desk, budget=float(p_min.sum()))
        # the pivoting starts at the corner and certifies it as it stands
        assert _same_bits(res.alpha, lower) and res.iterations == 0

    def test_floor_budget_solves_at_criterion_12_size(self, active_fit, passive_fit, pivot_log):
        # criterion 12's all-active rule at N = 144 (111 cells active, as many
        # as the budget's minimum bias allows); two active cells sit where the
        # amplitude span nearly collapses, so their fitted slopes reach ~2e4
        # W per unit amplitude and the budget offset b ~ 4e4 carries rounding
        # of several ulps against the lower-corner power
        from actris.ao import _power_fit_arrays

        spec = fig_presets("fig7", scale="desk", seed=12)
        sc, _ = _scenario_for(spec, spec.variants[0], 144.0)
        _, mask = trial_channels(sc, 12, 0, 0)
        fits = ElementFits.from_classes(active_fit, passive_fit, mask)
        obj = self._objective(np.random.default_rng(31), fits, sc.n)
        active = np.flatnonzero(mask)
        for seed in range(20):
            phi = np.random.default_rng(seed).uniform(0, TWO_PI, sc.n)
            phi[active[:2]] = (2.78556, 2.7856)
            p_min, _, lower, _ = _power_fit_arrays(fits, phi, sc.circuit)
            pivot_log.clear()
            res = _qp(obj, phi, fits, sc, budget=float(p_min.sum()))
            assert np.allclose(res.alpha[mask], lower[mask], atol=1e-6)
            # the lower corner is the only feasible point, a vertex on the
            # budget row, and the pivoting certifies it without a
            # fixed-multiplier box solve
            assert np.inf not in pivot_log, seed

    def test_infeasible_budget_raises(self, fits_all_active, scenario_desk):
        rng = np.random.default_rng(25)
        phi = rng.uniform(0, TWO_PI, 16)
        obj = self._objective(rng, fits_all_active, 16)
        with pytest.raises(InfeasibleBudgetError):
            _qp(obj, phi, fits_all_active, scenario_desk, budget=1e-4)

    def test_matches_dense_grid_search(self, active_fit, passive_fit, scenario_desk):
        rng = np.random.default_rng(26)
        fits = ElementFits.from_classes(active_fit, passive_fit, np.ones(2, dtype=bool))
        for trial in range(5):
            phi = rng.uniform(0, TWO_PI, 2)
            obj = self._objective(rng, fits, 2)
            budget = 0.04 + 0.01 * trial
            try:
                res = _qp(obj, phi, fits, scenario_desk, budget=budget)
            except InfeasibleBudgetError:
                continue
            phasor = np.exp(1j * phi)
            m = np.real(np.conj(phasor)[:, None] * obj.t * phasor[None, :])
            c_lin = -2.0 * np.real(np.conj(phasor) * obj.q)
            from actris.ao import _power_fit_arrays

            p_min, slope, lower, upper = _power_fit_arrays(fits, phi, scenario_desk.circuit)
            grid1 = np.linspace(lower[0], upper[0], 401)
            grid2 = np.linspace(lower[1], upper[1], 401)
            best = np.inf
            for a1 in grid1:
                a2 = grid2[
                    p_min.sum() + slope[0] * (a1 - lower[0]) + slope[1] * (grid2 - lower[1]) <= budget
                ]
                if a2.size == 0:
                    continue
                al = np.stack([np.full(a2.size, a1), a2])
                vals = np.einsum("in,ij,jn->n", al, m, al) + c_lin @ al
                best = min(best, vals.min())
            assert res.objective <= best + 1e-3 * max(1.0, abs(best))

    def test_kkt_residual_at_rounding_level(self, fits_all_active, scenario_desk):
        rng = np.random.default_rng(27)
        for _ in range(10):
            phi = rng.uniform(0, TWO_PI, 16)
            obj = self._objective(rng, fits_all_active, 16)
            res = _qp(obj, phi, fits_all_active, scenario_desk, budget=0.3)
            assert res.kkt_residual <= 1e-12


class TestPowerRepair:
    def test_in_budget_solution_converges_first_pass(self, params_va, fits_all_active, scenario_desk):
        # when the first solve already satisfies the true constraint the loop
        # must not iterate (the case of an error-free power surrogate)
        rng = np.random.default_rng(28)
        phi = rng.uniform(0, TWO_PI, 16)
        lower, _ = fits_all_active.bounds(phi)
        budgets, surrogates = [], []

        def resolve(surrogate, budget):
            budgets.append(budget)
            surrogates.append(surrogate)
            return lower

        design = power_repair_loop(scenario_desk, fits_all_active, phi, resolve)
        # one solve at the surface budget, no re-solve
        assert budgets == [scenario_desk.p_ris_w]
        # the repair hands its solves the linear power surrogate at phi
        expected = ao._power_fit_arrays(fits_all_active, phi, params_va)
        assert all(_same_bits(got, want) for got, want in zip(surrogates[0], expected))
        assert design.repair_passes == 1
        assert design.ris_power_w <= scenario_desk.p_ris_w + 1e-9
        unchanged = realizer(params_va, fits_all_active, phi)(lower)
        assert _same_bits(design.gamma, unchanged.gamma)
        assert design.cells == unchanged.cells
        assert design.ris_power_w == unchanged.ris_power_w

    def test_budget_always_met(self, params_va, fits_all_active, scenario_desk):
        rng = np.random.default_rng(29)
        for _ in range(20):
            phi = rng.uniform(0, TWO_PI, 16)
            def resolve(surrogate, budget):
                p_min, slope, lo, up = surrogate
                frac = min(1.0, max(0.0, (budget - p_min.sum()) / max(slope @ (up - lo), 1e-12)))
                return lo + frac * (up - lo)

            design = power_repair_loop(scenario_desk, fits_all_active, phi, resolve)
            assert design.ris_power_w <= scenario_desk.p_ris_w + 1e-9

    def test_stalled_shortfall_bisects_the_working_budget(
        self, params_va, fits_all_active, scenario_desk
    ):
        # the re-solve ignores its budget until the budget falls below `cut`,
        # so the realized power does not fall between passes; the bisection
        # must find the design below `cut`, not the minimum-bias one
        rng = np.random.default_rng(32)
        phi = rng.uniform(0, TWO_PI, 16)
        lower, upper = fits_all_active.bounds(phi)
        p_ris = scenario_desk.p_ris_w
        floor = realize_minimum_power(params_va, fits_all_active, phi).ris_power_w
        cut = floor + 0.6 * (p_ris - floor)
        low = lower + 0.2 * (upper - lower)
        assert realizer(params_va, fits_all_active, phi)(upper).ris_power_w > p_ris
        assert realizer(params_va, fits_all_active, phi)(low).ris_power_w <= p_ris
        budgets = []

        def resolve(surrogate, budget):
            budgets.append(budget)
            return upper if budget > cut else low

        design = power_repair_loop(scenario_desk, fits_all_active, phi, resolve)
        assert design.ris_power_w <= p_ris + 1e-9
        assert 1 <= design.repair_passes <= 8
        # the solve at the surface budget, one re-solve per further pass, then the bisection
        assert budgets[0] == p_ris
        assert len(budgets) == design.repair_passes + ao.REPAIR_BISECTIONS
        assert _same_bits(design.gamma, low * np.exp(1j * phi))

    def test_infeasible_resolve_ends_at_minimum_bias(self, params_va, fits_all_active, scenario_desk):
        # the solve and every re-solve return the upper corner, whose
        # realization breaks the budget; no bisection budget fits either, so
        # the repair ends at the minimum-bias design
        rng = np.random.default_rng(33)
        phi = rng.uniform(0, TWO_PI, 16)
        _, upper = fits_all_active.bounds(phi)

        def resolve(surrogate, budget):
            return upper

        assert realizer(params_va, fits_all_active, phi)(upper).ris_power_w > scenario_desk.p_ris_w
        floor_design = realize_minimum_power(params_va, fits_all_active, phi)
        design = power_repair_loop(scenario_desk, fits_all_active, phi, resolve)
        assert design.repair_passes == 2
        assert design.cells == floor_design.cells
        p_ris = 0.99 * floor_design.ris_power_w
        below_floor = dataclasses.replace(scenario_desk, p_ris_w=p_ris)
        message = (f"surface budget {p_ris:.6g} W is below the minimum-bias power "
                   f"{floor_design.ris_power_w:.6g} W")
        with pytest.raises(ConvergenceError, match=f"^{re.escape(message)}$"):
            power_repair_loop(below_floor, fits_all_active, phi, resolve)

    @staticmethod
    def _stalled_upper_corner(fits, phi, params, p_ris):
        """phi's upper corner, over the budget, and a design of amplitudes
        0.2 of the way up the box, within it."""
        lower, upper = fits.bounds(phi)
        low = lower + 0.2 * (upper - lower)
        assert realizer(params, fits, phi)(upper).ris_power_w > p_ris
        assert realizer(params, fits, phi)(low).ris_power_w <= p_ris
        return upper, low

    def test_infeasible_resolve_raises_through_the_repair(
        self, params_va, fits_all_active, scenario_desk
    ):
        # a re-solve is only asked at a budget at or above the linear floor,
        # where no amplitude solver raises; an InfeasibleBudgetError there is
        # a solver fault, and the repair does not hide it
        rng = np.random.default_rng(34)
        phi = rng.uniform(0, TWO_PI, 16)
        p_ris = scenario_desk.p_ris_w
        upper, _ = self._stalled_upper_corner(fits_all_active, phi, params_va, p_ris)
        floor = float(ao._power_fit_arrays(fits_all_active, phi, params_va)[0].sum())
        budgets = []

        def resolve(surrogate, budget):
            budgets.append(budget)
            if len(budgets) == 1:
                return upper
            raise InfeasibleBudgetError("re-solve found no feasible amplitudes")

        with pytest.raises(InfeasibleBudgetError, match="^re-solve found no feasible amplitudes$"):
            power_repair_loop(scenario_desk, fits_all_active, phi, resolve)
        assert budgets[0] == p_ris and floor < budgets[1] < p_ris

    def test_infeasible_bisection_step_lowers_the_upper_end(
        self, params_va, fits_all_active, scenario_desk
    ):
        # the re-solve stalls at the upper corner, so the loop bisects; a
        # bisection solve above `cut` returns the upper corner again, whose
        # realization breaks the budget, which must make its budget the new
        # upper end
        rng = np.random.default_rng(37)
        phi = rng.uniform(0, TWO_PI, 16)
        p_ris = scenario_desk.p_ris_w
        upper, low = self._stalled_upper_corner(fits_all_active, phi, params_va, p_ris)
        floor = float(ao._power_fit_arrays(fits_all_active, phi, params_va)[0].sum())
        cut = floor + 0.3 * (p_ris - floor)
        budgets = []

        def resolve(surrogate, budget):
            budgets.append(budget)
            return upper if len(budgets) <= 2 or budget > cut else low

        design = power_repair_loop(scenario_desk, fits_all_active, phi, resolve)
        assert design.repair_passes == 2
        lo, hi, expected = floor, budgets[1], []
        for _ in range(ao.REPAIR_BISECTIONS):
            mid = 0.5 * (lo + hi)
            expected.append(mid)
            lo, hi = (lo, mid) if mid > cut else (mid, hi)
        assert budgets[2:] == expected
        assert any(b > cut for b in expected) and any(b <= cut for b in expected)
        assert _same_bits(design.gamma, low * np.exp(1j * phi))

    @pytest.mark.parametrize("size", ["desk", "paper"])
    def test_every_amplitude_solver_returns_at_the_floor_budget(self, size, active_fit,
                                                                passive_fit):
        # the repair's lowest working budget is the linear floor p_min.sum();
        # DO's greedy, PAIDO's constant-box greedy and AO's QP all solve there
        sc = SIZES[size]
        for seed in (3, 17):
            objectives, fits = _trial_objectives(sc, active_fit, passive_fit, seed)
            rng = np.random.default_rng(seed)
            phasor, _ = rmo_phase_opt(objectives["AO"], np.exp(1j * rng.uniform(0.0, TWO_PI, sc.n)))
            phi = np.angle(phasor) % TWO_PI
            surrogate = ao._power_fit_arrays(fits, phi, sc.circuit)
            p_min, slope, lower, upper = surrogate
            floor = float(p_min.sum())
            const = ao._linear_power(sc.circuit, fits.active_mask, fits.delta_min, fits.beta_max,
                                     circuit.diode_band(sc.circuit)[0])
            assert float(const[0].sum()) == floor
            qp = amplitude_qp(ao._qp_phase_data(objectives["AO"], phi), surrogate, floor)
            for alpha in (do_amplitude_max(surrogate, floor), do_amplitude_max(const, floor),
                          qp.alpha):
                assert np.all(np.isfinite(alpha)) and alpha.shape == (sc.n,)
            assert np.all(qp.alpha >= lower) and np.all(qp.alpha <= upper)

    def test_desk_ao_core_paido_row_has_no_error(self):
        # the first core block of the desk-ao benchmark workload, where
        # PAIDO's shortfall passes alone do not meet the budget at -40 dB
        sc = dataclasses.replace(desk_scenario(), seed=2968811710)
        spec = ExperimentSpec(
            scenario=sc,
            sweep_kind="rho_db",
            sweep_values=(-40.0,),
            variants=tuple(SchemeVariant(s, s) for s in ("AO", "AO-random-init", "DO", "PAIDO")),
            trials=1,
            threads=1,
        )
        rows = {r.scheme: r for r in run_experiment(spec)}
        assert rows["PAIDO"].error == ""
        assert rows["PAIDO"].rate_bps_hz > 0.0


class TestDesignStepData:
    """A design step builds its QP data once and passes it down, and its power
    repair builds the surrogate once: the re-solves build nothing."""

    @staticmethod
    def _counted(monkeypatch, counts, *sites):
        for module, name in sites:
            def counting(*args, _build=getattr(module, name), _name=name):
                counts[_name] += 1
                return _build(*args)
            monkeypatch.setattr(module, name, counting)

    @staticmethod
    def _desk_trials(seeds):
        # the first core block of the desk-ao benchmark workload at -40 dB,
        # where the surrogate under-accounts the power and the repair re-solves
        sc = dataclasses.replace(desk_scenario(), seed=2968811710).with_rho_db(-40.0)
        for seed in seeds:
            ch, mask = trial_channels(sc, seed, 0, 0)
            yield sc, ch, ElementFits(*class_fits(sc.circuit), mask), seed

    def test_ao_builds_step_data_once_per_outer_iteration(self, monkeypatch):
        import collections

        counts = collections.Counter()
        self._counted(monkeypatch, counts, (ao, "_qp_phase_data"), (ao, "_power_fit_arrays"),
                      (ao, "amplitude_qp"))
        solves = iterations = 0
        for sc, ch, fits, seed in self._desk_trials(range(3)):
            counts.clear()
            init = random_init(sc, fits, np.random.default_rng(seed))
            res = run_ao(sc, ch, fits, init, j_alt=8)
            assert counts["_qp_phase_data"] == res.iterations, seed
            assert counts["_power_fit_arrays"] == res.iterations, seed
            solves += counts["amplitude_qp"]
            iterations += res.iterations
        assert solves > iterations   # the repair did re-solve

    def test_decoupled_designs_build_one_surrogate(self, monkeypatch):
        import collections

        from actris import benchmarks, do

        counts = collections.Counter()
        self._counted(monkeypatch, counts, (ao, "_power_fit_arrays"),
                      (do, "do_amplitude_max"), (benchmarks, "do_amplitude_max"))
        resolved = 0
        for sc, ch, fits, seed in self._desk_trials(range(3)):
            for run in (do.run_do, benchmarks.run_paido):
                counts.clear()
                res = run(sc, ch, fits, np.random.default_rng(seed))
                assert counts["_power_fit_arrays"] == 1, (run.__name__, seed)
                # both designs raise their amplitudes with the one greedy
                assert counts["do_amplitude_max"] >= res.design.repair_passes, (run.__name__, seed)
                resolved += res.design.repair_passes > 1
        assert resolved > 0


class TestAmplitudeWarmStart:
    """A QP started from any face of its box ends on the face a cold start
    ends on, with its bits; run_ao starts each solve from the one before."""

    @staticmethod
    def _stress_qp(seed):
        # the stress family: n from 2 to 40, a curvature of rank 1 to 4
        # (the real part of a complex rank-k form, as _qp_phase_data builds
        # it) plus a ridge from 1e-9 to 1e-1, random boxes and budgets, one
        # in ten at the lower corner's power, where a repair's floor sits
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 41))
        rank = int(rng.integers(1, 5))
        a = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        t = a @ a.conj().T / n + 10.0 ** rng.uniform(-9.0, -1.0) * np.eye(n)
        phasor = np.exp(1j * rng.uniform(0.0, TWO_PI, n))
        m = np.real(np.conj(phasor)[:, None] * t * phasor[None, :])
        q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c_lin = -2.0 * np.real(np.conj(phasor) * q)
        lower = rng.uniform(0.0, 1.0, n)
        upper = lower + rng.uniform(0.0, 1.0, n)
        slope = rng.uniform(0.1, 2.0, n)
        share = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 1.0)
        budget = float(share * slope @ (upper - lower))
        qp_data = (m, c_lin, 2.0 * float(np.linalg.eigvalsh(m)[-1]))
        return qp_data, (np.zeros(n), slope, lower, upper), budget, rng

    def test_starts_keep_the_cold_answer_bit_for_bit(self):
        long_random = 0
        for seed in range(600):
            qp_data, surrogate, budget, rng = self._stress_qp(seed)
            cold = amplitude_qp(qp_data, surrogate, budget)
            again = amplitude_qp(qp_data, surrogate, budget, cold.alpha)
            assert again.alpha.tobytes() == cold.alpha.tobytes(), seed
            assert again.iterations == 0, seed
            lower, upper = surrogate[2], surrogate[3]
            for _ in range(2):
                # starts inside the box and beyond it on either side
                start = lower + rng.uniform(-0.2, 1.2, lower.size) * (upper - lower)
                warm = amplitude_qp(qp_data, surrogate, budget, start)
                assert warm.alpha.tobytes() == cold.alpha.tobytes(), seed
                long_random += warm.iterations > cold.iterations
        # a random face can be a worse start than the lower corner, which is
        # why run_ao starts only from a previous solve
        assert long_random > 0

    def test_run_ao_starts_each_solve_from_the_previous_one(self, monkeypatch):
        solves = []
        qp = ao.amplitude_qp

        def recording(qp_data, surrogate, budget, start=None):
            solves.append((start, qp(qp_data, surrogate, budget, start)))
            return solves[-1][1]

        monkeypatch.setattr(ao, "amplitude_qp", recording)
        resolved = 0
        for sc, ch, fits, seed in TestDesignStepData._desk_trials(range(3)):
            solves.clear()
            res = run_ao(sc, ch, fits, random_init(sc, fits, np.random.default_rng(seed)),
                         j_alt=8)
            assert res.iterations >= 2 and len(solves) > res.iterations, seed
            assert solves[0][0] is None
            for (_, before), (start, _) in zip(solves, solves[1:]):
                assert start is before.alpha
            resolved += len(solves) - res.iterations
        assert resolved > 0


class TestDeadCascade:
    @pytest.mark.parametrize("hop", ["h_1", "h_2"])
    def test_every_scheme_reports_zero_with_a_valid_design(self, hop, fits_all_active):
        # with a hop zeroed nothing reaches the receiver; AO's zero combiner
        # stops it at its start instead of a singular amplitude QP
        from actris.constraints import validate_design
        from actris.channel import sample_channels
        from actris.harness import SCHEME_NAMES

        sc = desk_scenario()
        ch = sample_channels(sc, np.random.default_rng(3))
        dead = dataclasses.replace(ch, **{hop: np.zeros_like(getattr(ch, hop))})
        assert len(SCHEME_NAMES) == 6
        for k, scheme in enumerate(SCHEME_NAMES):
            rate, v, design, _ = run_scheme(scheme, sc, dead, fits_all_active,
                                            np.random.default_rng(k))
            assert rate == 0.0, scheme
            assert validate_design(sc, fits_all_active, v, design) == [], scheme


class TestRunAO:
    def test_returns_at_least_init_rate(self, fits_all_active, scenario_desk):
        rng = np.random.default_rng(51)
        from actris.channel import sample_channels
        from actris.constraints import validate_design

        ch = sample_channels(scenario_desk, rng)
        init = random_init(scenario_desk, fits_all_active, rng)
        assert validate_design(scenario_desk, fits_all_active, *init) == []
        init_rate = rate_lmmse(ch, init[0], init[1].gamma, scenario_desk)
        res = run_ao(scenario_desk, ch, fits_all_active, init, j_alt=5)
        assert res.rate_history[0] == init_rate   # AO scores the design it is handed
        assert res.rate >= init_rate - 1e-12

    def test_infinite_tolerance_stops_after_one_iteration(self, fits_all_active, scenario_desk):
        rng = np.random.default_rng(52)
        from actris.channel import sample_channels

        ch = sample_channels(scenario_desk, rng)
        init = random_init(scenario_desk, fits_all_active, rng)
        res = run_ao(scenario_desk, ch, fits_all_active, init, eps=np.inf, j_alt=20)
        assert res.iterations == 1

    @pytest.mark.parametrize("eps, tol", [(1e-3, 1e-5), (0.0, 1e-6), (0.5, 5e-3),
                                          (np.inf, np.inf)])
    def test_phase_solve_tolerance_follows_eps(
        self, monkeypatch, fits_all_active, scenario_desk, eps, tol
    ):
        # each phase step runs to max(eps / 100, 1e-6); at eps = inf every
        # gradient is within it, so the step returns its start
        import inspect

        from actris.channel import sample_channels

        rng = np.random.default_rng(53)
        ch = sample_channels(scenario_desk, rng)
        init = random_init(scenario_desk, fits_all_active, rng)
        signature = inspect.signature(rmo_phase_opt)
        calls = []

        def recording(*args, **kwargs):
            out = rmo_phase_opt(*args, **kwargs)
            calls.append((signature.bind(*args, **kwargs).arguments.get("tol"), out[1].size))
            return out

        monkeypatch.setattr(ao, "rmo_phase_opt", recording)
        res = run_ao(scenario_desk, ch, fits_all_active, init, eps=eps, j_alt=3)
        assert [t for t, _ in calls] == [tol] * res.iterations
        if eps == np.inf:
            assert calls[0][1] == 1   # the trace holds the start alone: no CG step

    def test_default_iteration_budget(self):
        import inspect

        assert inspect.signature(run_ao).parameters["j_alt"].default == 20

    def test_best_rate_nondecreasing_and_constraints(self, fits_all_active, scenario_desk):
        from actris.channel import sample_channels
        from actris.constraints import validate_design

        for seed in range(3):
            rng = np.random.default_rng(seed + 60)
            ch = sample_channels(scenario_desk, rng)
            init = random_init(scenario_desk, fits_all_active, rng)
            res = run_ao(scenario_desk, ch, fits_all_active, init, j_alt=8)
            best = np.maximum.accumulate(res.rate_history)
            assert np.all(np.diff(best) >= -1e-12)
            assert res.rate == pytest.approx(best[-1])
            assert validate_design(scenario_desk, fits_all_active, res.v, res.design) == []

    def test_starts_from_the_do_design_bit_for_bit(self):
        # paper size, where DO's precoder has fewer columns than d streams
        from actris.do import run_do

        sc = ScenarioConfig()
        ch, mask = trial_channels(sc, 2021, 0, 1)
        fits = ElementFits(*class_fits(sc.circuit), mask)
        do_res = run_do(sc, ch, fits, np.random.default_rng(1))
        assert do_res.v.shape[1] < sc.d
        pad = np.zeros((sc.m_t, sc.d - do_res.v.shape[1]), dtype=complex)
        v_padded = np.concatenate([do_res.v, pad], axis=1)
        res = run_ao(sc, ch, fits, (do_res.v, do_res.design), j_alt=1)
        assert res.rate_history[0] == rate_lmmse(ch, v_padded, do_res.design.gamma, sc)

    def test_rate_history_is_the_lmmse_rate_of_each_iterate(
        self, fits_all_active, scenario_desk, monkeypatch
    ):
        # one receiver solve per iterate: its SINRs give the iterate's rate
        # and its combiner starts the next outer iteration
        from actris import channel
        from actris.channel import sample_channels

        rng = np.random.default_rng(55)
        ch = sample_channels(scenario_desk, rng)
        init = random_init(scenario_desk, fits_all_active, rng)
        vs, gammas, solves = [init[0]], [init[1].gamma], []

        def counting(solve):
            def receiver(*args):
                solves.append(args)
                return solve(*args)
            return receiver

        def precoder(*args, update=ao.precoder_update):
            vs.append(update(*args))
            return vs[-1]

        def repair(*args, loop=ao.power_repair_loop):
            design = loop(*args)
            gammas.append(design.gamma)
            return design

        for module in (ao, channel):
            monkeypatch.setattr(module, "lmmse_receiver", counting(module.lmmse_receiver))
        monkeypatch.setattr(ao, "precoder_update", precoder)
        monkeypatch.setattr(ao, "power_repair_loop", repair)
        res = run_ao(scenario_desk, ch, fits_all_active, init, j_alt=8)
        assert res.iterations >= 2
        assert len(solves) == len(res.rate_history) == len(vs) == len(gammas)
        for rate, v, gamma in zip(res.rate_history, vs, gammas):
            assert rate == rate_lmmse(ch, v, gamma, scenario_desk)

    def test_start_over_the_surface_budget_raises(self, fits_all_active, scenario_desk):
        from actris.channel import sample_channels

        ch = sample_channels(scenario_desk, np.random.default_rng(54))
        phi = np.full(16, 5.9)
        _, upper = fits_all_active.bounds(phi)
        design0 = realizer(scenario_desk.circuit, fits_all_active, phi)(upper)
        assert design0.ris_power_w > scenario_desk.p_ris_w + POWER_TOL
        v0 = np.zeros((scenario_desk.m_t, scenario_desk.d), dtype=complex)
        with pytest.raises(ValueError, match="surface design violates the power budget"):
            run_ao(scenario_desk, ch, fits_all_active, (v0, design0))

    @pytest.mark.parametrize("p_ris_w", [0.375, 0.2])
    def test_random_start_is_one_relaxed_realization(self, monkeypatch, fits_all_active,
                                                      p_ris_w):
        # the random controls are realized once; at 0.2 W the relax moves
        # cells of that realization, at the desk budget it moves none
        from actris import reflection
        from actris.channel import sample_channels
        from actris.constraints import validate_design

        sc = desk_scenario(p_ris_w=p_ris_w)
        realized = []

        def recording(*args, make=reflection.realizer):
            realize = make(*args)

            def recorded(alpha):
                design = realize(alpha)
                realized.append((design.r.copy(), design.c.copy()))
                return design

            return recorded

        monkeypatch.setattr(reflection, "realizer", recording)
        rng = np.random.default_rng(56)
        ch = sample_channels(sc, rng)
        v0, design = random_init(sc, fits_all_active, rng)
        assert validate_design(sc, fits_all_active, v0, design) == []
        assert design.ris_power_w <= sc.p_ris_w + 1e-12
        (r, c), = realized
        moved = design.r != r
        assert moved.any() == (p_ris_w == 0.2)
        assert np.all(design.r[moved] > r[moved]) and np.array_equal(design.c, c)
        gamma = circuit.reflection(sc.circuit, design.r, design.c)
        assert np.array_equal(design.gamma, gamma)
        res = run_ao(sc, ch, fits_all_active, (v0, design), j_alt=1)
        assert res.rate_history[0] == rate_lmmse(ch, v0, gamma, sc)


def _reference_rmo(obj, phasor0, max_iters=300, tol=1e-6, rungs=None):
    """Reference phase CG: the step-by-step Armijo backtracking loop that the
    stacked step ladder of rmo_phase_opt replaces, with the same gradient
    and stall stops. The first line search starts at unit step, each later
    one one rung above the rung the previous one took. rungs, if given,
    collects the rung each line search took (None where none passed)."""
    phasor = np.asarray(phasor0, dtype=complex)
    phasor = phasor / np.abs(phasor)
    n = phasor.size
    s = max(np.abs(obj.t).max(), np.abs(obj.q).max(), 1e-300)
    work = PhaseObjective(t=obj.t / s, q=obj.q / s, z2=obj.z2, z1=obj.z1, z=obj.z)

    def value(p):
        g = work.gamma_of(p)
        return float((g.conj() @ (work.t @ g)).real - 2.0 * (g.conj() @ work.q).real)

    val = value(phasor)
    trace = [val]
    rgrad = ao._tangent_project(phase_gradient(work, phasor), phasor, np.conj(phasor))
    direction, last = -rgrad, None
    for it in range(max_iters):
        gnorm2 = np.vdot(rgrad, rgrad).real
        if np.sqrt(gnorm2) <= tol:
            break
        slope = np.vdot(rgrad, direction).real
        if slope >= 0.0:
            direction = -rgrad
            slope = -gnorm2
        start = 0 if last is None else max(last - 1, 0)
        step = ao.BACKTRACK ** start
        new_phasor = None
        for rung in range(start, 40):
            cand = phasor + step * direction
            cand = cand / np.abs(cand)
            cand_val = value(cand)
            if cand_val <= val + ao.ARMIJO_C * step * slope:
                new_phasor, last = cand, rung
                break
            step *= ao.BACKTRACK
        if rungs is not None:
            rungs.append(None if new_phasor is None else rung)
        if new_phasor is None:
            break
        prev_rgrad = rgrad
        phasor = new_phasor
        val = cand_val
        trace.append(val)
        if len(trace) > ao.STALL_WINDOW and trace[-1 - ao.STALL_WINDOW] - val <= tol * abs(val):
            break
        pc = np.conj(phasor)
        rgrad = ao._tangent_project(phase_gradient(work, phasor), phasor, pc)
        beta = np.vdot(rgrad, rgrad - ao._tangent_project(prev_rgrad, phasor, pc)).real / max(
            gnorm2, 1e-300
        )
        if beta < 0.0 or (it + 1) % n == 0:
            direction = -rgrad
        else:
            direction = -rgrad + beta * ao._tangent_project(direction, phasor, pc)
    return phasor, s * np.asarray(trace)


def _reference_project(v, lower, upper, w, b):
    """Reference box-halfspace projection: an ascending scan over the
    distinct breakpoints of the budget multiplier."""
    x = np.clip(v, lower, upper)
    if w @ x <= b + 1e-15 * max(abs(b), 1.0):
        return x
    pos = w > 0.0
    if w[pos] @ lower[pos] + w[~pos] @ np.clip(v[~pos], lower[~pos], upper[~pos]) > b + 1e-12 * max(abs(b), 1.0):
        raise InfeasibleBudgetError("halfspace projection infeasible at the lower box corner")

    def hval(mu):
        return w @ np.clip(v - mu * w, lower, upper) - b

    bp = np.concatenate([(v[pos] - upper[pos]) / w[pos], (v[pos] - lower[pos]) / w[pos]])
    bp = np.unique(bp[bp > 0.0])
    lo_mu, hi_mu = 0.0, bp[-1] if bp.size else 0.0
    h_lo = hval(lo_mu)
    for mu in bp:
        h = hval(mu)
        if h <= 0.0:
            hi_mu = mu
            break
        lo_mu, h_lo = mu, h
    h_hi = hval(hi_mu)
    if h_hi > 0.0:
        mu_star = hi_mu
    else:
        denom = h_lo - h_hi
        frac = h_lo / denom if denom > 0.0 else 0.0
        mu_star = lo_mu + frac * (hi_mu - lo_mu)
    return np.clip(v - mu_star * w, lower, upper)


def _reference_face_minimizer(x, m, c_lin, lower, upper, w, b):
    """Reference face solve: the exact QP minimizer on the face of x, with
    cells on a box bound fixed and the budget row bordered in when the
    box-only point breaks the budget or does not exist; None if the point is
    infeasible or the face singular."""
    free = (x > lower) & (x < upper)
    if not free.any():
        return None
    fixed = ~free
    budget_tol = 1e-15 * max(abs(b), 1.0)
    m_ff = 2.0 * m[np.ix_(free, free)]
    rhs = -(c_lin[free] + 2.0 * (m[np.ix_(free, fixed)] @ x[fixed]))
    y = x.copy()
    try:
        y[free] = np.linalg.solve(m_ff, rhs)
        box_only = w @ y <= b + budget_tol
    except np.linalg.LinAlgError:
        box_only = False
    if not box_only:
        w_f = w[free]
        bordered = np.block([[m_ff, w_f[:, None]], [w_f, 0.0]])
        try:
            y[free] = np.linalg.solve(bordered, np.append(rhs, b - w[fixed] @ x[fixed]))[:-1]
        except np.linalg.LinAlgError:
            return None
    if np.any(y < lower) or np.any(y > upper) or w @ y > b + budget_tol:
        return None
    return y


def _reference_qp(obj, phi, fits, scenario, budget, max_iters=5000, tol=1e-6, face=False):
    """Reference amplitude QP: the monotone accelerated projected-gradient
    loop, stopped by the same fixed-point test. With face=True, each check
    that misses tol also tries the exact minimizer on the iterate's face and
    ends on it when it does not raise the objective and passes the test."""
    phasor = np.exp(1j * np.asarray(phi, dtype=float))
    m = np.real(np.conj(phasor)[:, None] * obj.t * phasor[None, :])
    c_lin = -2.0 * np.real(np.conj(phasor) * obj.q)
    p_min, slope, lower, upper = ao._power_fit_arrays(fits, phi, scenario.circuit)
    b = budget - float(p_min.sum() - slope @ lower)
    lip = 2.0 * np.linalg.eigvalsh(m)[-1]
    span = float(np.max(upper - lower))
    scale = max(lip * span, np.abs(c_lin).max(), 1e-300)
    step = 1.0 / max(lip, scale / max(span, 1e-12))

    def fval(x):
        return float(x @ (m @ x) + c_lin @ x)

    def pg_step(x):
        return _reference_project(x - step * (2.0 * (m @ x) + c_lin), lower, upper, slope, b)

    x = _reference_project(0.5 * (lower + upper), lower, upper, slope, b)
    fx = fval(x)
    x_prev = x.copy()
    t_momentum = 1.0
    for it in range(1, max_iters + 1):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2))
        cand = pg_step(x + ((t_momentum - 1.0) / t_next) * (x - x_prev))
        f_cand = fval(cand)
        if f_cand > fx:
            cand = pg_step(x)
            f_cand = fval(cand)
            t_next = 1.0
            if f_cand > fx:
                cand, f_cand = x, fx
        x_prev, x, fx = x, cand, f_cand
        t_momentum = t_next
        if it % 10 == 0 or (face and it == max_iters):
            if np.max(np.abs(x - pg_step(x))) <= tol:
                break
            y = _reference_face_minimizer(x, m, c_lin, lower, upper, slope, b) if face else None
            if y is None:
                continue
            change = float((y - x) @ (m @ (y + x) + c_lin))
            if change <= 0.0 and np.max(np.abs(y - pg_step(y))) <= tol:
                x, fx = y, fx + change
                break
    return ao.QpResult(alpha=x, objective=fx, kkt_residual=float(np.max(np.abs(x - pg_step(x)))),
                       iterations=it)


def _positive_definite(obj, phi):
    """Whether the amplitude QP's curvature at phases phi is positive
    definite in floating point: lambda_min > n eps lambda_max."""
    phasor = np.exp(1j * np.asarray(phi, dtype=float))
    eig = np.linalg.eigvalsh(np.real(np.conj(phasor)[:, None] * obj.t * phasor[None, :]))
    return eig[0] > phasor.size * np.finfo(float).eps * eig[-1]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


SIZES = {
    "desk": desk_scenario(),
    "paper": ScenarioConfig().with_rho_db(-30.0),
}


def _trial_objectives(sc, active_fit, passive_fit, seed):
    """AO, DO (cascade norm) and PAIDO (z2 = 0) phase objectives of one
    harness trial, plus the trial's fits and channels."""
    ch, mask = trial_channels(sc, seed, 0, 0)
    fits = ElementFits.from_classes(active_fit, passive_fit, mask)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((sc.m_t, sc.d)) + 1j * rng.standard_normal((sc.m_t, sc.d))
    v *= np.sqrt(sc.p_t_w / np.trace(v.conj().T @ v).real)
    alpha_bar = np.where(mask, rng.uniform(0.0, 1.0, sc.n), 0.0)
    gamma = model_gamma(fits, rng.uniform(0.0, TWO_PI, sc.n), alpha_bar)
    y, sig = lmmse_receiver(ch, v, gamma, sc)
    v = precoder_update(ch, y, sig, gamma, sc)
    cascade = cascade_norm_objective(ch, fits, np.ones(sc.n))
    zeros = np.zeros(sc.n, dtype=complex)
    objectives = {
        "AO": build_phase_objective(ch, v, y, sig, fits, alpha_bar, sc),
        "DO": cascade,
        # PAIDO freezes the amplitudes at their maxima: linear in the phasors
        "PAIDO": PhaseObjective(t=cascade.t, q=cascade.q, z2=zeros,
                                z1=fits.beta_max.astype(complex), z=zeros),
    }
    return objectives, fits


class TestSolverOracle:
    """The stacked step ladder must give the bits of the step-by-step
    reference above."""

    def test_objective_stack_rows_match_single_designs(self, active_fit, passive_fit):
        # the step ladder scores stacks of every height from 1 to MAX_BACKTRACKS
        for size, sc in SIZES.items():
            objectives, _ = _trial_objectives(sc, active_fit, passive_fit, 5)
            rng = np.random.default_rng(1)
            for obj, height in itertools.product(objectives.values(),
                                                 (ao.LADDER, 1, 2, 13, ao.MAX_BACKTRACKS)):
                stack = np.exp(1j * rng.uniform(0.0, TWO_PI, (height, sc.n)))
                vals = obj.value(stack)
                assert vals.shape == (height,)
                for row, val in zip(stack, vals):
                    single = obj.value(row)
                    assert isinstance(single, float)
                    assert single == val
                assert _same_bits(obj.value(stack[None]), vals[None])
                # the gradient's t @ gamma comes back with the stack, per row
                vals_tg, tg = obj.value(stack, with_tg=True)
                assert _same_bits(vals_tg, vals)
                for row, row_tg in zip(stack, tg):
                    assert _same_bits(row_tg, obj.t @ obj.gamma_of(row))
                    assert _same_bits(phase_gradient(obj, row, row_tg), phase_gradient(obj, row))

    def test_step_ladder_is_the_halving_sequence(self):
        steps = ao._STEP_LADDER.ravel()
        expected = [1.0]
        while len(expected) < ao.MAX_BACKTRACKS:
            expected.append(expected[-1] * ao.BACKTRACK)
        assert steps.tolist() == expected

    def test_ladder_stacks_follow_the_last_accepted_rung(self, active_fit, passive_fit,
                                                         monkeypatch):
        # a call's first stack holds rungs [0, LADDER); each later search's
        # first stack holds [max(rung - 1, 0), rung + 2) after an acceptance
        # at rung, and later stacks LADDER rungs; the paper-size DO and
        # PAIDO objectives accept near rung 11, so some searches run past
        # their first stack and some take the doubled step at its top
        heights = []
        value = PhaseObjective.value

        def recording(self, phasor, with_tg=False):
            if phasor.ndim > 1:
                heights.append(phasor.shape[0])
            return value(self, phasor, with_tg)

        monkeypatch.setattr(PhaseObjective, "value", recording)
        sc = SIZES["paper"]
        past_first = doubled = 0
        for seed in (3, 17):
            objectives, _ = _trial_objectives(sc, active_fit, passive_fit, seed)
            rng = np.random.default_rng(seed)
            for name in ("DO", "PAIDO"):
                ph0 = np.exp(1j * rng.uniform(0.0, TWO_PI, sc.n))
                heights.clear()
                ph, trace = rmo_phase_opt(objectives[name], ph0)
                rungs = []
                ph_ref, trace_ref = _reference_rmo(objectives[name], ph0, rungs=rungs)
                assert _same_bits(ph, ph_ref) and _same_bits(trace, trace_ref), (seed, name)
                expected, last = [], None
                for rung in rungs:
                    top = ao.MAX_BACKTRACKS - 1 if rung is None else rung
                    lo, hi = (0, ao.LADDER) if last is None else (max(last - 1, 0), last + 2)
                    past_first += rung is not None and rung >= hi
                    doubled += last is not None and rung is not None and rung < last
                    while lo <= top:
                        expected.append(min(hi, ao.MAX_BACKTRACKS) - lo)
                        lo, hi = hi, hi + ao.LADDER
                    last = top
                assert heights == expected, (seed, name)
        assert past_first > 0 and doubled > 0

    @pytest.mark.parametrize("size", sorted(SIZES))
    def test_no_search_scores_below_one_rung_above_the_last(self, size, active_fit,
                                                            passive_fit, monkeypatch):
        # every slice of the step ladder a call takes is one stack of
        # candidates; a search's stacks run on from one another, and a new
        # search begins at a slice that does not continue the last one
        slices = []

        class RecordingLadder(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, slice):
                    slices.append((key.start, key.stop))
                return super().__getitem__(key).view(np.ndarray)

        monkeypatch.setattr(ao, "_STEP_LADDER", ao._STEP_LADDER.view(RecordingLadder))
        sc = SIZES[size]
        for seed in (3, 17):
            objectives, _ = _trial_objectives(sc, active_fit, passive_fit, seed)
            rng = np.random.default_rng(seed)
            for name, obj in objectives.items():
                ph0 = np.exp(1j * rng.uniform(0.0, TWO_PI, sc.n))
                slices.clear()
                rmo_phase_opt(obj, ph0)
                rungs = []
                _reference_rmo(obj, ph0, rungs=rungs)
                searches = []
                for lo, hi in slices:
                    if searches and lo == searches[-1][-1][1]:
                        searches[-1].append((lo, hi))
                    else:
                        searches.append([(lo, hi)])
                assert len(searches) == len(rungs), (size, seed, name)
                assert searches[0][0] == (0, ao.LADDER)
                for last, search in zip(rungs, searches[1:]):
                    assert search[0][0] == max(last - 1, 0), (size, seed, name)
                    assert min(lo for lo, _ in search) >= last - 1

    @pytest.mark.parametrize("size", sorted(SIZES))
    def test_phase_cg_matches_sequential_line_search(self, size, active_fit, passive_fit):
        sc = SIZES[size]
        for seed in (3, 17):
            objectives, _ = _trial_objectives(sc, active_fit, passive_fit, seed)
            rng = np.random.default_rng(seed)
            for name, obj in objectives.items():
                ph0 = np.exp(1j * rng.uniform(0.0, TWO_PI, sc.n))
                ph, trace = rmo_phase_opt(obj, ph0)
                ph_ref, trace_ref = _reference_rmo(obj, ph0)
                assert _same_bits(ph, ph_ref), (size, seed, name)
                assert _same_bits(trace, trace_ref), (size, seed, name)

    def test_phase_cg_matches_on_short_caps_and_tolerances(
        self, active_fit, passive_fit, monkeypatch
    ):
        objectives, _ = _trial_objectives(SIZES["desk"], active_fit, passive_fit, 29)
        rng = np.random.default_rng(29)
        cap = ao.MAX_CG_ITERS
        cases = ((1, {}), (7, {}), (cap, {"tol": 1e-2}), (cap, {"tol": 1e-12}))
        for obj in objectives.values():
            ph0 = np.exp(1j * rng.uniform(0.0, TWO_PI, 16))
            for max_iters, kwargs in cases:
                monkeypatch.setattr(ao, "MAX_CG_ITERS", max_iters)
                ph, trace = rmo_phase_opt(obj, ph0, **kwargs)
                ph_ref, trace_ref = _reference_rmo(obj, ph0, max_iters=max_iters, **kwargs)
                assert _same_bits(ph, ph_ref) and _same_bits(trace, trace_ref), (max_iters, kwargs)


@st.composite
def small_phase_objectives(draw):
    """(n, t kind, q kind, z kind, z scale, seed) of a small phase objective;
    _small_phase_case builds it."""
    return (draw(st.integers(1, 12)),
            draw(st.sampled_from(("definite", "indefinite", "zero"))),
            draw(st.sampled_from(("random", "zero"))),
            draw(st.sampled_from(("random", "constant"))),   # constant: z2 = z1 = 0
            draw(st.floats(1e-2, 1e2)),
            draw(st.integers(0, 2**32 - 1)))


def _small_phase_case(case):
    """The objective and start phasors a small_phase_objectives draw names."""
    n, t_kind, q_kind, z_kind, z_scale, seed = case
    rng = np.random.default_rng(seed)

    def cnormal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    g = cnormal(n, n)
    t = {"definite": g @ g.conj().T / n + 1e-3 * np.eye(n), "indefinite": 0.5 * (g + g.conj().T),
         "zero": np.zeros((n, n), dtype=complex)}[t_kind]
    q = cnormal(n) if q_kind == "random" else np.zeros(n, dtype=complex)
    z2, z1, z = z_scale * cnormal(n), z_scale * cnormal(n), z_scale * cnormal(n)
    if z_kind == "constant":
        z2, z1 = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    obj = PhaseObjective(t=t, q=q, z2=z2, z1=z1, z=z)
    return obj, np.exp(1j * rng.uniform(0.0, TWO_PI, n))


# the first search of this call passes no rung of its first stack
_NO_PASS_IN_FIRST_STACK = (12, "definite", "random", "random", 100.0, 4)
# a later search of this call starts at rung 0 after an acceptance at rung 0 or 1
_RESTART_AT_RUNG_0 = (12, "definite", "random", "random", 10.0, 1)


class TestPhaseSolverProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(small_phase_objectives())
    @example((4, "zero", "zero", "random", 1.0, 3))
    @example((4, "definite", "zero", "random", 1.0, 4))
    @example((4, "indefinite", "random", "constant", 1.0, 5))
    @example((1, "definite", "random", "random", 1.0, 6))
    @example(_NO_PASS_IN_FIRST_STACK)
    @example(_RESTART_AT_RUNG_0)
    def test_matches_the_reference_and_descends(self, case):
        obj, ph0 = _small_phase_case(case)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                ph, trace = rmo_phase_opt(obj, ph0)
                ph_ref, trace_ref = _reference_rmo(obj, ph0)
        assert _same_bits(ph, ph_ref) and _same_bits(trace, trace_ref)
        assert np.all(np.diff(trace) <= 0.0)

    def test_named_cases_reach_the_ladder_corners(self):
        rungs = []
        _reference_rmo(*_small_phase_case(_NO_PASS_IN_FIRST_STACK), rungs=rungs)
        assert rungs[0] is not None and rungs[0] >= ao.LADDER
        rungs = []
        _reference_rmo(*_small_phase_case(_RESTART_AT_RUNG_0), rungs=rungs)
        assert any(last is not None and last <= 1 and rung is not None
                   for last, rung in zip(rungs, rungs[1:]))


class TestPhaseStallStop:
    def test_paper_size_stops_early_near_the_gradient_stop_value(
        self, active_fit, passive_fit, monkeypatch
    ):
        max_iters = ao.MAX_CG_ITERS
        sc = SIZES["paper"]
        runs = []
        for seed in (3, 17):
            objectives, _ = _trial_objectives(sc, active_fit, passive_fit, seed)
            rng = np.random.default_rng(seed)
            for name, obj in objectives.items():
                ph0 = np.exp(1j * rng.uniform(0.0, TWO_PI, sc.n))
                runs.append((seed, name, obj, ph0, rmo_phase_opt(obj, ph0)[1]))
        # a window longer than any trace leaves only the gradient-norm stop
        monkeypatch.setattr(ao, "STALL_WINDOW", max_iters + 1)
        for seed, name, obj, ph0, trace in runs:
            assert trace.size - 1 < max_iters, (seed, name)
            _, full = rmo_phase_opt(obj, ph0)
            assert abs(trace[-1] - full[-1]) <= 1e-4 * abs(full[-1]), (seed, name)


@pytest.fixture
def pivot_log(monkeypatch):
    """The budget b of every _pivot_face call while the test runs: the QP's
    own finite b, then b = inf for each fixed-multiplier box solve."""
    log = []
    pivot_face = ao._pivot_face

    def recording(x, m, c_lin, lower, upper, w, b):
        log.append(b)
        return pivot_face(x, m, c_lin, lower, upper, w, b)

    monkeypatch.setattr(ao, "_pivot_face", recording)
    return log


def _ao_qp_cases(sc, active_fit, passive_fit, seed):
    """The AO objective of a harness trial at its CG phases, with the full
    budget and two lowered budgets of power-repair re-solves."""
    objectives, fits = _trial_objectives(sc, active_fit, passive_fit, seed)
    obj = objectives["AO"]
    phasor, _ = rmo_phase_opt(obj, np.exp(1j * np.zeros(sc.n)))
    phi = np.angle(phasor) % TWO_PI
    p_min, _, _, _ = ao._power_fit_arrays(fits, phi, sc.circuit)
    floor = float(p_min.sum())
    budgets = (sc.p_ris_w, floor + 0.5 * (sc.p_ris_w - floor), floor + 0.1 * (sc.p_ris_w - floor))
    return obj, phi, fits, budgets


def _reference_face_solve(free, x, m, c_lin, w, b):
    """Reference face solve with boolean np.ix_ blocks and an np.block
    bordered matrix."""
    fixed = ~free
    m_ff = 2.0 * m[np.ix_(free, free)]
    rhs = -(c_lin[free] + 2.0 * (m[np.ix_(free, fixed)] @ x[fixed]))
    y = x.copy()
    y[free] = np.linalg.solve(m_ff, rhs)
    if w @ y <= b + 1e-15 * max(abs(b), 1.0):
        return y, 0.0
    w_f = w[free]
    bordered = np.block([[m_ff, w_f[:, None]], [w_f, 0.0]])
    sol = np.linalg.solve(bordered, np.append(rhs, b - w[fixed] @ x[fixed]))
    y[free] = sol[:-1]
    return y, float(sol[-1])


class TestAmplitudeFaceSolve:
    """Block principal pivoting must end every AO amplitude QP at a point
    certified to rounding level, on the face and with the bits of the
    projected-gradient loop's face solve, and never above the objective of
    that loop alone."""

    @pytest.mark.parametrize("n", [16, 64, 144])
    def test_face_solve_matches_the_ix_and_block_layout(self, n):
        # a chained boolean index m[free][:, fixed] is F-ordered, and its
        # matvec moves bits; the index-array blocks must not
        rng = np.random.default_rng(n)
        bordered_faces = 0
        for _ in range(12):
            a = rng.standard_normal((n, n))
            m = a @ a.T / n + 0.1 * np.eye(n)
            c_lin = rng.standard_normal(n)
            w = np.where(rng.random(n) < 0.1, 0.0, rng.uniform(0.1, 2.0, n))
            x = rng.uniform(0.0, 1.0, n)
            free = rng.random(n) < rng.uniform(0.1, 0.9)
            free[rng.integers(n)] = True
            box_only, _ = _reference_face_solve(free, x, m, c_lin, w, np.inf)
            for b in (w @ box_only + 1.0, w @ box_only - 1.0, -(w @ box_only)):
                y_ref, mu_ref = _reference_face_solve(free, x, m, c_lin, w, b)
                y, mu = ao._face_solve(free, x, m, c_lin, w, b)
                assert _same_bits(y, y_ref) and _same_bits(mu, mu_ref), (n, b)
                bordered_faces += mu_ref != 0.0
        assert bordered_faces >= 12

    @pytest.mark.parametrize("size", sorted(SIZES))
    def test_ao_objectives_converge_below_the_cap(self, size, active_fit, passive_fit, pivot_log):
        sc = SIZES[size]
        for seed in (3, 17):
            obj, phi, fits, budgets = _ao_qp_cases(sc, active_fit, passive_fit, seed)
            for budget in budgets:
                pivot_log.clear()
                res = _qp(obj, phi, fits, sc, budget=budget)
                ref = _reference_qp(obj, phi, fits, sc, budget)
                case = (size, seed, budget)
                # rounding level: amplitudes reach about 13, residuals 1.3e-12
                assert res.kkt_residual <= 1e-10, case
                assert res.objective <= ref.objective + 1e-12 * abs(ref.objective), case
                assert np.inf not in pivot_log, case   # no box solve
                face = _reference_qp(obj, phi, fits, sc, budget, face=True)
                assert _same_bits(res.alpha, face.alpha), case

    def test_over_budget_vertex_frees_its_upper_cells(self, active_fit, passive_fit, pivot_log):
        # from the all-upper vertex, which breaks the budget, the pivoting
        # must fix the budget multiplier, solve the box problem at it and go
        # on from that point's face to the QP's answer
        sc = SIZES["desk"]
        obj, phi, fits, budgets = _ao_qp_cases(sc, active_fit, passive_fit, 3)
        m, c_lin, _ = ao._qp_phase_data(obj, phi)
        p_min, slope, lower, upper = ao._power_fit_arrays(fits, phi, sc.circuit)
        b = budgets[1] - float(p_min.sum() - slope @ lower)
        assert slope @ upper > b
        y, _, pivots = ao._pivot_face(upper, m, c_lin, lower, upper, slope, b)
        assert pivot_log[:2] == [b, np.inf] and pivots > 1
        expected = _qp(obj, phi, fits, sc, budget=budgets[1]).alpha
        assert np.max(np.abs(y - expected)) <= 1e-12

    def test_ill_conditioned_curvature_ends_on_the_pivot_path(self, fits_all_active, scenario_desk):
        # low-rank curvature plus a small ridge: whole-set pivots cycle here,
        # and the single-index pivots end these runs
        n = 16
        for seed in (9, 11, 14):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((n, rng.integers(1, 5)))
            g = g + 1j * rng.standard_normal(g.shape)
            obj = PhaseObjective(t=g @ g.conj().T / n + 1e-3 * np.eye(n),
                                 q=3.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)),
                                 z2=None, z1=None, z=None)
            phi = rng.uniform(0.0, TWO_PI, n)
            p_min, slope, lower, upper = ao._power_fit_arrays(fits_all_active, phi,
                                                              scenario_desk.circuit)
            floor = float(p_min.sum())
            budget = floor + rng.uniform(0.05, 0.9) * float(slope @ (upper - lower))
            res = _qp(obj, phi, fits_all_active, scenario_desk, budget=budget)
            assert res.kkt_residual <= 1e-12, seed
            ref = _reference_qp(obj, phi, fits_all_active, scenario_desk, budget)
            assert res.objective <= ref.objective + 1e-12 * abs(ref.objective), seed

    def test_cycling_pivots_end_through_the_fixed_multiplier_box_solve(
        self, monkeypatch, pivot_log
    ):
        # criterion 10's desk AO run at -40 dB, trial 39: the pivoting of
        # most of its QPs reaches an over-budget vertex or repeats a state,
        # so it fixes the budget multiplier and solves the box problem at it
        # (b = inf); every QP must still end at a certified face point. The
        # amplitudes reach about 30.6, and the residuals stay below 1e-13.
        sc = dataclasses.replace(desk_scenario(), seed=10).with_rho_db(-40.0)
        ch, mask = trial_channels(sc, sc.seed, 0, 39)
        fits = ElementFits(*class_fits(sc.circuit), mask)
        qp, results = ao.amplitude_qp, []

        def recording_qp(*args):
            results.append(qp(*args))
            return results[-1]

        monkeypatch.setattr(ao, "amplitude_qp", recording_qp)
        run_scheme("AO", sc, ch, fits, _scheme_rng(sc.seed, 0, 39, 0))
        assert np.inf in pivot_log and results
        for res in results:
            assert res.kkt_residual <= 1e-12

    def test_singular_curvature_is_rejected(self, fits_all_active, scenario_desk):
        # zero curvature, or the real part of a rank-1 t (rank 2 at most),
        # leaves the pivoting without a finite rule: the QP data are refused
        rng = np.random.default_rng(41)
        n = 16
        phi = rng.uniform(0.0, TWO_PI, n)
        zeros = np.zeros(n, dtype=complex)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p_min, slope, lower, upper = ao._power_fit_arrays(fits_all_active, phi,
                                                          scenario_desk.circuit)
        budget = float(p_min.sum()) + 0.3 * float(slope @ (upper - lower))
        for t in (np.zeros((n, n), dtype=complex), np.outer(g, g.conj())):
            obj = PhaseObjective(t=t, q=rng.standard_normal(n) + 1j * rng.standard_normal(n),
                                 z2=zeros, z1=zeros + 1.0, z=zeros)
            with pytest.raises(ConvergenceError, match="not positive definite: no Cholesky factor"):
                _qp(obj, phi, fits_all_active, scenario_desk, budget=budget)
        # handed such a curvature directly, the pivoting raises rather than loops
        b = budget - float(p_min.sum() - slope @ lower)
        with pytest.raises(ConvergenceError, match="fixed multiplier met a singular face"):
            ao._pivot_face(0.5 * (lower + upper), np.zeros((n, n)), -np.ones(n), lower, upper,
                           slope, b)


@st.composite
def small_amplitude_qps(draw):
    n = draw(st.integers(1, 10))
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    active = np.array(draw(flags))             # passive cells: zero slope, no span
    collapsed = np.array(draw(flags))          # active cells with no amplitude span
    rank = draw(st.integers(0, n))             # rank-deficient curvature
    budget = draw(st.one_of(
        st.just("corner"),                     # budget on the lower corner
        st.just("inactive"),                   # budget above the upper corner
        st.floats(0.0, 1.0),                   # share of the corner-to-corner power
    ))
    seed = draw(st.integers(0, 2**32 - 1))
    return active, collapsed, rank, budget, seed


class TestAmplitudeFaceSolveProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(small_amplitude_qps())
    @example((np.zeros(3, dtype=bool), np.zeros(3, dtype=bool), 3, 0.5, 1))  # empty free set
    @example((np.ones(4, dtype=bool), np.ones(4, dtype=bool), 4, 0.5, 2))    # all spans collapsed
    @example((np.ones(5, dtype=bool), np.zeros(5, dtype=bool), 5, "corner", 3))
    @example((np.ones(5, dtype=bool), np.zeros(5, dtype=bool), 0, "inactive", 4))
    # the projected-gradient loop alone ran to its cap here; pivoting ends it
    @example((np.ones(2, dtype=bool), np.zeros(2, dtype=bool), 1, 0.6075303578376887, 1134172256))
    def test_feasible_converged_and_no_worse_than_pg(self, active_fit, passive_fit, problem):
        active, collapsed, rank, budget, seed = problem
        n = active.size
        rng = np.random.default_rng(seed)
        # an active class whose span beta_min - delta_min vanishes where the
        # cosine term does, at phase pi - theta
        pinned = dataclasses.replace(active_fit, beta_min=active_fit.delta_min)
        phi = np.where(collapsed, (np.pi - active_fit.theta) % TWO_PI, rng.uniform(0.0, TWO_PI, n))
        # every active cell takes the pinned class when one of them is collapsed
        fits = ElementFits(pinned if (active & collapsed).any() else active_fit,
                           passive_fit, active)
        g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        z2, z1, z = fits.coefficients(np.ones(n))
        obj = PhaseObjective(t=g @ g.conj().T / n,
                             q=rng.standard_normal(n) + 1j * rng.standard_normal(n),
                             z2=z2, z1=z1, z=z)
        sc = desk_scenario(n=n, n_act=int(active.sum()))
        p_min, slope, lower, upper = ao._power_fit_arrays(fits, phi, sc.circuit)
        assert not slope[~active | collapsed].any()
        floor = float(p_min.sum())
        top = floor + float(slope @ (upper - lower))
        if budget == "corner":
            budget = floor
        elif budget == "inactive":
            budget = top + 1.0
        else:
            budget = floor + budget * (top - floor)
        # the reference loop's stopping tolerance, and the bound on the
        # residual of the pivoting's exact face point
        tol = 1e-12
        if not _positive_definite(obj, phi):
            with pytest.raises(ConvergenceError, match="not positive definite"):
                _qp(obj, phi, fits, sc, budget=budget)
            return

        res = _qp(obj, phi, fits, sc, budget=budget)
        ref = _reference_qp(obj, phi, fits, sc, budget, tol=tol)
        x = res.alpha
        assert np.all(x >= lower) and np.all(x <= upper)
        # the budget row as the solver holds it; b carries the lower-corner
        # power of cells with narrow spans and steep slopes, so its rounding
        # scales with |b|
        b = budget - (floor - float(slope @ lower))
        assert slope @ x <= b + 1e-12 * max(abs(b), 1.0)
        assert res.kkt_residual <= tol
        assert res.objective <= ref.objective + 1e-12 * abs(ref.objective)
