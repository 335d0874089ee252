import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actris.channel import ScenarioConfig, effective_channel, rate_lmmse, sample_channels
from actris.do import (
    cascade_norm_objective,
    do_amplitude_max,
    run_do,
    svd_precoder_combiner,
    waterfill,
)
from actris.ao import rmo_phase_opt, run_ao
from actris.circuit import diode_band, power_consumption
from actris.constraints import validate_design
from actris.errors import InfeasibleBudgetError
from actris.harness import load_design, run_scheme, save_design
from actris.reflection import ElementFits, Realizer, _linear_power
from conftest import desk_scenario
from test_channel import random_channels, reference_spectral_efficiency

TWO_PI = 2.0 * np.pi


def _reference_waterfill(gains, p_t):
    """Reference: the water level bisected until the powers sum to within
    1e-12 max(p_t, 1) W of p_t, then the powers rescaled onto p_t."""
    gains = np.asarray(gains, dtype=float)
    pos = gains > 0.0
    if not pos.any():
        return np.zeros_like(gains)

    def total(eta):
        return float(np.sum(np.maximum(1.0 / eta - 1.0 / gains[pos], 0.0)))

    hi = float(gains.max())
    lo = 1.0 / (p_t + np.sum(1.0 / gains[pos]))
    for _ in range(200):
        eta = 0.5 * (lo + hi)
        t = total(eta)
        if abs(t - p_t) <= 1e-12 * max(p_t, 1.0):
            break
        if t > p_t:
            lo = eta
        else:
            hi = eta
    p = np.zeros_like(gains)
    p[pos] = np.maximum(1.0 / eta - 1.0 / gains[pos], 0.0)
    if p.sum() > 0.0:
        p *= p_t / p.sum()
    return p


@st.composite
def waterfill_problems(draw):
    """(gains, p_t): 1 to 8 streams, some of zero gain, noise floors 1/g up to
    1e9 times the strongest one, p_t from 5e-6 to 30 W, and p_t over the
    strongest floor (its SNR) from 1e-3 to 1e6."""
    n = draw(st.integers(1, 8))
    zero = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    spread = np.array(draw(st.lists(st.floats(0.0, 9.0), min_size=n, max_size=n)))
    p_t = 10.0 ** draw(st.floats(np.log10(5e-6), np.log10(30.0)))
    snr = 10.0 ** draw(st.floats(-3.0, 6.0))
    strongest = spread[~zero].min() if (~zero).any() else 0.0
    gains = np.where(zero, 0.0, snr / p_t * 10.0 ** (strongest - spread))
    return gains, p_t


class TestWaterfill:
    def test_single_stream_gets_everything(self):
        assert waterfill(np.array([3.0]), 2.5)[0] == pytest.approx(2.5, abs=1e-12)

    def test_equal_gains_split_evenly(self):
        p = waterfill(np.full(4, 2.0), 1.0)
        assert np.allclose(p, 0.25, atol=1e-10)

    def test_disparate_gains_low_budget(self):
        gains = np.array([10.0, 0.01])
        p = waterfill(gains, 0.05)
        assert p[1] == 0.0
        assert p[0] == pytest.approx(0.05, abs=1e-12)

    def test_matches_grid_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            gains = rng.uniform(0.01, 10.0, 3)
            p_t = rng.uniform(0.1, 5.0)
            p = waterfill(gains, p_t)
            assert p.sum() == pytest.approx(p_t, abs=1e-8)

            def rate(alloc):
                return np.sum(np.log2(1.0 + gains * alloc))

            # grid enumeration over the simplex
            best = 0.0
            g1 = np.linspace(0, p_t, 1000)
            for a in g1:
                rest = p_t - a
                b = np.linspace(0, rest, 200)
                vals = (
                    np.log2(1 + gains[0] * a)
                    + np.log2(1 + gains[1] * b)
                    + np.log2(1 + gains[2] * (rest - b))
                )
                best = max(best, vals.max())
            assert rate(p) >= best - 1e-6

    def test_zero_gains(self):
        assert np.all(waterfill(np.zeros(3), 1.0) == 0.0)

    def test_no_budget_gives_zeros(self):
        gains = np.array([3.0, 0.0, 0.5])
        for p_t in (0.0, -1.0):
            assert np.all(waterfill(gains, p_t) == 0.0), p_t

    def test_negative_gain_raises(self):
        with pytest.raises(ValueError):
            waterfill(np.array([1.0, -1e-3]), 1.0)

    def test_budget_below_the_floor_rounding_powers_nothing(self):
        # p_t + 1/g rounds to 1/g: the strongest stream's power rounds to
        # zero, and no other stream takes the budget
        p = waterfill(np.array([1e-20, 2e-20]), 1e-5)
        assert np.all(p == 0.0)

    def test_complementary_slackness(self):
        rng = np.random.default_rng(2)
        gains = rng.uniform(0.05, 5.0, 6)
        p_t = 0.8
        p = waterfill(gains, p_t)
        levels = p + 1.0 / gains
        eta = levels[p > 0].mean()
        assert np.allclose(levels[p > 0], eta, rtol=1e-12)
        assert np.all(1.0 / gains[p == 0.0] >= eta - 1e-9)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(problem=waterfill_problems())
    @example(problem=(np.zeros(4), 1.0))
    @example(problem=(np.full(8, 2.0), 5e-6))   # equal floors: all streams share p_t
    def test_matches_the_bisection(self, problem):
        gains, p_t = problem
        # the reference stops within 1e-12 max(p_t, 1) W of the budget
        tol = 1e-9 * p_t + 1e-12 * max(p_t, 1.0)
        assert np.all(np.abs(waterfill(gains, p_t) - _reference_waterfill(gains, p_t)) <= tol)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(problem=waterfill_problems())
    def test_kkt_conditions(self, problem):
        gains, p_t = problem
        p = waterfill(gains, p_t)
        assert np.all(p >= 0.0)
        if not np.any(gains > 0.0):
            assert np.all(p == 0.0)
            return
        on = p > 0.0
        levels = p[on] + 1.0 / gains[on]
        # one water level over the powered streams, at or below every other floor
        assert np.ptp(levels) <= 1e-12 * levels.max()
        off = ~on & (gains > 0.0)
        assert np.all(1.0 / gains[off] >= levels.max() * (1.0 - 1e-12))
        assert abs(p.sum() - p_t) <= 1e-12 * p_t
        # the powered streams are the strongest ones
        assert gains[on].min() >= np.max(gains[~on], initial=0.0)


class TestSvdPrecoderCombiner:
    def _instance(self, seed, d=4):
        sc = ScenarioConfig(m_t=4, m_r=4, d=d, n=8, n_act=8, p_t_w=1.0,
                            sigma2_w=1e-3, f_r=2.0, f_s=1.5)
        rng = np.random.default_rng(seed)
        ch = random_channels(rng, 4, 4, 8)
        gamma = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        return sc, ch, gamma

    def test_diagonalization(self):
        sc, ch, gamma = self._instance(3)
        v, w, gains, powers = svd_precoder_combiner(ch, gamma, sc)
        heff = effective_channel(ch, gamma)
        prod = w.conj().T @ heff @ (v / np.sqrt(powers[powers > 0.0])[None, :])
        off = prod - np.diag(np.diag(prod))
        assert np.linalg.norm(off) / np.linalg.norm(prod) < 1e-9

    def test_zero_surface_zero_rate(self):
        sc, ch, _ = self._instance(4)
        v, w, gains, powers = svd_precoder_combiner(ch, np.zeros(8), sc)
        assert np.all(gains == 0.0)
        assert reference_spectral_efficiency(ch, v, w, np.zeros(8), sc) == 0.0

    def test_parallel_channel_rate_identity(self):
        # with the eigenmode precoder/combiner the full expression reduces to
        # the per-eigenchannel form
        sc, ch, gamma = self._instance(5)
        v, w, gains, powers = svd_precoder_combiner(ch, gamma, sc)
        keep = powers > 0.0
        expect = np.sum(np.log2(1.0 + gains[keep] * powers[keep]))
        got = reference_spectral_efficiency(ch, v, w, gamma, sc)
        assert got == pytest.approx(expect, abs=1e-8)

    def test_transmit_power_budget(self):
        sc, ch, gamma = self._instance(6)
        v, _, _, powers = svd_precoder_combiner(ch, gamma, sc)
        assert np.trace(v.conj().T @ v).real == pytest.approx(sc.p_t_w, abs=1e-8)
        assert powers.sum() == pytest.approx(sc.p_t_w, abs=1e-8)


class TestDoPhaseOpt:
    def test_single_element_matches_grid(self, fits_all_active, active_fit, passive_fit):
        rng = np.random.default_rng(7)
        fits = ElementFits.from_classes(active_fit, passive_fit, np.ones(1, dtype=bool))
        sc = ScenarioConfig(m_t=2, m_r=2, d=1, n=1, n_act=1, p_t_w=1.0,
                            sigma2_w=1e-3, f_r=2.0, f_s=1.5)
        ch = random_channels(rng, 2, 2, 1, direct=True)
        obj = cascade_norm_objective(ch, fits, np.ones(1))
        grid = np.linspace(0, TWO_PI, 200_000, endpoint=False)
        gam = obj.z2 * np.exp(2j * grid) + obj.z1 * np.exp(1j * grid) + obj.z
        vals = (np.conj(gam) * (obj.t[0, 0] * gam)).real - 2 * (np.conj(gam) * obj.q[0]).real
        best = vals.min()
        worst = vals.max()
        cands = []
        for s in range(4):
            ph, trace = rmo_phase_opt(obj, np.array([np.exp(1j * s * np.pi / 2)]))
            cands.append(trace[-1])
        assert min(cands) <= best + 1e-3 * (worst - best)

    def test_descent_trace_nonincreasing(self, fits_all_active):
        rng = np.random.default_rng(8)
        sc = desk_scenario()
        ch = sample_channels(sc, rng)
        obj = cascade_norm_objective(ch, fits_all_active, np.ones(16))
        ph0 = np.exp(1j * rng.uniform(0, TWO_PI, 16))
        _, trace = rmo_phase_opt(obj, ph0)
        assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_beats_random_phases(self, fits_all_active):
        rng = np.random.default_rng(9)
        sc = desk_scenario()
        ch = sample_channels(sc, rng)
        # DO's phase step: the cascade norm at full amplitude
        obj = cascade_norm_objective(ch, fits_all_active, np.ones(16))
        phasor, _ = rmo_phase_opt(obj, np.exp(1j * rng.uniform(0, TWO_PI, 16)))
        phi_opt = np.angle(phasor) % TWO_PI
        lower, upper = fits_all_active.bounds(phi_opt)
        norm_opt = np.linalg.norm(
            effective_channel(ch, upper * np.exp(1j * phi_opt))
        )
        wins = 0
        for _ in range(100):
            phi = rng.uniform(0, TWO_PI, 16)
            _, up = fits_all_active.bounds(phi)
            if norm_opt >= np.linalg.norm(effective_channel(ch, up * np.exp(1j * phi))):
                wins += 1
        assert wins == 100


def _loop_greedy(surrogate, budget, raisable):
    """Reference: the cell-by-cell greedy over an explicit raisable mask."""
    p_min, slope, lower, upper = surrogate
    if p_min.sum() > budget + 1e-12:
        raise InfeasibleBudgetError("below the floor")
    alpha = lower.copy()
    remaining = budget - p_min.sum()
    raisable = np.flatnonzero(raisable)
    for n in raisable[np.argsort(slope[raisable], kind="stable")]:
        cost = slope[n] * (upper[n] - lower[n])
        if cost <= remaining:
            alpha[n] = upper[n]
            remaining -= cost
        else:
            alpha[n] = lower[n] + remaining / slope[n]
            break
    return alpha


class TestDoAmplitudeMax:
    def test_matches_the_cell_loop_bit_for_bit(self, params_va, active_fit, passive_fit):
        # the cosine box (mixed mask, cells pinned where the band collapses)
        # and PAIDO's constant box, whose equal slopes need the stable order;
        # the loop raises what the callers marked raisable
        rng = np.random.default_rng(15)
        band_lo = diode_band(params_va)[0]
        for trial in range(40):
            fits = ElementFits.from_classes(active_fit, passive_fit, rng.uniform(size=16) < 0.7)
            phi = rng.uniform(0, TWO_PI, 16)
            phi[:2] = 2.7856
            cosine = Realizer(params_va, fits, phi).surrogate
            const = _linear_power(params_va, fits.active_mask, fits.delta_min, fits.beta_max,
                                  band_lo)
            for surrogate in (cosine, const):
                p_min, slope, lower, upper = surrogate
                raisable = fits.active_mask & (upper - lower > 1e-12) & (slope > 0.0)
                full = float(slope @ (upper - lower))
                for budget in p_min.sum() + np.array([0.0, *rng.uniform(0, full, 6), 2 * full]):
                    want = _loop_greedy(surrogate, budget, raisable)
                    assert np.array_equal(do_amplitude_max(surrogate, budget), want)

    def test_infeasible_budget_message_names_a_microwatt_budget(self, params_va,
                                                               fits_all_active):
        # a fixed-point format printed a 1e-6 W budget as "0.0000 W"
        phi = np.random.default_rng(11).uniform(0, TWO_PI, 16)
        surrogate = Realizer(params_va, fits_all_active, phi).surrogate
        floor = float(surrogate[0].sum())
        with pytest.raises(InfeasibleBudgetError) as err:
            do_amplitude_max(surrogate, budget=1e-6)
        assert str(err.value) == f"minimum amplitudes already need {floor:.6g} W > budget 1e-06 W"

    def test_ample_budget_hits_upper_bounds(self, params_va, fits_all_active):
        rng = np.random.default_rng(10)
        phi = rng.uniform(0, TWO_PI, 16)
        _, upper = fits_all_active.bounds(phi)
        surrogate = Realizer(params_va, fits_all_active, phi).surrogate
        alpha = do_amplitude_max(surrogate, budget=1e6)
        assert np.allclose(alpha, upper, atol=1e-9)

    def test_greedy_matches_enumeration(self, params_va, active_fit, passive_fit):
        rng = np.random.default_rng(11)
        fits = ElementFits.from_classes(active_fit, passive_fit, np.ones(4, dtype=bool))
        for trial in range(5):
            phi = rng.uniform(0, TWO_PI, 4)
            surrogate = Realizer(params_va, fits, phi).surrogate
            p_min, slope, lower, upper = surrogate
            budget = p_min.sum() + rng.uniform(0.2, 0.8) * (slope @ (upper - lower))
            alpha = do_amplitude_max(surrogate, budget=budget)
            assert p_min.sum() + slope @ (alpha - lower) <= budget + 1e-9
            grids = np.meshgrid(*[np.linspace(lower[i], upper[i], 25) for i in range(4)],
                                indexing="ij")
            pts = np.stack([g.ravel() for g in grids])
            cost = p_min.sum() + slope @ (pts - lower[:, None])
            feas = cost <= budget
            best = pts[:, feas].sum(axis=0).max()
            assert alpha.sum() >= best - 1e-6

    def test_marginal_budget_raises_cheapest_slope_first(self, params_va, fits_all_active):
        rng = np.random.default_rng(12)
        phi = rng.uniform(0, TWO_PI, 16)
        surrogate = Realizer(params_va, fits_all_active, phi).surrogate
        p_min, slope, lower, upper = surrogate
        cheapest = np.argmin(np.where(slope > 0, slope, np.inf))
        budget = p_min.sum() + slope[cheapest] * (upper[cheapest] - lower[cheapest])
        alpha = do_amplitude_max(surrogate, budget=budget)
        assert alpha[cheapest] == pytest.approx(upper[cheapest], abs=1e-9)
        others = np.arange(16) != cheapest
        assert np.allclose(alpha[others], lower[others], atol=1e-9)

    def test_infeasible_budget(self, params_va, fits_all_active):
        rng = np.random.default_rng(13)
        phi = rng.uniform(0, TWO_PI, 16)
        with pytest.raises(InfeasibleBudgetError):
            do_amplitude_max(Realizer(params_va, fits_all_active, phi).surrogate, budget=1e-4)


class TestRunDo:
    def test_output_is_valid_and_feasible_init(self, fits_all_active, scenario_desk):
        rng = np.random.default_rng(14)
        ch = sample_channels(scenario_desk, rng)
        res = run_do(scenario_desk, ch, fits_all_active, np.random.default_rng(15))
        assert validate_design(scenario_desk, fits_all_active, res.v, res.design) == []
        # AO starts from this DO design; both are scored at the delivered reflection
        do_rate, ao_rate = (run_scheme(scheme, scenario_desk, ch, fits_all_active,
                                       np.random.default_rng(15), j_alt=2)[0]
                            for scheme in ("DO", "AO"))
        assert ao_rate >= do_rate - 1e-9

    def test_cell_above_the_diode_band_is_flagged(self, fits_all_active, scenario_desk):
        # the cell keeps its target gamma but delivers less than the exact
        # lower bound at the phase it delivers
        params = scenario_desk.circuit
        ch = sample_channels(scenario_desk, np.random.default_rng(14))
        res = run_do(scenario_desk, ch, fits_all_active, np.random.default_rng(15))
        design = res.design
        i = int(np.flatnonzero(design.r < 0.0)[0])
        design.r[i] = 0.5 * diode_band(params)[1]
        design.ris_power_w = float(power_consumption(design.r[design.active_mask], params).sum())
        problems = validate_design(scenario_desk, fits_all_active, res.v, design)
        assert len(problems) == 1 and problems[0].startswith(f"element {i}: amplitude")

    def test_zero_gain_streams_give_a_precoder_without_columns(
        self, fits_all_active, scenario_desk, tmp_path
    ):
        # with a dark transmit hop the surface passes nothing: every stream
        # gain is zero, so waterfilling powers no stream
        sc = scenario_desk
        ch = sample_channels(sc, np.random.default_rng(16))
        dark = dataclasses.replace(ch, h_1=np.zeros_like(ch.h_1))
        res = run_do(sc, dark, fits_all_active, np.random.default_rng(17))
        assert res.v.shape == (sc.m_t, 0)
        assert np.all(res.stream_powers == 0.0)
        assert rate_lmmse(dark, res.v, res.design.gamma, sc) == 0.0
        assert validate_design(sc, fits_all_active, res.v, res.design) == []
        # AO pads it with zero columns up to d streams
        ao_res = run_ao(sc, dark, fits_all_active, (res.v, res.design), j_alt=0)
        assert ao_res.v.shape == (sc.m_t, sc.d) and not ao_res.v.any()
        assert ao_res.rate == 0.0
        path = tmp_path / "design.json"
        save_design(path, res.design, res.v)
        _, v = load_design(path)
        assert v.shape == (sc.m_t, 0)

    def test_stream_powers_meet_budget(self, fits_all_active, scenario_desk):
        rng = np.random.default_rng(15)
        ch = sample_channels(scenario_desk, rng)
        res = run_do(scenario_desk, ch, fits_all_active, rng)
        assert res.stream_powers.sum() == pytest.approx(scenario_desk.p_t_w, abs=1e-8)
