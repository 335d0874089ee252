"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Desk-scale statistical criteria use fixed seeds, so every run is
reproducible. The full-scale convergence reproduction is gated behind
ACTRIS_PAPER_SCALE=1.
"""

import dataclasses

import numpy as np
import pytest

from actris import circuit
from actris.ao import (
    PhaseObjective,
    amplitude_qp,
    build_phase_objective,
    phase_gradient,
    random_init,
    run_ao,
)
from actris.benchmarks import budget_from_ao
from actris.channel import ScenarioConfig, lmmse_receiver, sample_channels
from actris.constraints import validate_design
from actris.do import do_amplitude_max, run_do, waterfill
from actris.harness import (
    ExperimentSpec,
    SchemeVariant,
    export_csv,
    fig_presets,
    n_full_power,
    run_experiment,
    summarize,
    trial_channels,
    _scenario_for,
)
from actris.numerics import lambert_w0
from actris.reflection import (
    ElementFits,
    approx_amplitude_bounds,
    class_fits,
    exact_bound_curves,
    fit_amplitude_model,
)
from conftest import desk_scenario
from test_numerics import fd_gradient

ACCEPTANCE_LOG = []
TWO_PI = 2.0 * np.pi


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion:>2}: {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LOG.append(line)
    print(line)
    assert passed, line


def mean_rates(rows):
    """Mean rate per (scheme, sweep value) over the successful rows, and a
    `failed=k/n` label per group for the report next to each mean."""
    rates, failed = {}, {}
    for entry in summarize(rows):
        key = (entry["scheme"], entry["sweep_value"])
        rates[key] = entry["mean_rate_bps_hz"]
        failed[key] = f"failed={entry['failed']}/{entry['trials'] + entry['failed']}"
    return rates, failed


def test_criterion_01_circuit_endpoints(params_va):
    r1 = circuit.stable_resistance(1.0, params_va)
    r3 = circuit.stable_resistance(3.0, params_va)
    p1 = circuit.power_consumption(r1, params_va)
    p3 = circuit.power_consumption(r3, params_va)
    ok = (
        -11.2 <= r1 <= -10.9
        and -1.93 <= r3 <= -1.87
        and abs(p1 - 26.5e-3) / 26.5e-3 <= 0.03
        and abs(p3 - 8e-3) / 8e-3 <= 0.03
    )
    report(1, ok, f"band [{r1:.3f}, {r3:.3f}] ohm, powers {p1*1e3:.2f}/{p3*1e3:.2f} mW")


def test_criterion_02_resistance_roundtrip(params_va):
    ms = np.linspace(1.0, 3.0, 200)
    err = max(
        abs(circuit.m_from_resistance(circuit.stable_resistance(m, params_va), params_va) - m)
        for m in ms
    )
    report(2, err <= 1e-9, f"max |m roundtrip error| = {err:.2e}")


def test_criterion_03_phase_realization(params_va):
    rng = np.random.default_rng(2024)
    band = (circuit.stable_resistance(1.0, params_va), circuit.stable_resistance(3.0, params_va))
    draws = np.array([(rng.uniform(*band), rng.uniform(0.3e-12, 20e-12)) for _ in range(1000)])
    r, c = draws.T
    g = circuit.reflection(params_va, r, c)
    phi = np.angle(g) % TWO_PI
    c_back = circuit.phase_capacitance(params_va, r, phi)
    realized = np.angle(circuit.reflection(params_va, r, c_back)) % TWO_PI
    worst_phase = np.max(np.abs((realized - phi + np.pi) % TWO_PI - np.pi))
    r_inv, c_inv, _ = circuit.circuit_from_gamma(params_va, g)
    worst_gamma = np.max(np.abs(circuit.reflection(params_va, r_inv, c_inv) - g))
    ok = worst_phase <= 1e-6 and worst_gamma <= 1e-9
    report(3, ok, f"phase err {worst_phase:.2e} rad, reflection roundtrip err {worst_gamma:.2e}")


def test_criterion_04_amplitude_model_tightness(params_fig2):
    phis, lower, upper = exact_bound_curves(params_fig2, "active", grid_size=3600)
    fit = fit_amplitude_model(params_fig2, "active", grid_size=3600)
    ap_lo, ap_up = approx_amplitude_bounds(fit, phis)
    ok_mask = np.isfinite(upper)
    e_up = np.nanmax(np.abs(ap_up - upper)[ok_mask]) / (fit.beta_max - fit.beta_min)
    e_lo = np.nanmax(np.abs(ap_lo - lower)[ok_mask]) / (fit.delta_max - fit.delta_min)
    peak_gap = abs(int(np.nanargmax(upper)) - int(np.nanargmax(lower)))
    peak_gap = min(peak_gap, 3600 - peak_gap)
    ok = e_up <= 0.10 and e_lo <= 0.10 and peak_gap <= 1
    report(4, ok, f"fit errors {100*e_up:.2f}%/{100*e_lo:.2f}% of range, peak offset {peak_gap} steps")


def test_criterion_05_peak_amplification(params_va):
    _, _, upper = exact_bound_curves(params_va, "active", grid_size=3600)
    peak = np.nanmax(upper)
    ok = abs(peak - 30.0) / 30.0 <= 0.05
    report(5, ok, f"max amplitude over phases = {peak:.3f} (target 30 within 5%)")


def test_criterion_06_gradient_correctness(active_fit, passive_fit):
    from test_channel import random_channels

    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(5000 + seed)
        mask = rng.uniform(size=8) < 0.8
        mask[0] = True
        fits = ElementFits.from_classes(active_fit, passive_fit, mask)
        sc = ScenarioConfig(m_t=4, m_r=4, d=3, n=8, n_act=int(mask.sum()),
                            p_t_w=1.0, sigma2_w=1e-3, f_r=2.0, f_s=1.5)
        ch = random_channels(rng, 4, 4, 8, direct=True)
        v = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        gamma = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y, sig = lmmse_receiver(ch, v, gamma, sc)
        obj = build_phase_objective(ch, v, y, sig, fits, rng.uniform(0, 1, 8), sc)
        s = max(np.abs(obj.t).max(), np.abs(obj.q).max())
        obj = PhaseObjective(t=obj.t / s, q=obj.q / s, z2=obj.z2, z1=obj.z1, z=obj.z)
        ph = np.exp(1j * rng.uniform(0, TWO_PI, 8))
        analytic = phase_gradient(obj, ph)
        numeric = fd_gradient(obj.value, ph, h=1e-6)
        worst = max(worst, np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric))
    report(6, worst <= 1e-5, f"max relative gradient error {worst:.2e} over 50 instances")


def test_criterion_07_kronecker_free_assembly(active_fit, passive_fit):
    from test_ao import explicit_phase_objective
    from test_channel import random_channels, selector_matrix
    from actris.channel import effective_channel

    worst_t = worst_q = worst_casc = 0.0
    for n in (2, 4, 8):
        rng = np.random.default_rng(7000 + n)
        mask = np.ones(n, dtype=bool)
        fits = ElementFits.from_classes(active_fit, passive_fit, mask)
        sc = ScenarioConfig(m_t=4, m_r=3, d=2, n=n, n_act=n, p_t_w=1.0,
                            sigma2_w=1e-3, f_r=2.0, f_s=1.5)
        ch = random_channels(rng, 3, 4, n, direct=True)
        gamma = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        v *= np.sqrt(sc.p_t_w / np.trace(v.conj().T @ v).real)
        hcal = np.kron(ch.h_1.T, ch.h_2) @ selector_matrix(n)
        casc = hcal @ gamma + ch.h_d.reshape(-1, order="F")
        direct = effective_channel(ch, gamma).reshape(-1, order="F")
        worst_casc = max(worst_casc, np.linalg.norm(casc - direct) / np.linalg.norm(casc))
        y, sig = lmmse_receiver(ch, v, gamma, sc)
        ab = rng.uniform(0, 1, n)
        fast = build_phase_objective(ch, v, y, sig, fits, ab, sc)
        full = explicit_phase_objective(ch, v, y, sig, fits, ab, sc)
        worst_t = max(worst_t, np.linalg.norm(fast.t - full.t) / np.linalg.norm(full.t))
        worst_q = max(worst_q, np.linalg.norm(fast.q - full.q) / np.linalg.norm(full.q))
    ok = worst_casc <= 1e-9 and worst_t <= 1e-9 and worst_q <= 1e-9
    report(7, ok, f"cascade {worst_casc:.1e}, quadratic {worst_t:.1e}, linear {worst_q:.1e}")


def test_criterion_08_ao_soundness(fits_all_active, scenario_desk):
    repair_counts = []
    ok_monotone = True
    ok_constraints = True
    for trial in range(50):
        ch, mask = trial_channels(scenario_desk, 7, 0, trial)
        fits = ElementFits(*class_fits(scenario_desk.circuit), mask)
        rng = np.random.default_rng(8000 + trial)
        do_res = run_do(scenario_desk, ch, fits, rng)
        res = run_ao(scenario_desk, ch, fits, (do_res.v, do_res.design), j_alt=20)
        best = np.maximum.accumulate(res.rate_history)
        if not np.all(np.diff(best) >= -1e-12):
            ok_monotone = False
        if validate_design(scenario_desk, fits, res.v, res.design):
            ok_constraints = False
        repair_counts.append(res.repair_passes_max)
    repair_counts = np.asarray(repair_counts)
    frac4 = float(np.mean(repair_counts <= 4))
    ok = ok_monotone and ok_constraints and repair_counts.max() <= 8 and frac4 >= 0.90
    report(8, ok, (
        f"monotone={ok_monotone}, constraints={ok_constraints}, "
        f"repair passes max {repair_counts.max()}, <=4 on {100*frac4:.0f}% of trials"
    ))


def _init_benefit(scenario, trials, j_fast, j_slow, seed):
    spec = ExperimentSpec(
        scenario=scenario,
        sweep_kind="rho_db",
        sweep_values=(scenario.rho_db,),
        variants=(
            SchemeVariant("AO", "AO-do-init", j_alt=j_fast),
            SchemeVariant("AO-random-init", "AO-random-init", j_alt=j_slow),
        ),
        trials=trials,
        threads=2,
    )
    rates, failed = mean_rates(run_experiment(spec))
    value = spec.sweep_values[0]
    return (
        f"{rates[('AO-do-init', value)]:.3f} ({failed[('AO-do-init', value)]})",
        f"{rates[('AO-random-init', value)]:.3f} ({failed[('AO-random-init', value)]})",
        rates[("AO-do-init", value)] >= rates[("AO-random-init", value)],
    )


def test_criterion_09_initialization_benefit():
    scenario = dataclasses.replace(desk_scenario(), seed=9)
    fast, slow, ok = _init_benefit(scenario, trials=50, j_fast=4, j_slow=20, seed=9)
    report(9, ok, f"DO-init@4 mean {fast} vs random-init@20 mean {slow} bps/Hz")


@pytest.mark.paper_scale
def test_criterion_09_paper_scale():
    for n, p_ris in ((64, 1.5), (100, 2.32)):
        scenario = ScenarioConfig(n=n, n_act=n, p_ris_w=p_ris, seed=90 + n)
        fast, slow, ok = _init_benefit(scenario, trials=200, j_fast=4, j_slow=60, seed=90 + n)
        report(9, ok, f"paper N={n}: DO-init@4 {fast} vs random@60 {slow}")


def test_criterion_10_scheme_ordering():
    scenario = dataclasses.replace(desk_scenario(), seed=10)
    spec = ExperimentSpec(
        scenario=scenario,
        sweep_kind="rho_db",
        sweep_values=(-40.0, -30.0, -20.0),
        variants=tuple(SchemeVariant(s, s) for s in ("AO", "DO", "PAIDO", "PSO", "GA")),
        trials=100,
        threads=2,
    )
    rates, failed = mean_rates(run_experiment(spec))
    ok = True
    details = []
    for rho in (-40.0, -30.0, -20.0):
        ao, do = rates[("AO", rho)], rates[("DO", rho)]
        paido = rates[("PAIDO", rho)]
        meta = max(rates[("PSO", rho)], rates[("GA", rho)])
        ok = ok and (ao >= do >= paido >= meta)
        f = {s: failed[(s, rho)] for s in ("AO", "DO", "PAIDO", "PSO", "GA")}
        details.append(
            f"rho={rho:.0f}: AO {ao:.2f} ({f['AO']}) >= DO {do:.2f} ({f['DO']}) >= "
            f"PAIDO {paido:.2f} ({f['PAIDO']}) >= meta {meta:.2f} "
            f"(PSO {f['PSO']}, GA {f['GA']})"
        )
    report(10, ok, "; ".join(details))


def test_criterion_10_gap_trend_paper_dimensions():
    # the decoupled design's low-SNR handicap (its phase stage maximizes the
    # cascade norm, a high-SNR proxy) only materializes when the cascade can
    # spread over many receive modes, so the trend is measured at the
    # reference antenna dimensions
    scenario = ScenarioConfig(seed=1010)
    gaps = []
    sems = []
    for rho in (-40.0, -30.0, -20.0):
        sc = scenario.with_rho_db(rho)
        per_trial = []
        for t in range(15):
            ch, mask = trial_channels(sc, sc.seed, 0, t)
            fits = ElementFits(*class_fits(sc.circuit), mask)
            from actris.harness import run_scheme, _scheme_rng

            r_do, _, _, _ = run_scheme("DO", sc, ch, fits, _scheme_rng(sc.seed, 0, t, 1))
            r_ao, _, _, _ = run_scheme("AO", sc, ch, fits, _scheme_rng(sc.seed, 0, t, 0))
            per_trial.append(r_ao - r_do)
        arr = np.asarray(per_trial)
        gaps.append(arr.mean())
        sems.append(arr.std(ddof=1) / np.sqrt(arr.size))
    slack = [1.5 * np.hypot(sems[i], sems[i + 1]) for i in range(2)]
    ok = all(gaps[i] >= gaps[i + 1] - slack[i] for i in range(2))
    report(10, ok, (
        "AO-DO gap vs rho at reference dimensions: "
        + ", ".join(f"{g:.3f}+-{s:.3f}" for g, s in zip(gaps, sems))
    ))


def test_criterion_11_surface_noise_distance_effect():
    base = dataclasses.replace(
        desk_scenario(), seed=11, cascade_ref_d_rx_ris_m=4.0
    ).with_rho_db(-30.0)
    spec = ExperimentSpec(
        scenario=base,
        sweep_kind="d_rx_ris_m",
        sweep_values=(0.8, 1.6, 2.4, 4.0),
        variants=tuple(SchemeVariant(s, s) for s in ("AO", "DO", "PAIDO")),
        trials=80,
        threads=2,
    )
    rows = run_experiment(spec)
    rates, failed = mean_rates(rows)
    by_key = {}
    for r in rows:
        by_key[(r.scheme, r.sweep_value, r.trial)] = r.rate_bps_hz
    gaps = []
    sems = []
    for d in (0.8, 1.6, 2.4, 4.0):
        per_trial = np.array([
            by_key[("AO", d, t)] - by_key[("DO", d, t)] for t in range(spec.trials)
        ])
        gaps.append(per_trial.mean())
        sems.append(per_trial.std(ddof=1) / np.sqrt(per_trial.size))
    # each scheme's rate saturates: it changes by under 2 % from d = 2.4 to 4.0
    change = {
        s: abs(rates[(s, 4.0)] - rates[(s, 2.4)]) / rates[(s, 2.4)] for s in ("AO", "DO", "PAIDO")
    }
    sat_ok = all(c < 0.02 for c in change.values())
    # nonincreasing within the matched-pair sampling error of the plateau
    mono_ok = all(
        gaps[i] >= gaps[i + 1] - 1.5 * np.hypot(sems[i], sems[i + 1]) for i in range(3)
    )
    ok = mono_ok and sat_ok
    report(11, ok, (
        f"AO-DO gaps by distance {['%.3f+-%.3f' % (g, s) for g, s in zip(gaps, sems)]}, "
        "saturation |r(4.0)-r(2.4)|/r(2.4) "
        + ", ".join(f"{s} {100 * c:.2f}%" for s, c in change.items())
        + f" (bound 2%) ok={sat_ok}; "
        + "; ".join(
            f"{s} " + ", ".join(
                f"d={d}: {rates[(s, d)]:.3f} ({failed[(s, d)]})" for d in spec.sweep_values
            )
            for s in ("AO", "DO", "PAIDO")
        )
    ))


def test_criterion_12_power_element_tradeoff():
    params = circuit.CircuitParams()
    nfp = n_full_power(0.9, params)
    nfp_ok = abs(nfp - 34) <= 1
    spec = fig_presets("fig7", scale="desk", seed=12)
    spec = dataclasses.replace(spec, trials=6, threads=2)
    p_min = circuit.power_consumption(circuit.stable_resistance(3.0, params), params)

    rates = {"all": [], "nfp12": []}
    min_band_ok = True
    for rule, key in ((spec.variants[0], "all"), (spec.variants[1], "nfp12")):
        scenario, j_alt = _scenario_for(spec, rule, 144.0)
        for trial in range(spec.trials):
            ch, mask = trial_channels(scenario, spec.scenario.seed, 0, trial)
            fits = ElementFits(*class_fits(scenario.circuit), mask)
            rng = np.random.default_rng(1200 + trial)
            do_res = run_do(scenario, ch, fits, rng)
            res = run_ao(scenario, ch, fits, (do_res.v, do_res.design), j_alt=8)
            rates[key].append(res.rate)
            if key == "all":
                powers = circuit.power_consumption(
                    res.design.r[res.design.active_mask], params
                )
                p_max_band = circuit.power_consumption(
                    circuit.stable_resistance(1.0, params), params
                )
                pinned = (
                    np.mean(powers <= 1.1 * p_min) >= 0.90
                    and np.mean(powers) <= 1.1 * p_min
                    and powers.max() < p_max_band
                )
                if not pinned:
                    min_band_ok = False
    mean_all = float(np.mean(rates["all"]))
    mean_12 = float(np.mean(rates["nfp12"]))
    ok = nfp_ok and min_band_ok and mean_all < mean_12
    report(12, ok, (
        f"N_fp={nfp}, all-active N=144 mean {mean_all:.3f} < 1.2N_fp mean {mean_12:.3f}, "
        f"min-band powers ok={min_band_ok}"
    ))


def test_criterion_13_solver_unit_oracles(params_va, active_fit, passive_fit, fits_all_active, scenario_desk):
    rng = np.random.default_rng(13)
    # waterfilling vs grid enumeration
    ok_wf = True
    for _ in range(5):
        gains = rng.uniform(0.01, 8.0, 3)
        p_t = rng.uniform(0.5, 3.0)
        p = waterfill(gains, p_t)
        best = 0.0
        for a in np.linspace(0, p_t, 400):
            rest = p_t - a
            b = np.linspace(0, rest, 200)
            vals = (np.log2(1 + gains[0] * a) + np.log2(1 + gains[1] * b)
                    + np.log2(1 + gains[2] * (rest - b)))
            best = max(best, float(vals.max()))
        if np.sum(np.log2(1 + gains * p)) < best - 1e-6:
            ok_wf = False

    # amplitude QP vs dense grid at N=2
    fits2 = ElementFits.from_classes(active_fit, passive_fit, np.ones(2, dtype=bool))
    from actris.ao import _power_fit_arrays, _qp_phase_data

    ok_qp = True
    for trial in range(3):
        phi = rng.uniform(0, TWO_PI, 2)
        t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        t = t @ t.conj().T
        q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z2, z1, z = fits2.coefficients(np.ones(2))
        obj = PhaseObjective(t=t, q=q, z2=z2, z1=z1, z=z)
        budget = 0.05
        res = amplitude_qp(_qp_phase_data(obj, phi), _power_fit_arrays(fits2, phi, params_va),
                           budget)
        phasor = np.exp(1j * phi)
        m = np.real(np.conj(phasor)[:, None] * t * phasor[None, :])
        c_lin = -2.0 * np.real(np.conj(phasor) * q)
        p_min, slope, lower, upper = _power_fit_arrays(fits2, phi, params_va)
        best = np.inf
        for a1 in np.linspace(lower[0], upper[0], 301):
            a2 = np.linspace(lower[1], upper[1], 301)
            feas = p_min.sum() + slope[0] * (a1 - lower[0]) + slope[1] * (a2 - lower[1]) <= budget
            a2 = a2[feas]
            if a2.size == 0:
                continue
            pts = np.stack([np.full(a2.size, a1), a2])
            vals = np.einsum("in,ij,jn->n", pts, m, pts) + c_lin @ pts
            best = min(best, float(vals.min()))
        if res.objective > best + 1e-3 * max(1.0, abs(best)):
            ok_qp = False

    # greedy amplitude maximization vs N=4 enumeration
    fits4 = ElementFits.from_classes(active_fit, passive_fit, np.ones(4, dtype=bool))
    ok_greedy = True
    for _ in range(3):
        phi = rng.uniform(0, TWO_PI, 4)
        p_min, slope, lower, upper = _power_fit_arrays(fits4, phi, params_va)
        budget = p_min.sum() + 0.5 * float(slope @ (upper - lower))
        alpha = do_amplitude_max((p_min, slope, lower, upper), budget)
        grids = np.meshgrid(*[np.linspace(lower[i], upper[i], 21) for i in range(4)],
                            indexing="ij")
        pts = np.stack([g.ravel() for g in grids])
        cost = p_min.sum() + slope @ (pts - lower[:, None])
        best = pts[:, cost <= budget].sum(axis=0).max()
        if alpha.sum() < best - 1e-6:
            ok_greedy = False

    ok = ok_wf and ok_qp and ok_greedy
    report(13, ok, f"waterfill={ok_wf}, amplitude QP={ok_qp}, greedy={ok_greedy}")


def test_criterion_14_determinism_across_workers(tmp_path):
    scenario = ScenarioConfig(m_t=2, m_r=2, d=2, n=8, n_act=8, p_ris_w=0.19,
                              seed=14).with_rho_db(-30.0)
    def spec(threads):
        return ExperimentSpec(
            scenario=scenario,
            sweep_kind="rho_db",
            sweep_values=(-30.0, -20.0),
            variants=tuple(SchemeVariant(s, s) for s in ("AO", "DO", "PAIDO", "GA", "PSO")),
            trials=3,
            threads=threads,
            j_alt=4,
        )

    p1 = tmp_path / "one.csv"
    p8 = tmp_path / "eight.csv"
    export_csv(run_experiment(spec(1)), p1)
    export_csv(run_experiment(spec(8)), p8)
    ok = p1.read_bytes() == p8.read_bytes()
    report(14, ok, f"CSV bytes identical across 1 and 8 workers ({p1.stat().st_size} bytes)")
