import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actris import circuit, reflection
from actris.channel import ScenarioConfig
from actris.circuit import CellState
from actris.constraints import validate_design
from actris.ao import PhaseObjective
from actris.errors import CircuitError, ConfigError, PhaseNotRealizableError
from actris.harness import _scheme_rng, run_scheme, trial_channels
from actris.reflection import (
    ElementFits,
    FitParams,
    approx_amplitude_bounds,
    class_fits,
    exact_bound_curves,
    fit_amplitude_model,
    Realizer,
    normalized_amplitude,
)
from conftest import desk_scenario

TWO_PI = 2.0 * np.pi


def model_gamma(fits, phi, alpha_bar):
    """Model reflection vector: PhaseObjective.gamma_of over the fit coefficients."""
    z2, z1, z = fits.coefficients(alpha_bar)
    return PhaseObjective(t=None, q=None, z2=z2, z1=z1, z=z).gamma_of(np.exp(1j * phi))


def scalar_reflection(fit, phi, alpha_bar):
    """Independent elementwise evaluation of the reflection coefficient."""
    lo, up = approx_amplitude_bounds(fit, phi)
    return (lo + alpha_bar * (up - lo)) * np.exp(1j * phi)


class TestFit:
    def test_passive_class_collapses_to_one_curve(self, passive_fit):
        assert passive_fit.delta_min == passive_fit.beta_min
        assert passive_fit.delta_max == passive_fit.beta_max

    def test_reference_peak_amplification(self, active_fit):
        assert active_fit.beta_max == pytest.approx(30.0, rel=0.05)

    def test_min_power_peak_amplitude(self, active_fit):
        # reported max of the lower curve is 1.38
        assert active_fit.delta_max == pytest.approx(1.38, rel=0.02)

    def test_passive_peak_value(self, passive_fit):
        assert passive_fit.beta_max == pytest.approx(0.99, rel=0.02)

    def test_fit_tightness_on_soft_diode_set(self, params_fig2):
        phis, lower, upper = exact_bound_curves(params_fig2, "active")
        fit = fit_amplitude_model(params_fig2, "active")
        ap_lo, ap_up = approx_amplitude_bounds(fit, phis)
        ok = np.isfinite(upper)
        err_up = np.nanmax(np.abs(ap_up - upper)[ok]) / (fit.beta_max - fit.beta_min)
        err_lo = np.nanmax(np.abs(ap_lo - lower)[ok]) / (fit.delta_max - fit.delta_min)
        assert err_up <= 0.10
        assert err_lo <= 0.10

    def test_grid_floor(self, params_va):
        with pytest.raises(ConfigError):
            fit_amplitude_model(params_va, "active", grid_size=100)


class TestApproxBounds:
    def test_peak_phase(self, active_fit):
        lo, up = approx_amplitude_bounds(active_fit, -active_fit.theta)
        assert lo == pytest.approx(active_fit.delta_max, abs=1e-12)
        assert up == pytest.approx(active_fit.beta_max, abs=1e-12)

    def test_trough_phase(self, active_fit):
        lo, up = approx_amplitude_bounds(active_fit, -active_fit.theta + np.pi)
        assert lo == pytest.approx(active_fit.delta_min, abs=1e-12)
        assert up == pytest.approx(active_fit.beta_min, abs=1e-12)

    def test_interior_values_bounded(self, active_fit):
        rng = np.random.default_rng(8)
        for phi in rng.uniform(0.0, TWO_PI, 100):
            lo, up = approx_amplitude_bounds(active_fit, phi)
            assert active_fit.delta_min - 1e-12 <= lo <= active_fit.delta_max + 1e-12
            assert active_fit.beta_min - 1e-12 <= up <= active_fit.beta_max + 1e-12


def per_cell_arrays(active_fit, passive_fit, mask):
    """Coefficient arrays built cell by cell from one FitParams per element."""
    cells = [active_fit if a else passive_fit for a in mask]
    names = ("delta_min", "delta_max", "beta_min", "beta_max", "theta")
    return {name: np.array([getattr(f, name) for f in cells]) for name in names}


class TestElementFits:
    @pytest.mark.parametrize("hardware", ["default", "fig2"])
    def test_arrays_match_per_cell_reference(self, hardware):
        from test_ao import _same_bits

        params = circuit.CircuitParams() if hardware == "default" else circuit.fig2_params()
        active_fit, passive_fit = class_fits(params)
        rng = np.random.default_rng(23)
        masks = [np.ones(9, dtype=bool), np.zeros(9, dtype=bool)]
        masks += [rng.uniform(size=n) < 0.6 for n in (1, 5, 16, 64)]
        for mask in masks:
            fits = ElementFits(active_fit, passive_fit, mask)
            assert fits.n == mask.size and np.array_equal(fits.active_mask, mask)
            ref = per_cell_arrays(active_fit, passive_fit, mask)
            for name, arr in ref.items():
                assert _same_bits(getattr(fits, name), arr), name
            y = ref["delta_max"] - ref["delta_min"]
            assert _same_bits(fits.y, y)
            assert _same_bits(fits.x, (ref["beta_max"] - ref["beta_min"]) - y)
            # the bounds keep the bits of the per-cell (x + y) form
            phi = rng.uniform(0.0, TWO_PI, mask.size)
            cos_term = np.cos(phi + ref["theta"]) + 1.0
            lower, upper = fits.bounds(phi)
            assert _same_bits(lower, 0.5 * y * cos_term + ref["delta_min"])
            assert _same_bits(upper, 0.5 * (fits.x + y) * cos_term + ref["beta_min"])

    def test_from_classes_is_the_constructor(self, active_fit, passive_fit):
        mask = np.array([True, False, True])
        a = ElementFits.from_classes(active_fit, passive_fit, active_mask=mask)
        b = ElementFits(active_fit, passive_fit, mask)
        assert all(np.array_equal(getattr(a, k), getattr(b, k))
                   for k in ("delta_min", "delta_max", "beta_min", "beta_max", "theta"))

    def test_class_fits_are_cached_per_hardware(self, active_fit, passive_fit):
        first = class_fits(circuit.CircuitParams())
        again = class_fits(circuit.CircuitParams())
        assert again[0] is first[0] and again[1] is first[1]
        assert first == (active_fit, passive_fit)
        assert class_fits(circuit.fig2_params())[0] != first[0]

    def test_normalized_amplitude_inverts_the_forward_map(self, active_fit, passive_fit):
        rng = np.random.default_rng(29)
        mask = rng.uniform(size=12) < 0.7
        fits = ElementFits(active_fit, passive_fit, mask)
        phi = rng.uniform(0.0, TWO_PI, 12)
        alpha_bar = np.where(mask, rng.uniform(0.0, 1.0, 12), 0.0)
        lower, upper = fits.bounds(phi)
        alpha = lower + alpha_bar * (upper - lower)
        back = reflection.normalized_amplitude(fits, phi, alpha)
        assert np.allclose(back, alpha_bar, atol=1e-12)
        assert not back[~mask].any()


class TestReflectionVector:
    def test_matches_scalar_form(self, active_fit, passive_fit):
        rng = np.random.default_rng(17)
        mask = np.ones(12, dtype=bool)
        mask[[2, 5]] = False
        fits = ElementFits.from_classes(active_fit, passive_fit, mask)
        for _ in range(1000):
            phi = rng.uniform(0.0, TWO_PI, 12)
            ab = rng.uniform(0.0, 1.0, 12)
            vec = model_gamma(fits, phi, ab)
            for i in range(12):
                fit = active_fit if mask[i] else passive_fit
                ref = scalar_reflection(fit, phi[i], ab[i])
                assert abs(vec[i] - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_passive_entries_ignore_amplitude_control(self, active_fit, passive_fit):
        rng = np.random.default_rng(19)
        mask = np.zeros(6, dtype=bool)
        mask[[0, 3]] = True
        fits = ElementFits.from_classes(active_fit, passive_fit, mask)
        phi = rng.uniform(0.0, TWO_PI, 6)
        ab1 = rng.uniform(0.0, 1.0, 6)
        ab2 = ab1.copy()
        ab2[~mask] = rng.uniform(0.0, 1.0, 4)
        v1 = model_gamma(fits, phi, ab1)
        v2 = model_gamma(fits, phi, ab2)
        assert np.array_equal(v1[~mask], v2[~mask])
        assert np.array_equal(v1[mask], v2[mask])

    def test_full_gain_at_peak_phase(self, active_fit, passive_fit):
        fits = ElementFits.from_classes(active_fit, passive_fit, np.ones(4, dtype=bool))
        phi = np.full(4, -active_fit.theta % TWO_PI)
        vec = model_gamma(fits, phi, np.ones(4))
        assert np.allclose(np.abs(vec), active_fit.beta_max, atol=1e-9)


# Per-cell reference: the scalar realization path that the vector layer in
# circuit and reflection replaced, kept verbatim as the oracle (Python complex
# arithmetic, one cell and one root at a time).


def _ref_phase_roots(p, r, phi):
    qa, qb, qc = circuit._phase_quadratic(p, r, phi)
    if qa == 0.0:
        roots = np.array([-qc / qb]) if qb != 0.0 else np.array([])
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            raise CircuitError("|R| exceeds the feasible range")
        q = -0.5 * (qb + np.copysign(np.sqrt(disc), qb))
        roots = np.array([q / qa, qc / q]) if q != 0.0 else np.array([0.0, 0.0])
    return roots[roots > 0.0]


def _ref_capacitance(p, r, phi, tol=1e-6):
    phi = float(phi) % TWO_PI
    best, best_err = None, np.inf
    for c in _ref_phase_roots(p, r, phi):
        realized = np.angle(circuit.reflection(p, r, c)) % TWO_PI
        err = circuit._phase_distance(realized, phi)
        if err < best_err:
            best, best_err = c, err
    if best is None or best_err > tol:
        raise PhaseNotRealizableError("no capacitance realizes the phase")
    return float(best)


def _ref_circuit_from_gamma(p, gamma):
    gamma = complex(gamma)
    l1, l2, w, z0 = p.l1, p.l2, p.omega, p.z0
    den = w * l1 * (1.0 - gamma) + 1j * z0 * (1.0 + gamma)
    if abs(den) < 1e-12 * z0:
        raise CircuitError("reflection coefficient at the inversion pole")
    x = w * (z0 * (l1 + l2) * (1.0 + gamma) + 1j * w * l1 * l2 * (gamma - 1.0)) / den
    if x.imag >= 0.0:
        raise PhaseNotRealizableError("inductive branch reactance")
    return CellState(r=float(x.real), c=float(1.0 / (abs(x.imag) * w)))


def _ref_nearest(p, r, phi, max_offset=0.5):
    """(cell, nudged) of the step-by-step phase nudge."""
    try:
        return CellState(r=r, c=_ref_capacitance(p, r, phi)), False
    except CircuitError:
        pass
    step = 2e-3
    while step <= max_offset:
        for sign in (1.0, -1.0):
            try:
                return CellState(r=r, c=_ref_capacitance(p, r, phi + sign * step)), True
            except CircuitError:
                continue
        step *= 1.6
    raise PhaseNotRealizableError("no realizable phase within the offset")


# realization branch of a cell, as the per-cell reference reports it
DIRECT, CLIPPED, FALLBACK, NUDGED = range(4)


def _ref_fallback(p, gamma):
    for _ in range(80):
        gamma = 0.97 * gamma
        try:
            cell = _ref_circuit_from_gamma(p, gamma)
        except CircuitError:
            continue
        if cell.r >= 0.0:
            return cell, FALLBACK
    return _ref_nearest(p, p.r_passive, float(np.angle(gamma)))[0], NUDGED


def _ref_active(p, gamma, phi, band_lo, band_hi):
    try:
        cell = _ref_circuit_from_gamma(p, gamma)
        if cell.r < 0.0 and not band_lo <= cell.r <= band_hi:
            r = float(np.clip(cell.r, band_lo, band_hi))
            return CellState(r=r, c=_ref_capacitance(p, r, phi)), CLIPPED
        return cell, DIRECT
    except CircuitError:
        return _ref_fallback(p, gamma)


def _in_range(p, cell):
    """The cell with its capacitance clipped into c_range."""
    return CellState(r=cell.r, c=float(np.clip(cell.c, *p.c_range)))


def _ref_power(p, cells, mask):
    active_r = np.array([cell.r for cell, a in zip(cells, mask) if a])
    return float(circuit.power_consumption(active_r, p).sum()) if active_r.size else 0.0


def _reference_realization(params, fits, phi, alpha):
    """(cells, branches, power) of the per-cell realization loop."""
    phi = np.asarray(phi, dtype=float)
    gamma = np.asarray(alpha, dtype=float) * np.exp(1j * phi)
    band_lo = circuit.stable_resistance(circuit.M_LO, params)
    band_hi = circuit.stable_resistance(circuit.M_HI, params)
    cells, branches = [], []
    for i in range(phi.size):
        if fits.active_mask[i]:
            cell, branch = _ref_active(params, gamma[i], phi[i], band_lo, band_hi)
        else:
            cell, nudged = _ref_nearest(params, params.r_passive, phi[i])
            branch = NUDGED if nudged else DIRECT
        cells.append(_in_range(params, cell))
        branches.append(branch)
    return cells, branches, _ref_power(params, cells, fits.active_mask)


def _reference_realize_minimum_power(params, fits, phi):
    """(cells, power) of the per-cell Realizer.minimum_power loop."""
    band_hi = circuit.stable_resistance(circuit.M_HI, params)
    cells = [
        _in_range(params, _ref_nearest(params, band_hi if a else params.r_passive, phi_i)[0])
        for phi_i, a in zip(np.asarray(phi, dtype=float), fits.active_mask)
    ]
    return cells, _ref_power(params, cells, fits.active_mask)


def _close(a, b, rel=1e-12):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= rel * np.abs(b)))


def _assert_matches_reference(params, fits, phi, alpha):
    """The reference's branches, after checking the circuits and the power
    of a fresh Realizer's design against it."""
    design = Realizer(params, fits, phi)(alpha)
    cells, branches, power = _reference_realization(params, fits, phi, alpha)
    assert _close(design.r, [cell.r for cell in cells])
    assert _close(design.c, [cell.c for cell in cells])
    assert _close(design.ris_power_w, power)
    return branches


def _assert_cellwise(params, fits, phi, alpha, active_fit, passive_fit):
    """Each cell of a surface's realization has the bits of the same cell
    realized on a surface of its own."""
    phi, alpha = np.asarray(phi, dtype=float), np.asarray(alpha, dtype=float)
    design = Realizer(params, fits, phi)(alpha)
    for i in range(fits.n):
        one = ElementFits.from_classes(active_fit, passive_fit, fits.active_mask[i : i + 1])
        cell = Realizer(params, one, phi[i : i + 1])(alpha[i : i + 1])
        assert _same_cells(cell, design.r[i : i + 1], design.c[i : i + 1]), i


def _same_cells(design, r, c):
    return design.r.tobytes() == r.tobytes() and design.c.tobytes() == c.tobytes()


def _same_design(a, b):
    return _same_cells(a, b.r, b.c) and all(
        getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for name in ("phi", "alpha_bar", "active_mask", "gamma")
    ) and a.ris_power_w == b.ris_power_w


class TestRealizeOracle:
    """The vector realization must land within rounding of each cell's
    reference circuit and of its power; the reference's branches show which
    cases a surface reached."""

    @pytest.mark.parametrize("size", ["desk", "paper"])
    def test_harness_calls_match_per_cell_reference(self, size, active_fit, passive_fit,
                                                    monkeypatch):
        # every realization of a power repair goes through the one Realizer
        # it builds; each must carry the bits of a fresh Realizer's
        sc = desk_scenario() if size == "desk" else ScenarioConfig().with_rho_db(-30.0)
        calls, floors = [], []
        realize, minimum_power = Realizer.__call__, Realizer.minimum_power

        def recorded(self, alpha):
            design = realize(self, alpha)
            calls.append((self.params, self.fits, np.copy(self.phi), np.copy(alpha), design))
            return design

        def recorded_floor(self):
            floors.append((self.params, self.fits, np.copy(self.phi)))
            return minimum_power(self)

        monkeypatch.setattr(Realizer, "__call__", recorded)
        monkeypatch.setattr(Realizer, "minimum_power", recorded_floor)
        for seed in (3, 17):
            ch, mask = trial_channels(sc, seed, 0, 0)
            fits = ElementFits.from_classes(active_fit, passive_fit, mask)
            for k, scheme in enumerate(("AO", "DO", "PAIDO")):
                run_scheme(scheme, sc, ch, fits, _scheme_rng(seed, 0, 0, k))
        monkeypatch.undo()
        seen = set()
        for params, fits, phi, alpha, design in calls:
            seen.update(_assert_matches_reference(params, fits, phi, alpha))
            assert _same_design(design, Realizer(params, fits, phi)(alpha))
        for params, fits, phi in floors:
            design = Realizer(params, fits, phi).minimum_power()
            cells, power = _reference_realize_minimum_power(params, fits, phi)
            assert _close(design.r, [cell.r for cell in cells])
            assert _close(design.c, [cell.c for cell in cells])
            assert _close(design.ris_power_w, power)
        assert len(calls) > 10
        assert {DIRECT, CLIPPED, FALLBACK} <= seen

    def test_every_branch_on_a_hand_built_surface(self, params_va, active_fit, passive_fit):
        band_lo, band_hi = circuit.diode_band(params_va)
        pole = _inversion_pole(params_va)
        targets = [
            circuit.reflection(params_va, -5.0, 2e-12),           # direct
            circuit.reflection(params_va, 1.2 * band_lo, 2e-12),  # clipped below
            circuit.reflection(params_va, 0.5 * band_hi, 2e-12),  # clipped above
            np.exp(1j * 2.94),                                    # inductive branch
            pole + 1e-13j,                                        # inversion pole
            0.5 * np.exp(1j * 1.0),                               # passive, exact
            0.5 * np.exp(1j * 2.94),                              # passive, nudged
        ]
        mask = np.array([True] * 5 + [False] * 2)
        fits = ElementFits.from_classes(active_fit, passive_fit, mask)
        phi = np.angle(targets) % TWO_PI
        branches = _assert_matches_reference(params_va, fits, phi, np.abs(targets))
        _assert_cellwise(params_va, fits, phi, np.abs(targets), active_fit, passive_fit)
        assert branches[:3] == [DIRECT, CLIPPED, CLIPPED]
        assert set(branches[3:5]) <= {FALLBACK, NUDGED}
        assert branches[5:] == [DIRECT, NUDGED]

    def test_fallback_without_a_passive_rung_takes_the_nudge(self, params_va, active_fit,
                                                             passive_fit, monkeypatch):
        # a fallback that ignores r >= 0 would take the first capacitive rung
        fits = ElementFits.from_classes(active_fit, passive_fit, np.ones(2, dtype=bool))
        phi = np.array([2.94, 3.05])
        real = circuit.circuit_from_gamma

        def no_passive_rung(p, gamma):
            r, c, ok = real(p, gamma)
            return np.where(ok, -np.abs(r) - 1.0, r), c, ok

        monkeypatch.setattr(circuit, "circuit_from_gamma", no_passive_rung)
        design = Realizer(params_va, fits, phi)(np.ones(2))
        assert np.all(design.r == params_va.r_passive)
        # the passive resistance at the nearest realizable phase of the last rung
        c, _ = circuit.nearest_realizable_cell(params_va, params_va.r_passive,
                                               np.angle(0.97**80 * np.exp(1j * phi)))
        assert _close(design.c, np.clip(c, *params_va.c_range))

    def test_reused_realizer_keeps_the_bits_of_fresh_ones(self, params_va, active_fit,
                                                          passive_fit):
        # one Realizer over many amplitude vectors, with cells clipping at
        # either band edge in turn: its cached edge capacitances and
        # passive cells must give each call the bits of a fresh Realizer
        rng = np.random.default_rng(8)
        mask = rng.uniform(size=40) < 0.8
        fits = ElementFits.from_classes(active_fit, passive_fit, mask)
        phi = rng.uniform(0.0, TWO_PI, 40)
        lower, upper = fits.bounds(phi)
        realize = Realizer(params_va, fits, phi)
        seen = set()
        for _ in range(12):
            alpha = lower + rng.uniform(-0.3, 1.3, 40) * (upper - lower)
            design = realize(alpha)
            assert _same_design(design, Realizer(params_va, fits, phi)(alpha))
            seen.update(_assert_matches_reference(params_va, fits, phi, alpha))
        assert CLIPPED in seen

    def test_minimum_power_matches_reference(self, params_va, active_fit, passive_fit):
        rng = np.random.default_rng(4)
        mask = rng.uniform(size=24) < 0.7
        fits = ElementFits.from_classes(active_fit, passive_fit, mask)
        phi = rng.uniform(0.0, TWO_PI, 24)
        design = Realizer(params_va, fits, phi).minimum_power()
        cells, power = _reference_realize_minimum_power(params_va, fits, phi)
        assert _close(design.r, [cell.r for cell in cells])
        assert _close(design.c, [cell.c for cell in cells])
        assert _close(design.ris_power_w, power)
        # the cosine floor, whose controls normalize to exact (positive) zeros
        lower, _ = fits.bounds(phi)
        assert design.gamma.tobytes() == (lower * np.exp(1j * phi)).tobytes()
        assert design.alpha_bar.tobytes() == normalized_amplitude(fits, phi, lower).tobytes()
        assert design.alpha_bar.tobytes() == np.zeros(24).tobytes()
        assert design.active_mask is not fits.active_mask
        assert np.array_equal(design.active_mask, mask)

    def test_cells_view_and_cells_keyword(self, params_va, active_fit, passive_fit):
        fits = ElementFits.from_classes(active_fit, passive_fit, np.array([True, False]))
        design = Realizer(params_va, fits, np.array([1.0, 2.0]))(np.array([2.0, 0.5]))
        assert design.cells == tuple(CellState(r=r, c=c) for r, c in zip(design.r, design.c))
        again = reflection.RISDesign(phi=design.phi, alpha_bar=design.alpha_bar,
                                     active_mask=design.active_mask, gamma=design.gamma,
                                     cells=design.cells, ris_power_w=design.ris_power_w)
        assert _same_cells(again, design.r, design.c)


class TestExactValidation:
    def test_flags_amplitudes_outside_the_exact_bounds(self, scenario_desk, fits_all_active):
        # cells: inside, above the upper bound, a passive-side cell on the
        # unrealizable arc (no bounds, not checked), below the lower bound,
        # passive (not checked), above the upper bound where only the lower
        # root misses
        params = scenario_desk.circuit
        band_lo, band_hi = circuit.diode_band(params)
        r = np.array([-5.0, 1.2 * band_lo, 30.0, 0.5 * band_hi, 0.5 * band_hi,
                      1.2 * band_lo] + [-5.0] * 10)
        c = np.array([2e-12, 2e-12, 1.5e-11, 2e-12, 2e-12, 5e-11] + [2e-12] * 10)
        g = circuit.reflection(params, r, c)
        phi = np.angle(g) % TWO_PI
        lo, hi = circuit.exact_amplitude_bounds(params, phi)
        assert np.isnan(lo[2]) and np.isnan(hi[2])
        assert np.isnan(lo[5]) and np.isfinite(hi[5])
        mask = np.ones(16, dtype=bool)
        mask[4] = False
        design = reflection.RISDesign(
            phi=phi, alpha_bar=np.zeros(16), active_mask=mask, gamma=g, r=r, c=c,
            ris_power_w=0.0,
        )
        v = np.zeros((scenario_desk.m_t, scenario_desk.d), dtype=complex)
        problems = validate_design(scenario_desk, fits_all_active, v, design)
        flagged = [p.split(":")[0] for p in problems if p.startswith("element")]
        assert flagged == ["element 1", "element 3", "element 5"]
        assert all("amplitude" in p for p in problems if p.startswith("element"))

    def test_flags_capacitances_outside_c_range(self, params_va, scenario_desk,
                                                fits_all_active):
        phi = np.full(16, 1.0)
        lower, upper = fits_all_active.bounds(phi)
        design = Realizer(params_va, fits_all_active, phi)(lower + 0.1 * (upper - lower))
        v = np.zeros((scenario_desk.m_t, 1))
        assert validate_design(scenario_desk, fits_all_active, v, design) == []
        c_lo, c_hi = params_va.c_range
        design.c[[2, 7]] = [0.5 * c_lo, 2.0 * c_hi]
        problems = validate_design(scenario_desk, fits_all_active, v, design)
        assert [p.split(" F")[0] for p in problems] == [
            f"element 2: capacitance {0.5 * c_lo:.6g}", f"element 7: capacitance {2.0 * c_hi:.6g}",
        ]

    def test_realized_capacitances_stay_in_range(self, params_va, active_fit, passive_fit):
        # the inversion asks for a capacitance below c_lo; the clip keeps its
        # in-band resistance and so its power
        target = circuit.reflection(params_va, -2.58, 0.0137e-12)
        r, c, ok = circuit.circuit_from_gamma(params_va, target)
        assert ok and c < params_va.c_range[0]
        fits = ElementFits.from_classes(active_fit, passive_fit, np.array([True]))
        design = Realizer(params_va, fits, np.array([np.angle(target) % TWO_PI]))(
            np.array([abs(target)]))
        assert design.c[0] == params_va.c_range[0]
        assert design.r[0] == pytest.approx(r, rel=1e-9)
        assert design.ris_power_w == pytest.approx(circuit.power_consumption(r, params_va),
                                                   rel=1e-9)


def _inversion_pole(p):
    """The reflection coefficient at which circuit inversion divides by zero."""
    w_l1 = p.omega * p.l1
    return -(w_l1 + 1j * p.z0) / (1j * p.z0 - w_l1)


@st.composite
def realization_targets(draw):
    """Surfaces mixing ordinary targets with every edge case of the
    realization: the inversion pole, the inductive branch, both diode band
    edges and beyond them, the unrealizable arc, and passive cells."""
    params = circuit.CircuitParams()
    band_lo, band_hi = circuit.diode_band(params)
    n = draw(st.integers(1, 10))
    targets, mask = [], []
    for _ in range(n):
        kind = draw(st.sampled_from(
            ["random", "pole", "inductive", "edge", "beyond", "arc", "passive"]))
        phase = draw(st.floats(0.0, TWO_PI, exclude_max=True))
        if kind == "random":
            g = draw(st.floats(0.0, 32.0)) * np.exp(1j * phase)
        elif kind == "pole":
            g = _inversion_pole(params) + 1e-13 * np.exp(1j * phase)
        elif kind == "inductive":
            g = np.exp(1j * draw(st.floats(2.8, 3.2)))
        elif kind in ("edge", "beyond"):
            r = draw(st.sampled_from([band_lo, band_hi]))
            if kind == "beyond":
                r *= draw(st.sampled_from([1.3, 0.7]))
            g = circuit.reflection(params, r, draw(st.floats(0.3e-12, 20e-12)))
        elif kind == "arc":
            g = draw(st.floats(0.5, 1.5)) * np.exp(1j * draw(st.floats(2.85, 3.1)))
        else:
            g = draw(st.floats(0.0, 1.0)) * np.exp(1j * phase)
        targets.append(complex(g))
        mask.append(kind != "passive" and (kind in ("pole", "edge") or draw(st.booleans())))
    return params, np.array(targets), np.array(mask)


class TestRealizeProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(problem=realization_targets())
    def test_matches_per_cell_reference(self, problem, active_fit, passive_fit):
        params, targets, mask = problem
        fits = ElementFits.from_classes(active_fit, passive_fit, mask)
        phi = np.angle(targets) % TWO_PI
        try:
            _assert_matches_reference(params, fits, phi, np.abs(targets))
            _assert_cellwise(params, fits, phi, np.abs(targets), active_fit, passive_fit)
        except PhaseNotRealizableError:
            with pytest.raises(PhaseNotRealizableError):
                _reference_realization(params, fits, phi, np.abs(targets))
