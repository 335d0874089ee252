import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actris import circuit
from actris.circuit import (
    CEILING_POINTS,
    M_HI,
    M_LO,
    CellState,
    CircuitParams,
    circuit_from_gamma,
    diode_band,
    exact_amplitude_bounds,
    feasibility_condition,
    fig2_params,
    nearest_realizable_cell,
    phase_capacitance,
    m_from_resistance,
    power_ceiling,
    power_consumption,
    reflection,
    reflection_coeff,
    relax_to_budget,
    resistance_range,
    stable_resistance,
    usable_resistance_band,
)
from actris.errors import CircuitError, InfeasibleBudgetError, PhaseNotRealizableError
from test_numerics import reference_lambert_w0

TWO_PI = 2.0 * np.pi


def reference_bisect(f, lo, hi, tol):
    """Scalar bisection root search on [lo, hi], where f(lo) and f(hi) differ
    in sign: a point with |f(x)| <= tol or a bracket narrower than tol, or
    the midpoint after 200 halvings. The references' one root finder."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
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


def reference_power(r, p):
    """Scalar power law of one cell: the reference kernel."""
    if r >= 0.0:
        return 0.0
    w = reference_lambert_w0(-r / (p.r0 * np.e))
    return (p.v0**2 / p.r0) * (w + 1.0) ** (2.0 * w)


def tunneling_current(v, p, m):
    """Diode current in the tunneling region for applied voltage v: the
    reference the stability-point power law is checked against."""
    if not M_LO <= m <= M_HI:
        raise ValueError(f"steepness exponent m={m} outside [{M_LO}, {M_HI}]")
    if v < 0.0:
        raise ValueError("tunneling current model requires v >= 0")
    return (v / p.r0) * np.exp(-((v / p.v0) ** m))


def random_band_cells(params, rng, count, c_lo=0.3e-12, c_hi=20e-12):
    """Random in-band (R, C) pairs; feasibility holds by construction."""
    r = rng.uniform(stable_resistance(1.0, params), stable_resistance(3.0, params), count)
    c = rng.uniform(c_lo, c_hi, count)
    return r, c


class TestImpedance:
    def test_large_resistance_opens_series_branch(self, params_fig2):
        # the open series branch leaves the bottom-layer inductance alone
        z = 1j * params_fig2.omega * params_fig2.l1
        g = reflection(params_fig2, 1e9, 1e-12)
        assert g == pytest.approx((z - params_fig2.z0) / (z + params_fig2.z0), rel=1e-6)

    def test_against_high_precision_arithmetic(self, params_fig2):
        # independent evaluation with 50-digit arithmetic
        import mpmath

        with mpmath.workdps(50):
            w = mpmath.mpf(2) * mpmath.pi * mpmath.mpf("2.4e9")
            l1, l2, c, r, z0 = (
                mpmath.mpf(x) for x in ("4.5e-9", "0.7e-9", "1e-12", "1", "377")
            )
            j = mpmath.mpc(0, 1)
            series = j * w * l2 + 1 / (j * w * c) + r
            z_ref = (j * w * l1 * series) / (j * w * l1 + series)
            g_ref = complex((z_ref - z0) / (z_ref + z0))
        g = reflection(params_fig2, 1.0, 1e-12)
        assert abs(g - g_ref) / abs(g_ref) < 1e-12

    def test_negative_resistance_amplifies(self, params_fig2):
        a_passive = abs(reflection_coeff(params_fig2, CellState(r=1.0, c=1e-12)))
        a_active = abs(reflection_coeff(params_fig2, CellState(r=-2.0, c=1e-12)))
        assert a_active > a_passive

    def test_rejects_zero_capacitance(self, params_fig2):
        with pytest.raises(CircuitError):
            reflection_coeff(params_fig2, CellState(r=1.0, c=0.0))


class TestReflection:
    def test_matched_load_reflects_nothing(self, params_va):
        # invert gamma = 0 and verify the cell reflects nothing back
        r, c, ok = circuit_from_gamma(params_va, 0.0)
        assert ok
        assert abs(reflection(params_va, float(r), float(c))) < 1e-9

    def test_near_resonance_reflects_fully(self, params_va):
        # parallel resonance with a tiny loss: |Z| huge, gamma near +1
        c_res = 1.0 / (params_va.omega**2 * (params_va.l1 + params_va.l2))
        g = reflection_coeff(params_va, CellState(r=1e-4, c=c_res))
        assert abs(g - 1.0) < 1e-2

    def test_passive_sweep_peak_amplitude(self, params_va):
        # quoted varactor range of the reference hardware
        cs = np.linspace(0.85e-12, 6.25e-12, 20000)
        amps = np.abs(reflection(params_va, params_va.r_passive, cs))
        assert amps.max() == pytest.approx(0.99, rel=0.02)


class TestTunnelingCurrent:
    def test_zero_voltage(self, params_va):
        assert tunneling_current(0.0, params_va, 1.0) == 0.0

    def test_at_voltage_scale(self, params_va):
        expect = params_va.v0 / (params_va.r0 * np.e)
        assert tunneling_current(params_va.v0, params_va, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_power_matches_closed_form_at_bias(self, params_va):
        # the adopted power law is the closed form (V0^2/R0)(1/m+1)^(2/m);
        # the raw bias-point product I(V_r)*V_r differs from it by exactly
        # exp((m+1)/m), the factor dropped in the published derivation
        for m in (1.0, 1.7, 2.5, 3.0):
            v_r = (1.0 / m + 1.0) ** (1.0 / m) * params_va.v0
            closed = (params_va.v0**2 / params_va.r0) * (1.0 / m + 1.0) ** (2.0 / m)
            r = stable_resistance(m, params_va)
            assert power_consumption(r, params_va) == pytest.approx(closed, rel=1e-10)
            iv = tunneling_current(v_r, params_va, m) * v_r
            assert iv * np.exp((m + 1.0) / m) == pytest.approx(closed, rel=1e-10)

    def test_exponent_domain(self, params_va):
        with pytest.raises(ValueError):
            tunneling_current(0.05, params_va, 3.5)


class TestStableResistance:
    def test_band_edges_match_reported_range(self, params_va):
        # reported operating band is [-11, -1.9] ohms
        assert stable_resistance(1.0, params_va) == pytest.approx(-11.08, rel=0.01)
        assert stable_resistance(3.0, params_va) == pytest.approx(-1.90, rel=0.01)

    def test_midpoint_formula(self, params_va):
        m = 2.0
        expect = -(params_va.r0 / m) * np.exp((m + 1.0) / m)
        assert stable_resistance(m, params_va) == expect
        lo = stable_resistance(1.0, params_va)
        hi = stable_resistance(3.0, params_va)
        assert lo < expect < hi

    def test_strictly_increasing_in_m(self, params_va):
        grid = stable_resistance(np.linspace(1.0, 3.0, 200), params_va)
        assert np.all(np.diff(grid) > 0.0)


class TestResistanceInversion:
    def test_known_point(self, params_va):
        r = -params_va.r0 * np.e**2
        assert m_from_resistance(r, params_va) == pytest.approx(1.0, abs=1e-12)

    def test_roundtrip_endpoints(self, params_va):
        r3 = stable_resistance(3.0, params_va)
        assert m_from_resistance(r3, params_va) == pytest.approx(3.0, abs=1e-9)

    def test_roundtrip_interior(self, params_va):
        r = stable_resistance(1.7, params_va)
        assert m_from_resistance(r, params_va) == pytest.approx(1.7, abs=1e-9)

    def test_roundtrip_band_grid(self, params_va):
        for m in np.linspace(1.0, 3.0, 200):
            back = m_from_resistance(stable_resistance(m, params_va), params_va)
            assert abs(back - m) <= 1e-9

    def test_out_of_band_rejected(self, params_va):
        with pytest.raises(ValueError):
            m_from_resistance(stable_resistance(1.0, params_va) * 1.2, params_va)


class TestPowerConsumption:
    def test_passive_draws_nothing(self, params_va):
        assert power_consumption(1.5, params_va) == 0.0

    def test_full_power_value(self, params_va):
        # reported maximum per-element power is 26.5 mW
        assert power_consumption(-11.0, params_va) == pytest.approx(26.5e-3, rel=0.02)

    def test_min_power_value(self, params_va):
        # reported minimum per-element power is 8 mW
        r = stable_resistance(3.0, params_va)
        assert power_consumption(r, params_va) == pytest.approx(8e-3, rel=0.03)

    def test_strictly_decreasing_on_band(self, params_va):
        rs = np.linspace(stable_resistance(1.0, params_va), stable_resistance(3.0, params_va), 200)
        ps = np.array([power_consumption(r, params_va) for r in rs])
        assert np.all(np.diff(ps) < 0.0)

    @pytest.mark.parametrize("shape", [(0,), (5, 0)])
    def test_vector_power_of_no_cells(self, params_va, shape):
        # a surface without active cells draws nothing
        p = power_consumption(np.zeros(shape), params_va)
        assert p.shape == shape and p.sum() == 0.0

    def test_below_band_rejected_unless_extended(self, params_va):
        r = stable_resistance(1.0, params_va) * 1.05
        with pytest.raises(ValueError):
            power_consumption(r, params_va)
        with pytest.raises(ValueError):
            power_consumption(np.array([-3.0, r, 1.5]), params_va)

    def test_matches_the_scalar_reference(self, params_va):
        rng = np.random.default_rng(12)
        r, _ = random_band_cells(params_va, rng, 500)
        r[::7] = params_va.r_passive
        got = power_consumption(r, params_va)
        want = np.array([reference_power(x, params_va) for x in r])
        assert np.all((got == 0.0) == (want == 0.0))
        assert np.max(np.abs(got - want) / np.maximum(want, 1e-300)) <= 1e-15
        assert isinstance(power_consumption(-3.0, params_va), float)

    def test_stack_rows_match_single_calls(self, params_va):
        rng = np.random.default_rng(13)
        r = rng.uniform(stable_resistance(1.0, params_va), 2.0, (40, 16))
        p = power_consumption(r, params_va)
        assert all(np.array_equal(p[k], power_consumption(r[k], params_va)) for k in range(40))
        assert all(p[0, j] == power_consumption(r[0, j], params_va) for j in range(16))


@st.composite
def hardware(draw):
    """The reference and fig2 hardware, or a random unit cell (every one in
    these ranges meets the feasibility condition)."""
    kind = draw(st.sampled_from(["reference", "fig2", "random"]))
    if kind == "reference":
        return CircuitParams()
    if kind == "fig2":
        return fig2_params()
    return CircuitParams(
        l1=draw(st.floats(1e-9, 10e-9)), l2=draw(st.floats(0.1e-9, 2e-9)),
        omega=2.0 * np.pi * draw(st.floats(1e9, 5e9)), r0=draw(st.floats(0.05, 20.0)),
        v0=draw(st.floats(0.01, 1.0)),
    )


@st.composite
def band_resistances(draw):
    """Hardware and in-band resistances: both band edges, the ceiling's grid
    points, uniform draws, and each of them moved by at most one ulp."""
    params = draw(hardware())
    band_lo, band_hi = diode_band(params)
    grid = np.linspace(band_lo, band_hi, CEILING_POINTS)
    r = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["edge", "grid", "uniform"]))
        if kind == "edge":
            x = draw(st.sampled_from([band_lo, band_hi]))
        elif kind == "grid":
            x = grid[draw(st.integers(0, CEILING_POINTS - 1))]
        else:
            x = draw(st.floats(band_lo, band_hi))
        x = np.nextafter(x, draw(st.sampled_from([-np.inf, x, np.inf])))
        r.append(min(max(x, band_lo), band_hi))
    return params, np.array(r)


class TestPowerCeiling:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(problem=band_resistances())
    def test_bounds_the_computed_power(self, problem):
        params, r = problem
        assert np.all(power_ceiling(params)(r) >= power_consumption(r, params))

    @pytest.mark.parametrize("params", [CircuitParams(), fig2_params()],
                             ids=["reference", "fig2"])
    def test_bounds_every_grid_point_and_its_neighbours(self, params):
        band_lo, band_hi = diode_band(params)
        grid = np.linspace(band_lo, band_hi, CEILING_POINTS)
        r = np.concatenate([grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf)])
        r = np.clip(r, band_lo, band_hi)
        assert np.all(power_ceiling(params)(r) >= power_consumption(r, params))

    def test_tight_within_two_grid_steps(self, params_va):
        # the screen passes a cell on to the exact power only near its bound
        band_lo, band_hi = diode_band(params_va)
        r = np.linspace(band_lo, band_hi, 1001)
        step = (band_hi - band_lo) / (CEILING_POINTS - 1)
        lower = power_consumption(np.maximum(r - 2.0 * step, band_lo), params_va)
        assert np.all(power_ceiling(params_va)(r) <= lower * (1.0 + 1e-9))

    def test_cached_per_hardware(self, params_va):
        assert power_ceiling(params_va) is power_ceiling(CircuitParams())


def _reference_relax(p, r, budget):
    """Reference relax of one row, in place: the argmax loop that
    relax_to_budget replaced, with a scalar bisection for the last cell.
    Returns whether the row moved."""
    band_lo, band_hi = diode_band(p)
    p_floor = power_consumption(band_hi, p)
    powers = power_consumption(r, p)
    total = powers.sum()
    over = total > budget + 1e-12
    while total > budget + 1e-12:
        i = int(np.argmax(powers))
        if powers[i] <= p_floor:
            raise InfeasibleBudgetError("every cell is at or below the floor power")
        target = powers[i] - (total - budget)
        if target <= p_floor + 1e-15:
            r[i] = band_hi
        else:
            r[i] = reference_bisect(lambda rr: power_consumption(rr, p) - target,
                                    band_lo, band_hi, tol=1e-15)
        new_p = power_consumption(r[i], p)
        total += new_p - powers[i]
        powers[i] = new_p
    return over


def _relax_rows(p, n, seed):
    """Seeded rows of n cells: uniform over the diode band, band_lo-heavy
    rows, and rows with some passive-side (r >= 0) cells."""
    rng = np.random.default_rng(seed)
    band_lo, band_hi = diode_band(p)
    r = rng.uniform(band_lo, band_hi, (60, n))
    r[:20] = np.where(rng.uniform(size=(20, n)) < 0.5, band_lo, r[:20])
    r[20:40] = np.where(rng.uniform(size=(20, n)) < 0.2, rng.uniform(0.0, 3.0, (20, n)), r[20:40])
    return r


class TestRelaxToBudget:
    @pytest.mark.parametrize("n, budgets", [(16, (0.2, 0.25, 0.3, 0.35, 0.4)),
                                            (64, (0.6, 0.7, 0.8, 0.9))])
    def test_matches_the_argmax_loop(self, params_va, n, budgets):
        moved_rows = 0
        for seed, budget in enumerate(budgets):
            r = _relax_rows(params_va, n, seed)
            want, got = r.copy(), r.copy()
            moved = np.array([_reference_relax(params_va, row, budget) for row in want])
            assert np.array_equal(relax_to_budget(params_va, got, budget), moved)
            assert np.array_equal(got[~moved], r[~moved])   # unmoved rows keep their bits
            assert np.abs(got - want).max() <= 1e-9
            powers = power_consumption(got, params_va)
            assert np.abs(powers - power_consumption(want, params_va)).max() <= 1e-12
            assert np.all(powers[moved].sum(axis=1) <= budget + 1e-12)
            moved_rows += moved.sum()
        assert 0 < moved_rows < 60 * len(budgets)

    def test_budget_below_the_minimum_bias_power_raises(self, params_va):
        floor = power_consumption(diode_band(params_va)[1], params_va)
        r = _relax_rows(params_va, 16, 7)[40:]
        with pytest.raises(InfeasibleBudgetError, match="minimum-bias power"):
            relax_to_budget(params_va, r, 0.9 * 16 * floor)

    def test_rows_without_cells_move_nothing(self, params_va):
        r = np.empty((3, 0))
        assert not relax_to_budget(params_va, r, 0.1).any()


class TestCapacitanceForPhase:
    def test_roundtrip_from_sampled_cells(self, params_va):
        rng = np.random.default_rng(21)
        rs, cs = random_band_cells(params_va, rng, 200)
        for r, c in zip(rs, cs):
            phi = float(np.angle(reflection(params_va, r, c)) % TWO_PI)
            c_back = phase_capacitance(params_va, r, phi)
            realized = np.angle(reflection(params_va, r, c_back)) % TWO_PI
            assert abs((realized - phi + np.pi) % TWO_PI - np.pi) < 1e-6
            assert c_back == pytest.approx(c, rel=1e-6)

    def test_near_tan_singularity(self, params_va):
        for phi in (np.pi / 2, np.pi / 2 - 1e-3, np.pi / 2 + 1e-3, 3 * np.pi / 2):
            c = phase_capacitance(params_va, -5.0, phi)
            realized = np.angle(reflection(params_va, -5.0, c)) % TWO_PI
            assert abs((realized - phi + np.pi) % TWO_PI - np.pi) < 1e-6

    def test_resistance_beyond_range_is_infeasible(self, params_va):
        phi = 1.2147  # near the minimum of the feasible range
        f = resistance_range(params_va, phi)
        qa, qb, qc = circuit._phase_quadratic(params_va, -(f * 1.01), phi)
        assert qb * qb - 4.0 * qa * qc < 0.0
        assert np.isnan(phase_capacitance(params_va, -(f * 1.01), phi))

    def test_equal_phase_errors_take_the_first_root(self, params_va):
        # next to the tangent R = -F(phi) both roots land on phi, here with
        # bit-equal phase errors; the first root of the quadratic wins
        phi, r = 1.2213569759361038, -11.831189306411199
        qa, qb, qc = circuit._phase_quadratic(params_va, r, phi)
        q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
        first, second = q / qa, qc / q
        errs = [
            circuit._phase_distance(np.angle(reflection(params_va, r, c)) % TWO_PI, phi)
            for c in (first, second)
        ]
        assert first != second and errs[0] == errs[1] <= 1e-6
        assert phase_capacitance(params_va, r, phi) == first
        assert phase_capacitance(params_va, np.full(3, r), np.full(3, phi)).tolist() == [first] * 3

    def test_nudge_schedule_reaches_the_nearest_realizable_phase(self, params_va, monkeypatch):
        phis = np.array([1.0, 2.94, 3.0])
        c, offset = nearest_realizable_cell(params_va, params_va.r_passive, phis)
        assert offset[0] == 0.0 and offset[1] != 0.0
        realized = np.angle(reflection(params_va, params_va.r_passive, c)) % TWO_PI
        assert np.all(np.abs((realized - phis - offset + np.pi) % TWO_PI - np.pi) < 1e-6)
        # no earlier offset of the schedule +2 mrad, -2 mrad, +3.2 mrad, ...
        # realizes the phase
        schedule = [2e-3]
        while len(schedule) < 24:
            schedule.append(schedule[-1] * 1.6)
        schedule = np.ravel([(step, -step) for step in schedule])
        for i in (1, 2):
            earlier = phis[i] + schedule[:np.flatnonzero(schedule == offset[i])[0]]
            assert np.isnan(phase_capacitance(params_va, params_va.r_passive, earlier)).all()
        monkeypatch.setattr(circuit, "MAX_PHASE_NUDGE", 1e-3)
        with pytest.raises(PhaseNotRealizableError):
            nearest_realizable_cell(params_va, params_va.r_passive, 2.94)

    def test_unrealizable_arc_raises(self, params_va, monkeypatch):
        # phases opposite the amplitude peak are not on the reflection locus
        assert np.isnan(phase_capacitance(params_va, -5.0, 2.94))
        monkeypatch.setattr(circuit, "MAX_PHASE_NUDGE", 0.0)
        with pytest.raises(PhaseNotRealizableError):
            nearest_realizable_cell(params_va, -5.0, 2.94)


class TestResistanceRange:
    def test_positive_everywhere(self, params_fig2):
        phis = np.linspace(0.0, TWO_PI, 3600, endpoint=False)
        f = resistance_range(params_fig2, phis)
        assert np.all(f > 0.0)

    def test_discriminant_vanishes_at_boundary(self, params_fig2):
        rng = np.random.default_rng(3)
        for phi in rng.uniform(0.0, TWO_PI, 50):
            f = resistance_range(params_fig2, phi)
            if not np.isfinite(f):
                continue
            qa, qb, qc = circuit._phase_quadratic(params_fig2, -f, phi)
            disc = qb * qb - 4.0 * qa * qc
            scale = max(abs(qb * qb), abs(4.0 * qa * qc))
            assert abs(disc) / scale < 1e-6

    def test_lower_bound_clears_diode_band(self, params_fig2):
        # the softer-diode band reaches -3.7 ohm and must stay feasible
        phis = np.linspace(0.0, TWO_PI, 3600, endpoint=False)
        f = resistance_range(params_fig2, phis)
        assert f.min() >= 3.7


class TestFeasibilityCondition:
    def test_reference_sets_feasible(self, params_va, params_fig2):
        assert feasibility_condition(params_va)
        assert feasibility_condition(params_fig2)

    def test_violating_set_found_by_search(self):
        # searched over inductance grids: this combination produces a phase
        # with vanishing usable resistance range (checked via a plain
        # namespace because the constructor refuses to build it)
        from types import SimpleNamespace

        bad = SimpleNamespace(
            l1=1.2154742500762884e-11,
            l2=8.227241341700457e-07,
            z0=377.0,
            omega=TWO_PI * 2.4e9,
            r0=1.5,
            v0=0.1,
            c_range=(0.05e-12, 250e-12),
            r_passive=1.5,
        )
        assert not feasibility_condition(bad)

    def test_constructor_rejects_violating_set(self):
        with pytest.raises(ValueError):
            CircuitParams(l1=1.2154742500762884e-11, l2=8.227241341700457e-07)


class TestAmplitudeBounds:
    def test_upper_bound_attained_at_most_negative_resistance(self, params_va):
        rng = np.random.default_rng(9)
        phis = rng.uniform(0.0, TWO_PI, 30)
        phis = phis[np.isfinite(phase_capacitance(params_va, -5.0, phis))]
        lo, hi = exact_amplitude_bounds(params_va, phis)
        r_min, r_max = usable_resistance_band(params_va, phis)
        c = phase_capacitance(params_va, r_min, phis)
        assert np.abs(reflection(params_va, r_min, c)) == pytest.approx(hi, rel=1e-12)
        c = phase_capacitance(params_va, r_max, phis)
        assert np.abs(reflection(params_va, r_max, c)) == pytest.approx(lo, rel=1e-12)

    def test_peak_amplification_factor(self, params_va):
        # a single active element can supply as much gain as ~30 passive ones
        phis = np.linspace(0.0, TWO_PI, 3600, endpoint=False)
        best = np.nanmax(exact_amplitude_bounds(params_va, phis)[1])
        assert best == pytest.approx(30.0, rel=0.05)

    def test_bound_curves_peak_together(self, params_fig2):
        from actris.reflection import exact_bound_curves

        phis, lower, upper = exact_bound_curves(params_fig2, "active")
        assert abs(int(np.nanargmax(upper)) - int(np.nanargmax(lower))) <= 1


class TestCircuitFromGamma:
    def test_forward_inverse_identity(self, params_va):
        rng = np.random.default_rng(33)
        rs, cs = random_band_cells(params_va, rng, 1000)
        g = reflection(params_va, rs, cs)
        r, c, ok = circuit_from_gamma(params_va, g)
        assert ok.all()
        assert r == pytest.approx(rs, rel=1e-9)
        assert c == pytest.approx(cs, rel=1e-9)
        g_back = reflection(params_va, r, c)
        assert np.all(np.abs(g_back - g) <= 1e-9 * np.maximum(1.0, np.abs(g)))

    def test_passive_sweep_recovers_nonnegative_resistance(self, params_va):
        cs = np.linspace(0.9e-12, 6.0e-12, 100)
        g = reflection(params_va, params_va.r_passive, cs)
        r, _, ok = circuit_from_gamma(params_va, g)
        assert ok.all() and np.all(r >= 0.0)
        assert r == pytest.approx(np.full(100, params_va.r_passive), rel=1e-9)

    def test_noncapacitive_target_rejected(self, params_va):
        r, c, ok = circuit_from_gamma(params_va, np.exp(1j * 2.94))
        assert not ok and np.isnan(r) and np.isnan(c)

    def test_inversion_pole_rejected(self, params_va):
        # targets within 1e-13 of the pole, approached from eight directions
        w_l1 = params_va.omega * params_va.l1
        pole = -(w_l1 + 1j * params_va.z0) / (1j * params_va.z0 - w_l1)
        near = pole + 1e-13 * np.exp(1j * np.linspace(0.0, TWO_PI, 8, endpoint=False))
        r, c, ok = circuit_from_gamma(params_va, np.append(near, 0.0))
        assert ok.tolist() == [False] * 8 + [True]
        assert np.isnan(r[:8]).all() and np.isnan(c[:8]).all()


class TestPhaseIdentity:
    def test_thousand_random_feasible_pairs(self, params_va):
        rng = np.random.default_rng(44)
        rs, cs = random_band_cells(params_va, rng, 1000)
        phis = np.angle(reflection(params_va, rs, cs)) % TWO_PI
        c_back = phase_capacitance(params_va, rs, phis)
        realized = np.angle(reflection(params_va, rs, c_back)) % TWO_PI
        worst = np.max(np.abs((realized - phis + np.pi) % TWO_PI - np.pi))
        assert worst < 1e-6

    def test_amplification_exists_beyond_passive_ceiling(self, params_va):
        lo, hi = exact_amplitude_bounds(params_va, 5.9271)
        assert hi > 0.99
