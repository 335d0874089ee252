"""Unit-cell physics of a tunnel-diode active RIS element.

Everything is derived from the transmission-line model: a bottom-layer
inductance in parallel with a series branch (top-layer inductance, tunable
capacitance, tunable resistance). A negative resistance realized by a tunnel
diode biased at its stability point turns the cell into a reflection
amplifier. All quantities are SI internally.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CircuitError, InfeasibleBudgetError, PhaseNotRealizableError
from .numerics import lambert_w0

TWO_PI = 2.0 * np.pi

# Diode exponent band: the stability-point resistance is only realizable for
# steepness exponents in this interval.
M_LO = 1.0
M_HI = 3.0


@dataclass(frozen=True)
class CircuitParams:
    """Fixed hardware constants of one unit cell.

    l1, l2     bottom/top layer inductances (H)
    z0         free-space impedance (ohm)
    omega      angular frequency of the incident carrier (rad/s)
    r0         diode ohmic resistance in the linear region (ohm)
    v0         diode voltage scale (V)
    c_range    tunable capacitance interval (F)
    r_passive  fixed positive resistance of passive cells (ohm)
    """

    l1: float = 4.5e-9
    l2: float = 0.7e-9
    z0: float = 377.0
    omega: float = TWO_PI * 2.4e9
    r0: float = 1.5
    v0: float = 0.1
    c_range: tuple = (0.05e-12, 250e-12)
    r_passive: float = 1.5

    def __post_init__(self):
        for name in ("l1", "l2", "z0", "omega", "r0", "v0", "r_passive"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"CircuitParams.{name} must be finite and positive")
        c_lo, c_hi = self.c_range
        if not 0.0 < c_lo < c_hi < np.inf:
            raise ValueError("CircuitParams.c_range must satisfy 0 < C_lo < C_hi < inf")
        if not feasibility_condition(self):
            raise ValueError(
                "circuit constants admit a phase with zero usable resistance range"
            )


@dataclass(frozen=True)
class CellState:
    """Realized (resistance, capacitance) of one cell. r < 0 means active."""

    r: float
    c: float


def fig2_params():
    """Parameter set of the amplitude-bound study (softer diode, r0 = 0.5)."""
    return CircuitParams(r0=0.5)


def _impedance(p, r, c):
    series = 1j * p.omega * p.l2 + 1.0 / (1j * p.omega * c) + r
    return (1j * p.omega * p.l1 * series) / (1j * p.omega * p.l1 + series)


def reflection(p, r, c):
    """Reflection coefficients of cells at resistances r and capacitances c,
    elementwise: the mismatch (Z - Z0) / (Z + Z0) of the cell impedance Z."""
    z = _impedance(p, r, c)
    return (z - p.z0) / (z + p.z0)


def reflection_coeff(p, cell):
    """Reflection coefficient of one CellState; raises at c <= 0 and at the
    reflection pole Z = -Z0."""
    if cell.c <= 0.0:
        raise CircuitError("capacitance must be positive")
    if abs(_impedance(p, cell.r, cell.c) + p.z0) < 1e-12 * p.z0:
        raise CircuitError("impedance equals -Z0: reflection pole (infeasible state)")
    return complex(reflection(p, cell.r, cell.c))


def stable_resistance(m, p):
    """Stability-point negative resistance for steepness exponent m.

    Strictly increasing in m: the m-band [1, 3] maps to the usable
    resistance band [stable_resistance(1), stable_resistance(3)].
    """
    m = np.asarray(m, dtype=float)
    if np.any(m < M_LO) or np.any(m > M_HI):
        raise ValueError(f"steepness exponent outside [{M_LO}, {M_HI}]")
    out = -(p.r0 / m) * np.exp((m + 1.0) / m)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=64)
def diode_band(p):
    """Usable diode resistances (band_lo, band_hi) of the exponent band [M_LO, M_HI].

    Cached per hardware: CircuitParams is frozen and hashable.
    """
    return stable_resistance(M_LO, p), stable_resistance(M_HI, p)


def m_from_resistance(r, p):
    """Invert the stability-point relation: exponent m realizing resistance r."""
    band_lo, band_hi = diode_band(p)
    tol = 1e-9 * abs(band_lo)
    if not band_lo - tol <= r <= band_hi + tol:
        raise ValueError(
            f"resistance {r} outside the diode band [{band_lo:.4f}, {band_hi:.4f}]"
        )
    return 1.0 / lambert_w0(-r / (p.r0 * np.e))


def power_consumption(r, p):
    """DC power drawn to bias cells at resistances r, elementwise.

    Zero for passive (r >= 0) cells. On the negative axis the power law is
    strictly decreasing in r. Resistances below the m = 1 band edge raise.
    A float for a scalar r.
    """
    r = np.asarray(r, dtype=float)
    band_lo = diode_band(p)[0]
    if np.any(r < band_lo * (1.0 + 1e-9)):
        raise ValueError(f"resistance {r.min()} below the diode band edge {band_lo:.4f}")
    w = lambert_w0(np.maximum(-r, 0.0) / (p.r0 * np.e))
    # np.power, not **: a float's ** calls libm pow, whose last bit can differ
    out = np.where(r < 0.0, (p.v0**2 / p.r0) * np.power(w + 1.0, 2.0 * w), 0.0)
    return float(out) if out.ndim == 0 else out


CEILING_POINTS = 257


@lru_cache(maxsize=64)
def power_ceiling(p):
    """Upper bound on the computed power_consumption over the diode band.

    Returns a function of resistances r in [band_lo, band_hi], elementwise.
    The power is tabulated at CEILING_POINTS evenly spaced resistances over
    the band; a cell at r gets the tabulated power one grid point further
    toward band_lo than the grid point at or below r, times (1 + 1e-9). The
    bound rests only on the power being strictly decreasing in r: the extra
    grid step absorbs rounding in the grid index, the margin the ulp-level
    non-monotonicity of Lambert W near band_lo. A screen that decides which
    cells need the exact power, never a reported power.

    Cached per hardware, so the table is built at the first call.
    """
    band_lo, band_hi = diode_band(p)
    step = (band_hi - band_lo) / (CEILING_POINTS - 1)
    grid = np.linspace(band_lo, band_hi, CEILING_POINTS)
    table = power_consumption(grid, p) * (1.0 + 1e-9)

    def ceiling(r):
        i = np.floor((np.asarray(r, dtype=float) - band_lo) / step).astype(np.intp) - 1
        return table[np.clip(i, 0, CEILING_POINTS - 1)]

    return ceiling


RELAX_HALVINGS = 60  # narrow any diode band down to adjacent doubles


def relax_to_budget(p, r, budget):
    """Relax rows (k, n) of cell resistances, in place, into the surface
    budget; returns the mask of rows that moved.

    A row within budget + 1e-12 keeps its bits. A row over it moves its most
    power-hungry cells (ties to the lower index) to the band_hi floor while
    its excess is at least what the cell can give, less 1e-15 W; the next
    cell moves only as far as the budget needs: RELAX_HALVINGS halvings of
    [band_lo, band_hi] keep the end whose power fits and stop at a midpoint
    within 1e-15 W of the power the budget leaves the cell; the halving
    stops early once every interval is frozen (each midpoint rounds onto an
    end), from where no halving could move an end. Passive (r >= 0)
    cells draw nothing and never move. A row over the budget with every cell
    at or below the floor power raises InfeasibleBudgetError.
    """
    k, n = r.shape
    band_lo, band_hi = diode_band(p)
    floor = power_consumption(band_hi, p)
    powers = power_consumption(r, p)
    order = np.argsort(-powers, axis=1, kind="stable")
    # the cells in the order they move, then a floor-power stop
    s = np.append(np.take_along_axis(powers, order, axis=1), np.full((k, 1), floor), axis=1)
    # each row's total before each move, added up as a cell-by-cell loop adds it
    totals = np.cumsum(np.append(powers.sum(axis=1)[:, None], floor - s[:, :-1], axis=1), axis=1)
    over = totals > budget + 1e-12
    target = s - (totals - budget)
    stop = (~over | (s <= floor) | (target > floor + 1e-15)).argmax(axis=1)
    rows = np.arange(k)
    last = over[rows, stop]
    stuck = np.flatnonzero(last & (s[rows, stop] <= floor))
    if stuck.size:
        i = stuck[0]
        raise InfeasibleBudgetError(
            f"surface budget {budget:.6g} W is below the minimum-bias power "
            f"{totals[i, stop[i]]:.6g} W of the {np.count_nonzero(r[i] < 0.0)} active cells"
        )
    to_floor = np.zeros((k, n), dtype=bool)
    np.put_along_axis(to_floor, order, np.arange(n) < stop[:, None], axis=1)
    r[to_floor] = band_hi
    part = np.flatnonzero(last)
    want = target[part, stop[part]]
    lo, hi = np.full(part.size, band_lo), np.full(part.size, band_hi)
    for _ in range(RELAX_HALVINGS if part.size else 0):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break   # every interval is frozen: no later halving moves an end
        f = power_consumption(mid, p) - want
        hit = np.abs(f) <= 1e-15   # both ends close on it, so it stays
        lo, hi = np.where(hit | (f > 0.0), mid, lo), np.where(hit | (f <= 0.0), mid, hi)
    r[part, order[part, stop[part]]] = hi
    return over[:, 0]


def _tan_coefficients(p):
    """Constants of the phase equation, grouped by their tan(phi) factors."""
    l1, l2, z0, w = p.l1, p.l2, p.z0, p.omega
    a3 = z0**2 - (w * l1) ** 2
    a2 = (z0 * w * (l1 + l2)) ** 2 - (w**2 * l1 * l2) ** 2
    a1 = 2.0 * z0 * w * l1
    a0 = 2.0 * z0 * w**3 * l1 * l2 * (l1 + l2)
    b1 = 2.0 * w**2 * l1**2 * l2 - 2.0 * z0**2 * (l1 + l2)
    b0 = -4.0 * z0 * w * l1 * l2 - 2.0 * z0 * w * l1**2
    c1 = z0**2 / w**2 - l1**2
    c0 = 2.0 * z0 * l1 / w
    return a3, a2, a1, a0, b1, b0, c1, c0


def _phase_quadratic(p, r, phi):
    """Coefficients (A, B, C) of A*C_n^2 + B*C_n + C = 0 for the target phase.

    The tan(phi) equation is cross-multiplied by cos(phi) so the
    coefficients stay finite at phi = pi/2 and 3*pi/2.
    """
    a3, a2, a1, a0, b1, b0, c1, c0 = _tan_coefficients(p)
    s, c = np.sin(phi), np.cos(phi)
    qa = (a3 * r**2 + a2) * s + (a1 * r**2 + a0) * c
    qb = b1 * s + b0 * c
    qc = c1 * s + c0 * c
    return qa, qb, qc


def resistance_range(p, phi):
    """Symmetric bound F(phi) >= |R| for the phase equation to have real roots."""
    a3, a2, a1, a0, b1, b0, c1, c0 = _tan_coefficients(p)
    phi = np.asarray(phi, dtype=float)
    s, c = np.sin(phi), np.cos(phi)
    qb = b1 * s + b0 * c
    qc = c1 * s + c0 * c
    num = qb**2 - 4.0 * (a2 * s + a0 * c) * qc
    den = 4.0 * qc * (a3 * s + a1 * c)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sqrt(np.abs(num / den))
    out = np.where(np.isfinite(out), out, np.inf)
    return float(out) if out.ndim == 0 else out


def feasibility_condition(p):
    """True iff F(phi) never vanishes, so every phase keeps a usable R range."""
    a3, a2, a1, a0, b1, b0, c1, c0 = _tan_coefficients(p)
    del a3, a1
    lhs = (2.0 * b1 * b0 - 4.0 * a2 * c0 - 4.0 * a0 * c1) ** 2
    rhs = 4.0 * (b1**2 - 4.0 * a2 * c1) * (b0**2 - 4.0 * a0 * c0)
    return bool(lhs - rhs <= 0.0)


def _phase_distance(a, b):
    return np.abs((a - b + np.pi) % TWO_PI - np.pi)


def phase_capacitance(p, r, phi):
    """Capacitance realizing reflection phase phi at resistance r, elementwise.

    Both positive roots of the phase quadratic are evaluated through the
    reflection coefficient; the spurious root realizes phi +/- pi. The root
    with the smaller phase error wins, ties to the first. NaN where no root
    lands within 1e-6 rad of phi: |R| beyond the feasible range, or a phase on
    the unrealizable arc of the reflection locus.
    """
    phi = np.asarray(phi, dtype=float) % TWO_PI
    qa, qb, qc = _phase_quadratic(p, np.asarray(r, dtype=float), phi)
    disc = qb * qb - 4.0 * qa * qc
    # cancellation-safe quadratic formula (qa passes through zero with phi;
    # at qa = 0 the second root is the linear one and the first is infinite)
    q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(disc, 0.0)), qb))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.stack(np.broadcast_arrays(q / qa, qc / q))
        valid = (roots > 0.0) & np.isfinite(roots) & (disc >= 0.0)
        realized = np.angle(reflection(p, r, roots)) % TWO_PI
        err = np.where(valid, _phase_distance(realized, phi), np.inf)
    c = np.where(err[1] < err[0], roots[1], roots[0])
    return np.where(np.minimum(err[0], err[1]) <= 1e-6, c, np.nan)[()]


def phase_amplitude(p, r, phi):
    """Reflection amplitude of the cell at resistance r that realizes phase
    phi, elementwise; NaN where no capacitance realizes it."""
    with np.errstate(invalid="ignore"):
        return np.abs(reflection(p, r, phase_capacitance(p, r, phi)))


def usable_resistance_band(p, phi):
    """Usable (most negative, least negative) resistances at phases phi.

    Intersects the symmetric feasibility bound |R| <= F(phi) with the
    diode-achievable interval and the R < 0 sign constraint. Both are NaN
    where the intersection is empty.
    """
    band_lo, band_hi = diode_band(p)
    r_min = np.maximum(-resistance_range(p, phi), band_lo)
    empty = band_hi < r_min
    return np.where(empty, np.nan, r_min)[()], np.where(empty, np.nan, band_hi)[()]


def exact_amplitude_bounds(p, phi):
    """Exact reflection-amplitude interval (lower, upper) at phases phi.

    The amplitude decreases with the (negative) resistance, so the upper
    bound is realized at the most negative usable resistance and the lower
    bound at the least negative one. Each bound is NaN where its own
    resistance realizes no capacitance at the phase.
    """
    r_min, r_max = usable_resistance_band(p, phi)
    return phase_amplitude(p, r_max, phi)[()], phase_amplitude(p, r_min, phi)[()]


def circuit_from_gamma(p, gamma):
    """Invert reflection coefficients into the realizing (R, C) pairs.

    Solves the series-branch reactance X = R + 1/(j*omega*C) in closed form
    and splits it into resistance and capacitance, elementwise. Returns
    (r, c, ok): ok is False at the inversion pole and where the target needs
    an inductive branch reactance (Im X >= 0, no capacitance realizes it);
    r and c are NaN there.
    """
    gamma = np.asarray(gamma, dtype=complex)
    l1, l2, w, z0 = p.l1, p.l2, p.omega, p.z0
    den = w * l1 * (1.0 - gamma) + 1j * z0 * (1.0 + gamma)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = w * (z0 * (l1 + l2) * (1.0 + gamma) + 1j * w * l1 * l2 * (gamma - 1.0)) / den
        ok = (np.abs(den) >= 1e-12 * z0) & (x.imag < 0.0)
        r = np.where(ok, x.real, np.nan)
        c = np.where(ok, 1.0 / (np.abs(x.imag) * w), np.nan)
    return r[()], c[()], ok[()]


MAX_PHASE_NUDGE = 0.5  # rad a fixed-resistance cell's phase is nudged at most


def nearest_realizable_cell(p, r, phi):
    """Capacitances at resistances r realizing the phases closest to phi.

    Phases on the unrealizable arc of the reflection locus are nudged
    outward, +step then -step with the step growing 1.6x from 2 mrad, until
    a capacitance root exists; a phase no step up to MAX_PHASE_NUDGE
    realizes raises PhaseNotRealizableError. Used when a configuration asks a
    fixed-resistance cell for a phase the hardware cannot hit exactly.
    Returns (c, offset), offset being each cell's phase nudge (0 if exact).
    """
    r, phi = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(phi, dtype=float))
    shape = phi.shape
    r, phi = r.ravel(), phi.ravel()
    c = phase_capacitance(p, r, phi)
    offset = np.zeros(c.size)
    miss = np.flatnonzero(np.isnan(c))
    step = 2e-3
    while miss.size and step <= MAX_PHASE_NUDGE:
        for sign in (1.0, -1.0):
            got = phase_capacitance(p, r[miss], phi[miss] + sign * step)
            hit = ~np.isnan(got)
            c[miss[hit]] = got[hit]
            offset[miss[hit]] = sign * step
            miss = miss[~hit]
            if not miss.size:
                break
        step *= 1.6
    if miss.size:
        i = miss[0]
        raise PhaseNotRealizableError(
            f"no phase within {MAX_PHASE_NUDGE} rad of {phi[i]:.4f} realizable at R={r[i]:.4f}"
        )
    return c.reshape(shape)[()], offset.reshape(shape)[()]
