"""Cosine-fit phase-amplitude model and circuit realization of designs.

The exact amplitude bounds of the circuit model are fitted once per element
class with shifted cosines; the resulting closed form is what the optimizers
differentiate. The fit coefficients make the N-element reflection vector a
quadratic polynomial in the unit-modulus phasors (the Kronecker-structured
form collapses to it elementwise); designs are then realized cell by cell.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import circuit
from .circuit import CellState, TWO_PI
from .errors import CircuitError, ConfigError


@dataclass(frozen=True)
class FitParams:
    """Cosine-approximation coefficients for one element class.

    delta_min/delta_max bound the lower amplitude curve, beta_min/beta_max
    the upper one; theta is minus the phase at which both curves peak. For a
    passive class the two curves coincide.
    """

    delta_min: float
    delta_max: float
    beta_min: float
    beta_max: float
    theta: float

    def __post_init__(self):
        if not (self.delta_min <= self.delta_max <= self.beta_max + 1e-12):
            raise ValueError("fit requires delta_min <= delta_max <= beta_max")
        if not (self.delta_min <= self.beta_min + 1e-12):
            raise ValueError("fit requires delta_min <= beta_min")

    def to_dict(self):
        return {
            "delta_min": self.delta_min,
            "delta_max": self.delta_max,
            "beta_min": self.beta_min,
            "beta_max": self.beta_max,
            "theta_rad": self.theta,
        }


def exact_bound_curves(params, kind, grid_size=3600):
    """Exact amplitude bounds swept over a uniform phase grid.

    Returns (phis, lower, upper); grid points on the unrealizable arc of the
    reflection locus are NaN. For the passive class both curves are the
    single passive amplitude curve.
    """
    phis = np.linspace(0.0, TWO_PI, grid_size, endpoint=False)
    if kind == "passive":
        amp = circuit.phase_amplitude(params, params.r_passive, phis)
        return phis, amp, amp.copy()
    if kind != "active":
        raise ValueError(f"unknown element class {kind!r}")
    return (phis, *circuit.exact_amplitude_bounds(params, phis))


def fit_amplitude_model(params, kind="active", grid_size=3600):
    """Fit the cosine amplitude model for an element class.

    Sweeps the exact bounds over a uniform grid, takes the grid extrema as
    the fit coefficients, and sets theta to minus the phase of the upper
    curve's maximum. A warning is emitted if the two curves peak more than
    one grid step apart. An active class whose diode band is empty at some
    grid phase has no model to fit and raises ConfigError.
    """
    if grid_size < 360:
        raise ConfigError(f"fitting grid must have at least 360 points, not {grid_size}")
    phis, lower, upper = exact_bound_curves(params, kind, grid_size)
    if kind == "active":
        empty = np.isnan(circuit.usable_resistance_band(params, phis)[0])
        if empty.any():
            band_lo, band_hi = circuit.diode_band(params)
            raise ConfigError(f"the diode band [{band_lo:.4g}, {band_hi:.4g}] ohm is empty at "
                              f"{empty.mean():.1%} of phases: no resistance in it meets "
                              f"|R| <= F(phi) there (r0 = {params.r0:g} ohm)")
    if not np.isfinite(upper).any():
        raise CircuitError("no realizable phase found while fitting")
    i_up = int(np.nanargmax(upper))
    i_lo = int(np.nanargmax(lower))
    if min(abs(i_up - i_lo), grid_size - abs(i_up - i_lo)) > 1:
        warnings.warn(
            "amplitude curves peak at different phases "
            f"({phis[i_up]:.4f} vs {phis[i_lo]:.4f})",
            stacklevel=2,
        )
    return FitParams(
        delta_min=float(np.nanmin(lower)),
        delta_max=float(np.nanmax(lower)),
        beta_min=float(np.nanmin(upper)),
        beta_max=float(np.nanmax(upper)),
        theta=float(-phis[i_up]),
    )


@lru_cache(maxsize=64)
def class_fits(params):
    """(active, passive) fits of the hardware, once per process: CircuitParams
    is frozen and hashable, and a pool forked after the first call inherits them."""
    return fit_amplitude_model(params, "active"), fit_amplitude_model(params, "passive")


def approx_amplitude_bounds(fit, phi):
    """Cosine-model amplitude interval (lower, upper) at phase phi; fit is a
    FitParams or an ElementFits."""
    cos_term = np.cos(np.asarray(phi, dtype=float) + fit.theta) + 1.0
    lower = 0.5 * (fit.delta_max - fit.delta_min) * cos_term + fit.delta_min
    upper = 0.5 * (fit.beta_max - fit.beta_min) * cos_term + fit.beta_min
    return lower, upper


def _controls(fits, lower, upper, alpha):
    """Normalized controls of amplitudes alpha in the box [lower, upper],
    clipped to [0, 1] and zero on passive cells."""
    span = np.where(upper > lower, upper - lower, 1.0)
    alpha_bar = np.clip((alpha - lower) / span, 0.0, 1.0)
    alpha_bar[~fits.active_mask] = 0.0
    return alpha_bar


def normalized_amplitude(fits, phi, alpha):
    """_controls of amplitudes alpha in the cosine box at phases phi."""
    return _controls(fits, *fits.bounds(phi), alpha)


class ElementFits:
    """Per-element fit coefficients for an RIS with mixed active/passive cells.

    Each coefficient array holds the active class's value on active_mask and
    the passive class's elsewhere. x is the amplitude-range excess of the
    upper curve over the lower one and is zero for passive elements, which
    makes their entries independent of the normalized amplitude control.
    """

    def __init__(self, active_fit, passive_fit, active_mask):
        self.active_mask = np.asarray(active_mask, dtype=bool)
        self.n = self.active_mask.size
        for name in ("delta_min", "delta_max", "beta_min", "beta_max", "theta"):
            setattr(self, name, np.where(
                self.active_mask, getattr(active_fit, name), getattr(passive_fit, name)
            ))
        self.y = self.delta_max - self.delta_min
        self.x = (self.beta_max - self.beta_min) - self.y

    @classmethod
    def from_classes(cls, active_fit, passive_fit, active_mask):
        return cls(active_fit, passive_fit, active_mask)

    def bounds(self, phi):
        """Per-element (lower, upper) amplitude bounds at phases phi."""
        return approx_amplitude_bounds(self, phi)

    def coefficients(self, alpha_bar):
        """Quadratic-polynomial coefficients (z2, z1, z) of the reflection vector.

        With p the vector of unit-modulus phasors, gamma = z2*p^2 + z1*p + z
        elementwise for the given normalized amplitudes.
        """
        alpha_bar = np.asarray(alpha_bar, dtype=float)
        mix = self.y + self.x * alpha_bar
        z2 = 0.25 * np.exp(1j * self.theta) * mix
        z1 = (
            0.5 * self.y
            + self.delta_min
            + (0.5 * self.x + self.beta_min - self.delta_min) * alpha_bar
        ).astype(complex)
        z = 0.25 * np.exp(-1j * self.theta) * mix
        return z2, z1, z


@dataclass(init=False)
class RISDesign:
    """Finalized surface configuration: controls, target reflection, circuits.

    gamma is the reflection the design targets; r and c are the realized
    resistance and capacitance of every cell, and what the cells deliver is
    read from them alone. cells reads them as a tuple of CellState, and a
    tuple of CellState may be passed as cells= in their place.
    """

    phi: np.ndarray
    alpha_bar: np.ndarray
    active_mask: np.ndarray
    gamma: np.ndarray
    r: np.ndarray
    c: np.ndarray
    ris_power_w: float
    repair_passes: int = 1

    def __init__(self, phi, alpha_bar, active_mask, gamma, r=None, c=None, *,
                 ris_power_w, repair_passes=1, cells=None):
        if cells is not None:
            r, c = [cell.r for cell in cells], [cell.c for cell in cells]
        self.phi = phi
        self.alpha_bar = alpha_bar
        self.active_mask = active_mask
        self.gamma = gamma
        self.r = np.asarray(r, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.ris_power_w = ris_power_w
        self.repair_passes = repair_passes

    @property
    def cells(self):
        return tuple(CellState(r=r, c=c) for r, c in zip(self.r.tolist(), self.c.tolist()))


FALLBACK_RUNGS = 80  # 0.97 shrinks tried before the passive nudge
FALLBACK_SHRINK = 0.97


def _fallback_cells(params, gamma):
    """Nearest passive-side realizations (r, c) of reflection targets.

    The cosine model keeps a collapsed near-unit amplitude band on the
    unrealizable arc of the reflection locus; targets there (and in the
    narrow non-capacitive sliver around them) are realized at a reduced
    amplitude with nonnegative resistance, which draws no bias power. Each
    target is shrunk by 0.97 up to 80 times (one stack of rungs) and takes
    the first rung that is capacitive with r >= 0; a target no rung serves
    gets the passive resistance at the nearest realizable phase of its last
    rung.
    """
    shrink = np.full((FALLBACK_RUNGS + 1, gamma.size), FALLBACK_SHRINK, dtype=complex)
    shrink[0] = gamma
    rungs = np.multiply.accumulate(shrink, axis=0)[1:]
    r, c, ok = circuit.circuit_from_gamma(params, rungs)
    win = ok & (r >= 0.0)
    first = win.argmax(axis=0)
    cols = np.arange(gamma.size)
    r, c = r[first, cols], c[first, cols]
    nudge = ~win[first, cols]
    if nudge.any():
        r[nudge] = params.r_passive
        c[nudge], _ = circuit.nearest_realizable_cell(
            params, params.r_passive, np.angle(rungs[-1, nudge])
        )
    return r, c


def circuit_design(params, fits, phi, alpha_bar, gamma, r, c):
    """RISDesign of realized circuits (r, c) at phases phi with normalized
    controls alpha_bar and target reflection gamma: a copy of the active
    mask, and the true power the active cells draw."""
    return RISDesign(
        phi=phi,
        alpha_bar=alpha_bar,
        active_mask=fits.active_mask.copy(),
        gamma=gamma,
        r=r,
        c=c,
        ris_power_w=float(circuit.power_consumption(r[fits.active_mask], params).sum()),
    )


def delivered_design(params, fits, r, c):
    """RISDesign of circuits (r, c) that records the reflection they deliver:
    gamma, its phases and the normalized controls of its amplitudes."""
    gamma = circuit.reflection(params, r, c)
    phi = np.angle(gamma) % TWO_PI
    return circuit_design(params, fits, phi, normalized_amplitude(fits, phi, np.abs(gamma)),
                          gamma, r, c)


def _linear_power(params, active, lower, upper, r_min):
    """Per-element linear power surrogate (p_min, slope, lower, upper) on the
    amplitude box [lower, upper]: an active cell draws the band_hi power at
    its lower amplitude and the power of r_min at its upper one (r_min holds
    the active cells' resistances, or one for all of them); zeros for
    passive elements."""
    n = lower.size
    p_min = np.zeros(n)
    slope = np.zeros(n)
    if active.any():
        powers = circuit.power_consumption(np.append(r_min, circuit.diode_band(params)[1]),
                                           params)
        p_hi, p_lo = powers[:-1], powers[-1]
        span = upper[active] - lower[active]
        p_min[active] = p_lo
        # a collapsed band pins the amplitude, so only the floor power counts
        slope[active] = np.where(span > 1e-12, (p_hi - p_lo) / np.maximum(span, 1e-12), 0.0)
    return p_min, slope, lower, upper


class Realizer:
    """What the cells can do at phases phi, worked out once per phase vector.

    Construction computes the phasors, the cosine box [lower, upper] (one
    fits.bounds call), the passive cells' capacitances and the active
    index; the linear power surrogate is built when first read, and the
    active cells' band-edge capacitances when a target first clips. Every
    kernel works elementwise, so every realization has the bits of a fresh
    Realizer's, and each cell the bits it would get on its own.
    """

    def __init__(self, params, fits, phi):
        self.params, self.fits = params, fits
        self.phi = np.asarray(phi, dtype=float)
        self.phasor = np.exp(1j * self.phi)
        self.lower, self.upper = fits.bounds(self.phi)
        self.c_fixed = np.empty(self.phi.size)
        passive = ~fits.active_mask
        if passive.any():
            self.c_fixed[passive], _ = circuit.nearest_realizable_cell(
                params, params.r_passive, self.phi[passive]
            )
        self.act = np.flatnonzero(fits.active_mask)
        self.edge_c = None   # (2, active cells): phase_capacitance at band_lo, band_hi

    @cached_property
    def surrogate(self):
        """_linear_power on the box, whose upper amplitudes sit at the most
        negative usable resistance max(-F(phi), band_lo)."""
        params, active = self.params, self.fits.active_mask
        r_min = np.maximum(-circuit.resistance_range(params, self.phi[active]),
                           circuit.diode_band(params)[0])
        return _linear_power(params, active, self.lower, self.upper, r_min)

    def __call__(self, alpha):
        """The design realizing amplitudes alpha at the phases.

        Active cells are inverted from their target reflection coefficient.
        The tunable resistance saturates at the diode band edges: a negative
        resistance outside the band is clipped to it and the capacitance
        re-solved at the target phase, so the cell keeps the phase and
        delivers the nearest achievable amplitude (the band-edge one), like
        a passive cell delivers its own curve. Targets that no capacitance
        realizes, or whose clipped cell misses the phase, take the
        passive-side fallback (_fallback_cells). Passive cells keep their
        fixed resistance and realize the nearest achievable phase. Every
        capacitance is then clipped into c_range. The recorded gamma is the
        target; the circuits deliver what the exact curves allow, and the
        design records the true total power drawn.
        """
        params, act = self.params, self.act
        alpha = np.asarray(alpha, dtype=float)
        gamma = alpha * self.phasor
        band_lo, band_hi = circuit.diode_band(params)
        ra, ca, ok = circuit.circuit_from_gamma(params, gamma[act])
        clip = ok & (ra < 0.0) & ((ra < band_lo) | (ra > band_hi))
        if clip.any():
            if self.edge_c is None:
                edges = np.repeat([[band_lo], [band_hi]], act.size, axis=1)
                self.edge_c = circuit.phase_capacitance(params, edges,
                                                        np.tile(self.phi[act], (2, 1)))
            i = np.flatnonzero(clip)
            edge = (ra[i] > band_hi).astype(np.intp)   # 0: below band_lo, 1: above band_hi
            ra[i] = np.where(edge, band_hi, band_lo)
            ca[i] = self.edge_c[edge, i]
            ok &= ~np.isnan(ca)
        if not ok.all():
            ra[~ok], ca[~ok] = _fallback_cells(params, gamma[act[~ok]])
        return self._design(_controls(self.fits, self.lower, self.upper, alpha), gamma, ra, ca)

    def minimum_power(self):
        """Minimum-bias configuration: every active diode at its lowest power.

        Active cells sit at the least negative band resistance (their exact
        lower amplitude curve) and the phase nearest phi; the recorded
        reflection keeps the cosine-model floor, whose normalized controls
        are zero, and can overstate the delivered amplitude by the fit
        error. The terminal fallback when the budget leaves no amplitude
        slack.
        """
        band_hi = circuit.diode_band(self.params)[1]
        ca, _ = circuit.nearest_realizable_cell(self.params, band_hi, self.phi[self.act])
        return self._design(np.zeros(self.fits.n), self.lower * self.phasor, band_hi, ca)

    def _design(self, alpha_bar, gamma, ra, ca):
        """circuit_design with the active cells at (ra, ca), the passive ones
        at their fixed circuits, and every capacitance clipped into c_range."""
        params = self.params
        r = np.full(self.phi.size, params.r_passive)
        c = self.c_fixed.copy()
        r[self.act], c[self.act] = ra, ca
        return circuit_design(params, self.fits, self.phi, alpha_bar, gamma, r,
                              np.clip(c, *params.c_range))
