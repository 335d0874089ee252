"""Shared validation of finished designs against the optimization constraints."""

import numpy as np

from . import circuit

AMPLITUDE_TOL = 1e-6
POWER_TOL = 1e-9


def validate_design(scenario, fits, v, design):
    """Check a finished design against the problem constraints.

    Returns a list of human-readable violations (empty when valid): transmit
    power within budget, one circuit state per cell, the power the cells'
    resistances draw within budget and equal to the recorded power, and
    every reflection amplitude inside its phase-dependent band. Model-space
    designs are checked against the cosine bounds, circuit-space ones
    against the exact bounds at their realized phases.
    """
    problems = []
    tx = float(np.trace(v.conj().T @ v).real)
    if tx > scenario.p_t_w + POWER_TOL:
        problems.append(f"transmit power {tx:.6g} W exceeds budget {scenario.p_t_w:.6g} W")

    mask = design.active_mask
    power = recorded = float(design.ris_power_w)
    if design.r.shape != mask.shape or design.c.shape != mask.shape:
        problems.append(f"{design.r.size} resistances and {design.c.size} capacitances "
                        f"for {mask.size} cells")
    else:
        try:
            power = float(circuit.power_consumption(design.r[mask], scenario.circuit).sum())
        except ValueError as exc:   # a resistance below the diode band
            problems.append(f"surface power: {exc}")
        if abs(power - recorded) > POWER_TOL:
            problems.append(f"recorded surface power {recorded:.6g} W differs from the "
                            f"{power:.6g} W the cells draw")
    if power > scenario.p_ris_w + POWER_TOL:
        problems.append(
            f"surface power {power:.6g} W exceeds budget {scenario.p_ris_w:.6g} W"
        )

    amp = np.abs(design.gamma)
    if design.band == "approx":
        lower, upper = fits.bounds(design.phi)
        bad = (amp < lower - AMPLITUDE_TOL) | (amp > upper + AMPLITUDE_TOL)
        for i in np.flatnonzero(bad):
            problems.append(
                f"element {i}: amplitude {amp[i]:.6f} outside "
                f"[{lower[i]:.6f}, {upper[i]:.6f}] at phase {design.phi[i]:.4f}"
            )
    else:
        active = np.flatnonzero(design.active_mask)
        lo, hi = circuit.exact_amplitude_bounds(scenario.circuit, design.phi[active])
        # phases without exact bounds (NaN) are not checked
        bad = (amp[active] < lo - AMPLITUDE_TOL) | (amp[active] > hi + AMPLITUDE_TOL)
        for i, lo_i, hi_i in zip(active[bad], lo[bad], hi[bad]):
            problems.append(
                f"element {i}: amplitude {amp[i]:.6f} outside exact "
                f"[{lo_i:.6f}, {hi_i:.6f}] at phase {design.phi[i]:.4f}"
            )
    return problems
