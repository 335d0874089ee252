"""Shared validation of finished designs against the optimization constraints."""

import numpy as np

from . import circuit

AMPLITUDE_TOL = 1e-6
POWER_TOL = 1e-9


def validate_design(scenario, fits, v, design):
    """Check a finished design against the problem constraints.

    Returns a list of human-readable violations (empty when valid): transmit
    power within budget, one entry per cell in every per-cell array, the
    power the cells' resistances draw within budget and equal to the
    recorded power, every capacitance inside c_range, and the amplitude each
    active cell's circuit delivers inside the exact bounds at the phase it
    delivers (phases without an exact bound are not checked). Only the
    circuits r and c are read; fits is not used.
    """
    problems = []
    tx = float(np.trace(v.conj().T @ v).real)
    if tx > scenario.p_t_w + POWER_TOL:
        problems.append(f"transmit power {tx:.6g} W exceeds budget {scenario.p_t_w:.6g} W")

    params, mask = scenario.circuit, design.active_mask
    power = recorded = float(design.ris_power_w)
    cells = (("phases", design.phi), ("normalized amplitudes", design.alpha_bar),
             ("reflection targets", design.gamma), ("resistances", design.r),
             ("capacitances", design.c))
    wrong = [f"{np.size(values)} {name}" for name, values in cells
             if np.shape(values) != mask.shape]
    if wrong:
        listed = wrong[0] if len(wrong) == 1 else f"{', '.join(wrong[:-1])} and {wrong[-1]}"
        problems.append(f"{listed} for {mask.size} cells")
    else:
        try:
            power = float(circuit.power_consumption(design.r[mask], params).sum())
        except ValueError as exc:   # a resistance below the diode band
            problems.append(f"surface power: {exc}")
        if abs(power - recorded) > POWER_TOL:
            problems.append(f"recorded surface power {recorded:.6g} W differs from the "
                            f"{power:.6g} W the cells draw")
        c_lo, c_hi = params.c_range
        for i in np.flatnonzero(~((design.c >= c_lo) & (design.c <= c_hi))):
            problems.append(f"element {i}: capacitance {design.c[i]:.6g} F outside "
                            f"[{c_lo:.6g}, {c_hi:.6g}] F")
        active = np.flatnonzero(mask)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = circuit.reflection(params, design.r[active], design.c[active])
            amp, phase = np.abs(g), np.angle(g) % circuit.TWO_PI
            lo, hi = circuit.exact_amplitude_bounds(params, phase)
        # a NaN bound is not checked
        bad = (amp < lo - AMPLITUDE_TOL) | (amp > hi + AMPLITUDE_TOL)
        for i, a, p, lo_i, hi_i in zip(active[bad], amp[bad], phase[bad], lo[bad], hi[bad]):
            problems.append(f"element {i}: amplitude {a:.6f} outside exact "
                            f"[{lo_i:.6f}, {hi_i:.6f}] at phase {p:.4f}")
    if power > scenario.p_ris_w + POWER_TOL:
        problems.append(
            f"surface power {power:.6g} W exceeds budget {scenario.p_ris_w:.6g} W"
        )
    return problems
