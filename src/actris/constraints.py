"""Shared validation of finished designs against the optimization constraints."""

import numpy as np

from . import circuit

AMPLITUDE_TOL = 1e-6
POWER_TOL = 1e-9


def validate_design(scenario, fits, v, design):
    """Check a finished design against the problem constraints.

    Returns a list of human-readable violations (empty when valid): transmit
    power within budget, one entry per cell in every per-cell array, every
    resistance finite, every negative resistance of an active cell inside
    the diode band (r >= 0 is the passive-side fallback), the power the
    cells' resistances draw within budget and equal to the recorded power,
    every capacitance inside c_range, and the amplitude each active cell's
    circuit delivers inside the exact bounds at the phase it delivers
    (phases without an exact bound are not checked). The violations of one
    cell share one line. Only the circuits r and c are read; fits is not
    used.
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
        r, c = design.r, design.c
        band_lo, band_hi = circuit.diode_band(params)
        c_lo, c_hi = params.c_range
        active = np.flatnonzero(mask)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = circuit.reflection(params, r[active], c[active])
            amp, phase = np.abs(g), np.angle(g) % circuit.TWO_PI
            lo, hi = circuit.exact_amplitude_bounds(params, phase)
            below = mask & (r < band_lo * (1.0 + 1e-9))
            above = mask & (r < 0.0) & (r > band_hi * (1.0 - 1e-9))
        faults = [[] for _ in range(mask.size)]   # amplitude first
        # a NaN bound is not checked
        bad = (amp < lo - AMPLITUDE_TOL) | (amp > hi + AMPLITUDE_TOL)
        for i, a, p, lo_i, hi_i in zip(active[bad], amp[bad], phase[bad], lo[bad], hi[bad]):
            faults[i].append(f"amplitude {a:.6f} outside exact [{lo_i:.6f}, {hi_i:.6f}] "
                             f"at phase {p:.4f}")
        for i in np.flatnonzero(~np.isfinite(r)):
            faults[i].append(f"resistance {r[i]} ohm is not finite")
        for i in np.flatnonzero(below | above):
            side, edge = ("below", band_lo) if below[i] else ("above", band_hi)
            faults[i].append(f"resistance {r[i]:.6g} ohm {side} the diode band edge {edge:.6g} ohm")
        for i in np.flatnonzero(~((c >= c_lo) & (c <= c_hi))):
            faults[i].append(f"capacitance {c[i]:.6g} F outside [{c_lo:.6g}, {c_hi:.6g}] F")
        power = float(circuit.power_consumption(r[mask & np.isfinite(r) & ~below], params).sum())
        if abs(power - recorded) > POWER_TOL:
            problems.append(f"recorded surface power {recorded:.6g} W differs from the "
                            f"{power:.6g} W the cells draw")
        problems += [f"element {i}: {'; '.join(f)}" for i, f in enumerate(faults) if f]
    if power > scenario.p_ris_w + POWER_TOL:
        problems.append(
            f"surface power {power:.6g} W exceeds budget {scenario.p_ris_w:.6g} W"
        )
    return problems
