"""Single-step decoupled design: phase by cascade-norm maximization,
amplitudes by budgeted sum maximization, then SVD precoding with
waterfilling. Serves standalone or as the initializer of the alternating
optimizer."""

from dataclasses import dataclass

import numpy as np

from . import reflection
from .ao import PhaseObjective, power_repair_loop, rmo_phase_opt
from .channel import effective_channel
from .errors import InfeasibleBudgetError


def waterfill(gains, p_t):
    """Waterfilling power allocation over parallel channels.

    gains are per-unit-power SINRs. The water level is exact (Telatar,
    Eur. Trans. Telecommun. 10(6), 1999): over the k strongest streams it
    is p_t plus their noise floors 1/g, over k, and the streams that take
    power are those whose floor lies below the level they share. Returns
    powers summing to p_t; zero gains get nothing, and all-zero gains or
    p_t <= 0 give all zeros.
    """
    gains = np.asarray(gains, dtype=float)
    if np.any(gains < 0.0):
        raise ValueError("channel gains must be nonnegative")
    p = np.zeros_like(gains)
    pos = gains > 0.0
    if p_t <= 0.0 or not pos.any():
        return p
    floor = np.sort(1.0 / gains[pos])
    level = (p_t + np.cumsum(floor)) / np.arange(1, floor.size + 1)
    # the strongest stream always takes power, also where p_t is below the
    # rounding of its floor (then every power rounds to zero)
    k = max(np.count_nonzero(level > floor), 1)
    p[pos] = np.maximum(level[k - 1] - 1.0 / gains[pos], 0.0)
    return p


def svd_precoder_combiner(ch, gamma, scenario):
    """Eigenmode precoder/combiner with waterfilled stream powers.

    Diagonalizes the effective channel, feeds the per-unit-power SINRs
    (surface-noise quadratic included) to waterfilling, and keeps only the
    streams that receive power: with every gain zero, v and the combiner
    have no columns.
    """
    heff = effective_channel(ch, gamma)
    u1, lam, u2h = np.linalg.svd(heff, full_matrices=False)
    d = min(scenario.d, lam.size)
    u1 = u1[:, :d]
    u2 = u2h.conj().T[:, :d]
    lam = lam[:d]
    h2g = ch.h_2 * np.asarray(gamma)[None, :]
    pickup = np.linalg.norm(h2g.conj().T @ u1, axis=0) ** 2
    noise = scenario.sigma2_w * scenario.f_r + scenario.sigma2_w * scenario.f_s * pickup
    gains = lam**2 / noise
    powers = waterfill(gains, scenario.p_t_w)
    keep = powers > 0.0
    v = u2[:, keep] * np.sqrt(powers[keep])[None, :]
    return v, u1[:, keep], gains, powers


def cascade_norm_objective(ch, fits, alpha_bar):
    """Phase objective whose minimization maximizes the effective-channel norm."""
    t = -(ch.h_2.conj().T @ ch.h_2) * (ch.h_1 @ ch.h_1.conj().T).T
    if np.any(ch.h_d):
        q = np.einsum("ij,ji->i", ch.h_2.conj().T, ch.h_d @ ch.h_1.conj().T)
    else:
        q = np.zeros(ch.h_1.shape[0], dtype=complex)
    z2, z1, z = fits.coefficients(alpha_bar)
    return PhaseObjective(t=t, q=q, z2=z2, z1=z1, z=z)


def do_amplitude_max(surrogate, budget):
    """Maximize the amplitude sum under a linearized power budget.

    surrogate is a (p_min, slope, lower, upper) linear power model
    (reflection._linear_power, as a reflection.Realizer's surrogate). Cells
    start at lower and draw p_min; those with a positive slope go up to
    upper in ascending slope until the budget is spent, which is the exact
    optimum of this box-constrained linear program.
    """
    p_min, slope, lower, upper = surrogate
    floor = p_min.sum()
    if floor > budget + 1e-12:
        raise InfeasibleBudgetError(
            f"minimum amplitudes already need {floor:.6g} W > budget {budget:.6g} W"
        )
    order = np.flatnonzero(slope > 0.0)
    order = order[np.argsort(slope[order], kind="stable")]
    cost = slope[order] * (upper[order] - lower[order])
    # budget left before each cell, subtracted in raising order
    left = np.subtract.accumulate(np.append(budget - floor, cost))[:-1]
    full = cost <= left
    k = order.size if full.all() else int(full.argmin())   # cells raised in full
    alpha = lower.copy()
    alpha[order[:k]] = upper[order[:k]]
    if k < order.size:
        alpha[order[k]] = lower[order[k]] + left[k] / slope[order[k]]
    return alpha


@dataclass
class DOResult:
    v: np.ndarray
    design: reflection.RISDesign
    stream_powers: np.ndarray


def decoupled_design(scenario, ch, fits, rng, obj, amplitudes):
    """One pass of the decoupled design: phases minimizing obj from random
    phasors, amplitudes(surrogate, budget) under the power repair, then SVD
    precoding."""
    phasor, _ = rmo_phase_opt(obj, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, fits.n)))
    phi = np.angle(phasor) % (2.0 * np.pi)
    design = power_repair_loop(scenario, fits, phi, amplitudes)
    v, _, _, powers = svd_precoder_combiner(ch, design.gamma, scenario)
    return DOResult(v=v, design=design, stream_powers=powers)


def run_do(scenario, ch, fits, rng):
    """Decoupled design on the effective-channel norm at full amplitude,
    with the amplitude-sum maximum under the budget."""
    return decoupled_design(
        scenario, ch, fits, rng, cascade_norm_objective(ch, fits, np.ones(fits.n)),
        do_amplitude_max,
    )
