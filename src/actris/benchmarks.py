"""Comparison schemes: budget-matched GA and PSO over the raw circuit
variables, and the phase-amplitude-independent ablation of the decoupled
design."""

from dataclasses import dataclass, replace

import numpy as np

from . import circuit, reflection
from .ao import _linear_power
from .channel import rate_lmmse
from .do import cascade_norm_objective, decoupled_design, do_amplitude_max


@dataclass(frozen=True)
class MetaheuristicBudget:
    """Population size and iteration count matched to the AO complexity."""

    k: int
    p: int
    evaluations: int
    target: float


def budget_from_ao(scenario, j_alt=20, j_p=2):
    """Derive (K, P) so K*P rate evaluations match the AO complexity budget.

    The per-evaluation cost model is N*M_T*M_R + d*M_R^3 and the AO target is
    J_alt * j_P * N^3.5; K starts at 40 and is adjusted when rounding
    P alone would miss the +/-10 percent matching window.
    """
    n, m_t, m_r, d = scenario.n, scenario.m_t, scenario.m_r, scenario.d
    unit = n * m_t * m_r + d * m_r**3
    target = j_alt * j_p * n**3.5
    k = 40
    p = max(1, round(target / (k * unit)))
    if abs(k * p * unit - target) / target > 0.1:
        k = max(2, round(target / (p * unit)))
        p = max(1, round(target / (k * unit)))
    if abs(k * p * unit - target) / target > 0.1:
        raise ValueError(
            f"cannot match the complexity budget within 10 percent: N = {n}, "
            f"j_alt = {j_alt} give the target {target:.6g}, the closest K*P*unit "
            f"is {k * p * unit:.6g}"
        )
    return MetaheuristicBudget(k=k, p=p, evaluations=k * p, target=target)


def run_paido(scenario, ch, fits, rng):
    """Decoupled design that ignores the phase-amplitude coupling.

    Phases are optimized with amplitudes frozen at their phase-independent
    maxima (the reflection becomes linear in the phasors). Amplitudes are
    then raised by do_amplitude_max on the constant box [delta_min,
    beta_max], linearized between the band_hi and band_lo powers, and
    clamped back into the phase-dependent bounds of the power surrogate
    before the power repair.
    """
    zeros = np.zeros(fits.n, dtype=complex)
    obj = replace(cascade_norm_objective(ch, fits, np.ones(fits.n)),
                  z2=zeros, z1=fits.beta_max.astype(complex), z=zeros)
    const = _linear_power(scenario.circuit, fits.active_mask, fits.delta_min, fits.beta_max,
                          circuit.diode_band(scenario.circuit)[0])
    return decoupled_design(
        scenario, ch, fits, rng, obj,
        lambda surrogate, budget: np.clip(do_amplitude_max(const, budget),
                                          surrogate[2], surrogate[3]),
    )


class _CircuitSearchSpace:
    """Shared encoding, decoding and repair for the metaheuristics.

    Decision vector: diode resistances of the active cells, capacitances of
    all cells, then the precoder entries as interleaved real/imaginary
    parts. Constraint handling is by repair: the precoder is rescaled into
    the transmit budget and circuit.relax_to_budget relaxes the most
    power-hungry resistances toward the low-power band edge until the
    surface budget holds; a budget below the minimum-bias power raises
    InfeasibleBudgetError.

    decode, repair and fitness work on a population: a (K, dim)
    stack of decision vectors, one row per individual.
    """

    def __init__(self, scenario, ch, fits):
        self.scenario = scenario
        self.ch = ch
        self.fits = fits
        params = scenario.circuit
        self.params = params
        self.active = np.flatnonzero(fits.active_mask)
        self.n_act = self.active.size
        n = scenario.n
        self.n = n
        band_lo, band_hi = circuit.diode_band(params)
        self.ceiling = circuit.power_ceiling(params)
        v_len = 2 * scenario.m_t * scenario.d
        vmax = np.sqrt(scenario.p_t_w)
        self.lower = np.concatenate([
            np.full(self.n_act, band_lo),
            np.full(n, params.c_range[0]),
            np.full(v_len, -vmax),
        ])
        self.upper = np.concatenate([
            np.full(self.n_act, band_hi),
            np.full(n, params.c_range[1]),
            np.full(v_len, vmax),
        ])
        self.dim = self.lower.size

    def decode(self, x):
        """(r, c, v) of a stack; c and the precoders v are views of the
        stack's genes, so an edit of v is an edit of x."""
        k = x.shape[0]
        r = np.full((k, self.n), self.params.r_passive)
        r[:, self.active] = x[:, : self.n_act]
        c = x[:, self.n_act : self.n_act + self.n]
        v = x[:, self.n_act + self.n :].view(complex).reshape(
            k, self.scenario.m_t, self.scenario.d
        )
        return r, c, v

    def repair(self, x):
        """Project a population onto the constraint set; returns the repaired
        stack together with the decoded design pieces, one row each. The
        repair edits the clipped stack in place, so a repaired row decodes
        to exactly the pieces returned with it."""
        x = np.minimum(np.maximum(x, self.lower), self.upper)
        r, c, v = self.decode(x)
        genes = x[:, self.n_act + self.n :]
        tx = np.einsum("ij,ij->i", genes, genes)
        loud = tx > self.scenario.p_t_w
        if loud.any():
            # one real scale of a row's genes rescales its precoder, their view
            genes[loud] *= np.sqrt(self.scenario.p_t_w / tx[loud])[:, None]
        # a row the ceiling clears draws at most its ceiling total, so only
        # rows near the budget need the exact power
        ceiling = self.ceiling(r[:, self.active]).sum(axis=1)
        near = np.flatnonzero(ceiling > self.scenario.p_ris_w + 1e-12)
        if near.size:
            rows = r[near]
            circuit.relax_to_budget(self.params, rows, self.scenario.p_ris_w)
            r[near] = rows
            x[near, : self.n_act] = rows[:, self.active]
        gamma = circuit.reflection(self.params, r, c)
        return x, r, c, v, gamma

    def fitness(self, x):
        """Repair and score a population: (repaired stack, rates). A repaired
        row decodes to exactly the design it was scored at."""
        x, _, _, v, gamma = self.repair(x)
        return x, rate_lmmse(self.ch, v, gamma, self.scenario)


@dataclass
class BenchmarkResult:
    v: np.ndarray
    design: reflection.RISDesign
    rate: float
    iterations: int


def _finalize(space, best_x, best_rate, iterations):
    """The result of the winning repaired vector best_x, decoded once."""
    (r,), (c,), (v,) = space.decode(best_x[None])
    design = reflection.delivered_design(space.params, space.fits, r, c)
    return BenchmarkResult(v=v, design=design, rate=best_rate, iterations=iterations)


def run_ga(scenario, ch, fits, budget, rng):
    """Real-coded genetic algorithm over the circuit variables.

    Tournament selection of size two, uniform blend crossover, Gaussian
    mutation at rate 1/dimension with a step of 5 percent of each range, and
    single-individual elitism. The initial population is one uniform draw
    over the box. Each generation breeds its K - 1 children from four array
    draws, in this order: the tournament index pairs (parent A's row, then
    parent B's; ties go to the first index), the blend weights, the mutation
    mask and the mutation noise. It then scores them in one population call.
    """
    space = _CircuitSearchSpace(scenario, ch, fits)
    k, p, dim = budget.k, budget.p, space.dim
    pop, fitness = space.fitness(rng.uniform(space.lower, space.upper, size=(k, dim)))
    sigma = 0.05 * (space.upper - space.lower)
    best_idx = int(np.argmax(fitness))
    best_fit, best_x = fitness[best_idx], pop[best_idx].copy()
    for _ in range(p - 1):
        elite = np.argsort(fitness)[::-1][:1]
        pairs = rng.integers(0, k, size=(2, k - 1, 2))
        u = rng.uniform(0.0, 1.0, size=(k - 1, dim))
        mutate = rng.uniform(size=(k - 1, dim)) < 1.0 / dim
        noise = rng.standard_normal((k - 1, dim))
        i, j = pairs[..., 0], pairs[..., 1]
        pa, pb = pop[np.where(fitness[i] >= fitness[j], i, j)]
        blend = u * pa + (1.0 - u) * pb
        children = np.where(mutate, blend + sigma * noise, blend)  # repair clips into the box
        kids, kid_fit = space.fitness(children)
        pop = np.concatenate([pop[elite], kids])
        fitness = np.concatenate([fitness[elite], kid_fit])
        gen_best = int(np.argmax(fitness))
        if fitness[gen_best] > best_fit:
            best_fit, best_x = fitness[gen_best], pop[gen_best].copy()
    return _finalize(space, best_x, float(best_fit), p)


def run_pso(scenario, ch, fits, budget, rng):
    """Global-best particle swarm with inertia 0.72 and both pulls at 1.49.

    Particles move one after another, each pulled toward the global best as
    it stands after the moves before it. A sweep therefore moves and scores
    the remaining particles as one population against the current global
    best and accepts them in order; at the first particle that improves the
    global best, the rest are moved and scored again from the new one.
    """
    space = _CircuitSearchSpace(scenario, ch, fits)
    k, p = budget.k, budget.p
    omega, c1, c2 = 0.72, 1.49, 1.49
    x, fit = space.fitness(rng.uniform(space.lower, space.upper, size=(k, space.dim)))
    vel = np.zeros_like(x)
    span = space.upper - space.lower
    pbest = x.copy()
    pbest_fit = fit.copy()
    gbest_fit, g = -np.inf, None
    for i in range(k):
        if fit[i] > gbest_fit:
            gbest_fit, g = fit[i], i
    gbest = x[g].copy()
    for _ in range(p - 1):
        pulls = rng.uniform(size=(k, 2, space.dim))
        i = 0
        while i < k:
            moved = (
                omega * vel[i:]
                + c1 * pulls[i:, 0] * (pbest[i:] - x[i:])
                + c2 * pulls[i:, 1] * (gbest - x[i:])
            )
            moved = np.minimum(np.maximum(moved, -span), span)
            cand, fit = space.fitness(x[i:] + moved)  # clipped by repair
            better = np.flatnonzero(fit > gbest_fit)
            m = better[0] + 1 if better.size else fit.size
            vel[i : i + m] = moved[:m]
            x[i : i + m] = cand[:m]
            up = np.flatnonzero(fit[:m] > pbest_fit[i : i + m])
            pbest_fit[i + up] = fit[up]
            pbest[i + up] = cand[up]
            if better.size:
                gbest_fit, gbest = fit[m - 1], cand[m - 1].copy()
            i += m
    return _finalize(space, gbest, float(gbest_fit), p)
