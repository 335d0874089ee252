"""Workloads and the measured passes of the benchmark.

Every input is generated exactly the way ``harness.run_experiment``
generates it. A run is cut into blocks; a block is one ``ExperimentSpec``, so
it is also a task set that ``run_experiment`` can run on its own. The first
``core_blocks`` blocks are the same for every seed and are the ones timed:
per-trial cost varies twentyfold between channel draws, so timings over the
few trials a run holds are only comparable on shared inputs. The blocks after
the core are drawn from the run's seed; they are run, validated, scored and
sent through the pool, so every seed checks the program on inputs of its own.

Pass A runs each (sweep value, trial) task of each block in this process,
scheme by scheme, through ``harness.run_scheme`` and
``constraints.validate_design``. Pass B sends whole blocks through
``harness.run_experiment`` on a worker pool. Scoring happens after both
passes, identically for every scheme, at the reflection the design's circuits
deliver.
"""

import os
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

import reference
from actris import channel, circuit, constraints, harness, reflection

DESK = dict(m_t=4, m_r=4, d=4, n=16, n_act=16, p_ris_w=0.375)
# A reported rate scored on circuits must equal the realized-rate scorer.
CIRCUIT_SCORED = ("GA", "PSO")
RATE_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: channel.ScenarioConfig
    rho_db: tuple
    schemes: tuple
    block_trials: int
    core_blocks: int
    must_call: tuple
    must_not_call: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-ao",
            why="paper size (8x8, N=64) with AO, DO and PAIDO; the CG phase "
                "solver dominates and the GA/PSO fitness path makes no calls",
            scenario=channel.ScenarioConfig(),
            rho_db=(-30.0,),
            schemes=("AO", "DO", "PAIDO"),
            block_trials=2,
            core_blocks=8,
            must_call=("ao.rmo_phase_opt", "ao.amplitude_qp"),
            must_not_call=("benchmarks.fitness",),
        ),
        Workload(
            name="desk-ao",
            why="desk size (4x4, N=16) at three SNRs with AO, AO-random-init, "
                "DO and PAIDO; the amplitude QP and projection weigh more",
            scenario=channel.ScenarioConfig(**DESK),
            rho_db=(-40.0, -30.0, -20.0),
            schemes=("AO", "AO-random-init", "DO", "PAIDO"),
            block_trials=1,
            core_blocks=5,
            must_call=("ao.rmo_phase_opt", "ao.amplitude_qp"),
            must_not_call=("benchmarks.fitness",),
        ),
        Workload(
            name="desk-search",
            why="desk size with GA and PSO; the circuit-space fitness path "
                "runs and the AO solvers make no calls",
            scenario=channel.ScenarioConfig(**DESK),
            rho_db=(-30.0,),
            schemes=("GA", "PSO"),
            block_trials=4,
            core_blocks=4,
            must_call=("benchmarks.fitness",),
            must_not_call=("ao.rmo_phase_opt", "ao.amplitude_qp"),
        ),
    )
}


def nproc():
    return len(os.sched_getaffinity(0))


def fit_classes(params):
    """Active and passive class fits, as the harness fits them per run."""
    return (
        reflection.fit_amplitude_model(params, "active"),
        reflection.fit_amplitude_model(params, "passive"),
    )


def block_spec(workload, seed, block, threads=1):
    """The ExperimentSpec of block `block` of a run seeded with `seed`."""
    entropy = [block] if block < workload.core_blocks else [seed, block]
    block_seed = int(np.random.SeedSequence(entropy).generate_state(1)[0])
    return harness.ExperimentSpec(
        scenario=replace(workload.scenario, seed=block_seed),
        sweep_kind="rho_db",
        sweep_values=workload.rho_db,
        variants=tuple(harness.SchemeVariant(s, s) for s in workload.schemes),
        trials=workload.block_trials,
        threads=threads,
        record_timing=True,
    )


def block_tasks(spec):
    """(sweep index, trial index) pairs in run_experiment's order."""
    return [(si, ti) for si in range(len(spec.sweep_values)) for ti in range(spec.trials)]


@dataclass
class SchemeRun:
    """One scheme on one task: the harness row fields plus what scoring needs."""

    block: int
    trial: int
    scheme: str
    sweep_value: float
    rate_bps_hz: float = 0.0
    ris_power_w: float = 0.0
    tx_power_w: float = 0.0
    iterations_used: int = 0
    error: str = ""
    message: str = ""
    invalid: bool = False
    scenario: channel.ScenarioConfig = None
    ch: channel.MimoChannels = None
    v: np.ndarray = None
    design: reflection.RISDesign = None


def row_key(row):
    """The fields a harness ResultRow and a SchemeRun share, for comparison."""
    return (row.trial, row.scheme, row.sweep_value, row.rate_bps_hz,
            row.ris_power_w, row.tx_power_w, row.iterations_used, row.error)


def run_task(spec, block, class_fits, si, ti):
    """Every scheme of one task, generated and validated as run_experiment does."""
    seed = spec.scenario.seed
    sweep_value = float(spec.sweep_values[si])
    runs = []
    for vi, variant in enumerate(spec.variants):
        scenario = spec.scenario.with_rho_db(sweep_value)
        ch, mask = harness.trial_channels(scenario, seed, si, ti)
        fits = reflection.ElementFits.from_classes(*class_fits, mask)
        rng = np.random.default_rng(
            np.random.SeedSequence([seed & 0xFFFFFFFF, si, ti, 1 + vi])
        )
        run = SchemeRun(block=block, trial=ti, scheme=variant.label, sweep_value=sweep_value)
        try:
            rate, v, design, iterations = harness.run_scheme(
                variant.scheme, scenario, ch, fits, rng,
                j_alt=spec.j_alt, eps=spec.eps, ga_j_p=spec.ga_j_p,
            )
            problems = constraints.validate_design(scenario, fits, v, design)
        except Exception as exc:  # every failure is counted and kept, with its message
            run.error, run.message = type(exc).__name__, f"{type(exc).__name__}: {exc}"
            runs.append(run)
            continue
        if problems:
            run.error, run.message = "SimulationError", "; ".join(problems)
            run.invalid = True
        else:
            run.rate_bps_hz = rate
            run.ris_power_w = float(design.ris_power_w)
            run.tx_power_w = float(np.trace(v.conj().T @ v).real)
            run.iterations_used = int(iterations)
            run.scenario, run.ch, run.v, run.design = scenario, ch, v, design
        runs.append(run)
    return runs


@dataclass
class PassA:
    runs: list = field(default_factory=list)
    trial_s: list = field(default_factory=list)
    reference_s: list = field(default_factory=list)
    block_s: list = field(default_factory=list)
    core_trials: int = 0
    wall_s: float = 0.0

    def speed(self):
        """Median machine speed during the pass, relative to the reference."""
        return reference.REFERENCE_S / statistics.median(self.reference_s)

    def scaled_trial_s(self):
        """Trial times scaled to the reference machine speed, each by the
        mean of the reference times taken just before and just after it."""
        ref = self.reference_s
        return [t * 2.0 * reference.REFERENCE_S / (ref[i] + ref[i + 1])
                for i, t in enumerate(self.trial_s)]


def run_pass_a(workload, seed, class_fits, seconds, blocks=None):
    """Run the core blocks, then seeded blocks until `seconds` have passed and
    at least one seeded block is done; or run exactly `blocks` blocks."""
    start = time.perf_counter()
    out = PassA(reference_s=[reference.calibrate()])
    block = 0
    while True:
        elapsed = time.perf_counter() - start
        if block == workload.core_blocks:
            out.core_trials = len(out.trial_s)
        if blocks is None:
            done = block > workload.core_blocks and elapsed >= seconds
        else:
            done = block == blocks
        if done:
            out.wall_s = elapsed
            return out
        spec = block_spec(workload, seed, block)
        block_time = 0.0
        for si, ti in block_tasks(spec):
            t0 = time.perf_counter()
            out.runs.extend(run_task(spec, block, class_fits, si, ti))
            dt = time.perf_counter() - t0
            out.trial_s.append(dt)
            out.reference_s.append(reference.calibrate())
            block_time += dt
        out.block_s.append(block_time)
        block += 1


@dataclass
class PassB:
    rows: list = field(default_factory=list)
    trials: int = 0
    wall_s: float = 0.0
    busy_s: float = 0.0
    workers: int = 1
    crash: str = ""


def run_pass_b(workload, seed, blocks, workers):
    """Send the given pass-A blocks through run_experiment on `workers`
    processes."""
    out = PassB(workers=workers)
    for block in blocks:
        spec = block_spec(workload, seed, block, threads=workers)
        t0 = time.perf_counter()
        try:
            rows = harness.run_experiment(spec)
        except Exception as exc:  # a crash in the pool is a correctness failure
            out.crash = f"block {block}: {type(exc).__name__}: {exc}"
            break
        out.wall_s += time.perf_counter() - t0
        out.rows.append((block, rows))
        out.trials += len(block_tasks(spec))
        out.busy_s += sum(r.wall_ms for r in rows) / 1e3
    return out


def realized_rate(run):
    """Rate at the reflection the design's circuits deliver."""
    params = run.scenario.circuit
    gamma = np.array([circuit.reflection_coeff(params, cell) for cell in run.design.cells])
    return channel.rate_lmmse(run.ch, run.v, gamma, run.scenario)


def score(runs):
    """Realized rate per run (0 for a failed run), and the model gap per run."""
    realized, gap = [], []
    for run in runs:
        if run.design is None:
            realized.append(0.0)
            gap.append(None)
            continue
        r = realized_rate(run)
        realized.append(r)
        gap.append(run.rate_bps_hz - r)
    return realized, gap


def check_runs(pass_a, realized):
    """Correctness problems of pass A: invalid designs and circuit-scored
    schemes whose reported rate is not their realized rate."""
    problems = []
    for run, r in zip(pass_a.runs, realized):
        where = f"block {run.block} trial {run.trial} rho {run.sweep_value:g} {run.scheme}"
        if run.invalid:
            problems.append(f"{where}: design fails validate_design: {run.message}")
        if run.design is not None and run.scheme in CIRCUIT_SCORED:
            if abs(run.rate_bps_hz - r) > RATE_MATCH_TOL:
                problems.append(
                    f"{where}: reported rate {run.rate_bps_hz!r} != realized {r!r}"
                )
    return problems


def check_pool(pass_a, pass_b):
    """Pass-B rows must equal pass A exactly, row by row."""
    problems = []
    if pass_b.crash:
        problems.append(f"pass B crashed: {pass_b.crash}")
    by_block = {}
    for run in pass_a.runs:
        by_block.setdefault(run.block, []).append(row_key(run))
    for block, rows in pass_b.rows:
        expected = by_block.get(block, [])
        got = [row_key(r) for r in rows]
        if got != expected:
            problems.append(f"block {block}: pass-B rows differ from pass A: "
                            f"{_first_difference(expected, got)}")
    return problems


def _first_difference(expected, got):
    for a, b in zip(expected, got):
        if a != b:
            return f"pass A {a} vs pass B {b}"
    return f"{len(expected)} rows in pass A vs {len(got)} in pass B"
