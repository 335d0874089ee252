"""Benchmark of the actris Monte Carlo trial loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-ao --seed 1 --seconds 20 --trace 0

Builds nothing: it imports the package from ./src. With --trace 0 it prints
the end-to-end metrics; with --trace 1 it wraps the package's functions from
outside and prints the per-layer metrics instead, among them one pool block
timed with BLAS threads as the environment sets them (pool_probe.py), which
the measured passes do not do. Trial times are scaled to
the speed of a reference machine, measured next to each trial (see
reference.py); the unscaled figures are printed beside them. Either way it runs every
correctness check and prints, as its last line, one JSON object with keys
correct, attempted, failed and metrics. It exits 1 when a check fails and 2
when the program cannot be loaded.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path

# The benchmark's modules that import actris are imported inside functions,
# once load_program() has put ./src on the path.
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7        # cold set-ups per run, split around the passes
UNPINNED_DEADLINE_S = 30  # the unpinned pool block of a traced run is cut here

END_TO_END = (
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("trial_ms.p50", "ms"),
    ("trial_ms.tail", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("rate_realized", "bps/Hz"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_program():
    """Put ./src first on the path and check that actris comes from there."""
    init = SRC / "actris" / "__init__.py"
    if not init.is_file():
        fail(f"{init} not found; run from a checkout with src/")
    sys.path.insert(0, str(SRC))
    import actris

    if Path(actris.__file__).resolve() != init.resolve():
        fail(f"actris imported from {actris.__file__}, not {init}")


def environment():
    import numpy as np

    from blas import threads
    from workloads import nproc

    build = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{build.get('name', '?')} {build.get('version', '?')}",
        "blas_threads": f"{threads()} (set-up and the unpinned pool probe; "
                        "passes A and B run on 1)",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def measure_setup(workload, repeats):
    """Import plus both class fits, timed in `repeats` fresh interpreters."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def unpinned_pool(wl, seed, workers):
    """(seconds, problem) of the first seeded block through the pool with BLAS
    threads as the environment sets them; seconds is None when the block
    passes the deadline or the probe fails."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "pool_probe.py"), str(SRC), wl.name, str(seed), str(workers)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=UNPINNED_DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the probe and its pool workers
        proc.communicate()
        return None, ""
    if proc.returncode != 0:
        return None, f"unpinned pool probe exited with {proc.returncode}: {err.strip()[-500:]}"
    return float(out.split()[-1]), ""


def run_workload(wl, seed, seconds, traced):
    """Set-up, pass A (traced and then untraced when traced), pass B, scoring.

    Both passes run with OpenBLAS on one thread. In process, the default
    thread count makes trial times swing by up to a third between identical
    runs. The pool forks its workers from this process, so they inherit the
    setting: with the default count every worker starts nproc BLAS threads,
    and the same 18 paper-size scheme runs took from 6 to 57 s on two
    workers, so a run could not be held to its time limit.
    """
    import blas
    import layers
    import workloads as w
    from tracer import Tracer

    workers = w.nproc()
    tracer = Tracer() if traced else None
    res = {"tracer": tracer}
    with blas.single_threaded():
        if tracer is not None:
            layers.install(tracer)
            with tracer.span(layers.ROOT_SETUP):
                class_fits = w.fit_classes(wl.scenario.circuit)
            with tracer.span(layers.ROOT_PASS_A):
                res["traced_a"] = w.run_pass_a(wl, seed, class_fits, seconds)
            tracer.uninstall()
            res["stats"] = tracer.stats()
            res["a"] = w.run_pass_a(wl, seed, class_fits, seconds,
                                    blocks=len(res["traced_a"].block_s))
        else:
            class_fits = w.fit_classes(wl.scenario.circuit)
            res["a"] = w.run_pass_a(wl, seed, class_fits, seconds)
        # the first seeded block, so that the pool sees inputs of this seed
        res["b"] = w.run_pass_b(wl, seed, [wl.core_blocks], workers)
    if traced:
        res["unpinned_s"], res["unpinned_problem"] = unpinned_pool(wl, seed, workers)
    res["realized"], res["gap"] = w.score(res["a"].runs)
    return res


def checks(wl, res):
    import workloads as w

    a, b = res["a"], res["b"]
    problems = w.check_runs(a, res["realized"]) + w.check_pool(a, b)
    tracer = res["tracer"]
    if tracer is not None:
        traced = [w.row_key(r) for r in res["traced_a"].runs]
        if traced != [w.row_key(r) for r in a.runs]:
            problems.append("traced and untraced pass A gave different rows")
        stats = res["stats"]
        for name in wl.must_call:
            if stats.get(name, (0,))[0] == 0:
                problems.append(f"self-check: {name} made no calls on {wl.name}")
        for name in wl.must_not_call:
            calls = stats.get(name, (0,))[0]
            if calls:
                problems.append(f"self-check: {name} made {calls} calls on {wl.name}")
    return problems


def counts(res):
    """Scheme runs attempted and failed over passes A and B."""
    a, b = res["a"], res["b"]
    rows = [r for _, block_rows in b.rows for r in block_rows]
    attempted = len(a.runs) + len(rows)
    failed = sum(bool(r.error) for r in a.runs) + sum(bool(r.error) for r in rows)
    return attempted, failed


def end_to_end(wl, res, setup_samples):
    from stats import harrell_davis, tail

    a = res["a"]
    attempted, failed = counts(res)
    core_s = a.scaled_trial_s()[:a.core_trials]
    raw_s = a.trial_s[:a.core_trials]
    tail_s, pct, n = tail(core_s)
    # on the core only: the same inputs in every run, so a drop in quality shows
    # without the seeded blocks' spread (up to 0.065 of the median on desk-search)
    core = [r for run, r in zip(a.runs, res["realized"]) if run.block < wl.core_blocks]
    values = {
        "setup_s": statistics.median(setup_samples),
        "trials_per_s": a.core_trials / sum(core_s),
        "trial_ms.p50": 1e3 * harrell_davis(core_s, 0.5),
        "trial_ms.tail": 1e3 * tail_s,
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rate_realized": sum(core) / len(core),
    }
    notes = {
        "setup_s": "samples " + " ".join(f"{s:.4f}" for s in setup_samples),
        "trials_per_s": (f"{a.core_trials} core trials; unscaled "
                         f"{a.core_trials / sum(raw_s):.4g}/s; machine speed "
                         f"{a.speed():.3f} of the reference; "
                         f"{len(a.trial_s)} trials in pass A"),
        "trial_ms.p50": (f"Harrell-Davis median of {len(core_s)} core trials; "
                         f"unscaled {1e3 * harrell_davis(raw_s, 0.5):.6g} ms"),
        "trial_ms.tail": f"Harrell-Davis p{pct:.1f} of {n} core trials",
        "ok_frac": f"{failed} of {attempted} scheme runs failed over passes A and B",
        "rate_realized": f"mean over the {len(core)} scheme runs of the core, a failed run counting 0",
    }
    return values, notes


def per_layer(res):
    import layers

    a, b, traced_a = res["a"], res["b"], res["traced_a"]
    values = layers.layer_values(res["tracer"], res["stats"])
    values.update(layers.scheme_values(a.runs, res["realized"], res["gap"]))
    covered = sum(a.block_s[block] for block, _ in b.rows)
    traced_tps = len(traced_a.trial_s) / traced_a.wall_s
    untraced_tps = len(a.trial_s) / a.wall_s
    pool_wall = b.wall_s or float("inf")   # a crashed pass B measured nothing
    values.update({
        "harness.pool_trials_per_s": b.trials / pool_wall,
        "harness.run_experiment.total_s": b.wall_s,
        "harness.speedup_2w": covered / pool_wall,
        "harness.pool_busy_frac": b.busy_s / (b.workers * pool_wall),
        "harness.unpinned_pool_trials_per_s":
            b.trials / (res["unpinned_s"] or UNPINNED_DEADLINE_S),
        "trace.trials_per_s": traced_tps,
        "trace.untraced_trials_per_s": untraced_tps,
        "trace.overhead_frac": untraced_tps / traced_tps - 1.0,
    })
    return values


def report_trace(wl, seed, res, values):
    """Print binding sites and the self-time accounting; save the spans."""
    import layers

    tracer, stats = res["tracer"], res["stats"]
    for name, sites in tracer.sites.items():
        print(f"sites {name}: {', '.join(sites)}")
    for name in tracer.absent:
        print(f"absent {name}: not found in the program; reported as 0")
    problems = [res["unpinned_problem"]] if res["unpinned_problem"] else []
    if res["unpinned_s"] is None:
        print(f"unpinned pool: no time within {UNPINNED_DEADLINE_S} s; "
              "its rate is reported as an upper bound")
    else:
        print(f"unpinned pool: {res['unpinned_s']:.3f} s for the block pass B ran in "
              f"{res['b'].wall_s:.3f} s with BLAS on one thread")
    accounted = sum(s[2] for s in stats.values()) - stats[layers.ROOT_SETUP][1]
    wall = res["traced_a"].wall_s
    overhead = values["trace.overhead_frac"]
    print(f"accounting: wrapped self times + other.self_s = {accounted:.6f} s; "
          f"pass-A wall = {wall:.6f} s; tracing overhead {100 * overhead:.1f}%")
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{wl.name}-{seed}.npz")
    if abs(accounted - wall) > max(overhead, 0.0) * wall + 1e-3:
        problems.append("traced self times do not add up to the pass-A wall time")
    return problems


def main(argv=None):
    args = parse_args(argv)
    load_program()
    import layers
    import workloads as w

    if args.workload not in w.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(w.WORKLOADS)}")
    wl = w.WORKLOADS[args.workload]
    for key, value in environment().items():
        print(f"env {key} = {value}")
    print(f"workload {wl.name}: {wl.why}")

    before = SETUP_REPEATS // 2 + 1
    setup_samples = None if args.trace else measure_setup(wl.name, before)
    res = run_workload(wl, args.seed, args.seconds, bool(args.trace))
    if setup_samples is not None:
        setup_samples += measure_setup(wl.name, SETUP_REPEATS - before)
    problems = checks(wl, res)
    a = res["a"]
    for run in a.runs:
        if run.error:
            print(f"failed run: block {run.block} trial {run.trial} "
                  f"rho {run.sweep_value:g} {run.scheme}: {run.message}")
    for block, rows in res["b"].rows:
        for r in rows:
            if r.error:
                print(f"failed pool row: block {block} trial {r.trial} "
                      f"rho {r.sweep_value:g} {r.scheme}!{r.error}")
    per_scheme = layers.scheme_values(a.runs, res["realized"], res["gap"])
    for s in wl.schemes:
        print(f"scheme {s}: rate_realized {per_scheme[f'rate_realized.{s}']:.4f} bps/Hz, "
              f"reported - realized {per_scheme[f'reflection.model_gap.{s}']:.4f} bps/Hz")

    if args.trace:
        values, notes = per_layer(res), {}
        units = dict(layers.metric_names())
        problems += report_trace(wl, args.seed, res, values)
    else:
        values, notes = end_to_end(wl, res, setup_samples)
        units = dict(END_TO_END)
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {values[name]:.6g} {unit}{note}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"checks: {len(problems)} failed" if problems else "checks: all passed")

    attempted, failed = counts(res)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
