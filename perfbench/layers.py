"""The traced layers, how they are wrapped, and the per-layer metrics."""

import inspect

import numpy as np

import reference
from actris import harness
from tracer import package_modules

# (metric prefix, defining module, function, time stat). Entry points report
# inclusive time, solver layers report self time.
FUNCTIONS = (
    ("ao.rmo_phase_opt", "actris.ao", "rmo_phase_opt", "self_s"),
    ("ao.amplitude_qp", "actris.ao", "amplitude_qp", "self_s"),
    ("ao.project_box_halfspace", "actris.ao", "project_box_halfspace", "self_s"),
    ("ao.power_repair_loop", "actris.ao", "power_repair_loop", "self_s"),
    ("ao.precoder_update", "actris.ao", "precoder_update", "self_s"),
    ("ao.update_auxiliaries", "actris.ao", "update_auxiliaries", "self_s"),
    ("ao.build_phase_objective", "actris.ao", "build_phase_objective", "self_s"),
    ("ao.feasible_amplitude_scale", "actris.ao", "feasible_amplitude_scale", "self_s"),
    ("ao.run_ao", "actris.ao", "run_ao", "total_s"),
    ("do.run_do", "actris.do", "run_do", "total_s"),
    ("do.do_amplitude_max", "actris.do", "do_amplitude_max", "self_s"),
    ("do.svd_precoder_combiner", "actris.do", "svd_precoder_combiner", "self_s"),
    ("benchmarks.run_ga", "actris.benchmarks", "run_ga", "total_s"),
    ("benchmarks.run_pso", "actris.benchmarks", "run_pso", "total_s"),
    ("benchmarks.run_paido", "actris.benchmarks", "run_paido", "total_s"),
    ("reflection.realize_design", "actris.reflection", "realize_design", "self_s"),
    ("reflection.realize_minimum_power", "actris.reflection", "realize_minimum_power", "self_s"),
    ("reflection.fit_amplitude_model", "actris.reflection", "fit_amplitude_model", "self_s"),
    ("circuit.circuit_from_gamma", "actris.circuit", "circuit_from_gamma", "self_s"),
    ("circuit.power_consumption_vec", "actris.circuit", "power_consumption_vec", "self_s"),
    ("circuit.power_consumption", "actris.circuit", "power_consumption", "self_s"),
    ("circuit.resistance_range", "actris.circuit", "resistance_range", "self_s"),
    ("numerics.lambert_w0_vec", "actris.numerics", "lambert_w0_vec", "self_s"),
    ("numerics.lambert_w0", "actris.numerics", "lambert_w0", "self_s"),
    ("numerics.bisect", "actris.numerics", "bisect", "self_s"),
    ("numerics.hermitian_eig", "actris.numerics", "hermitian_eig", "self_s"),
    ("numerics.svd", "actris.numerics", "svd", "self_s"),
    ("channel.rate_lmmse", "actris.channel", "rate_lmmse", "self_s"),
    ("channel.spectral_efficiency", "actris.channel", "spectral_efficiency", "self_s"),
    ("channel.sample_channels", "actris.channel", "sample_channels", "self_s"),
    ("constraints.validate_design", "actris.constraints", "validate_design", "self_s"),
    ("harness.run_scheme", "actris.harness", "run_scheme", "total_s"),
)

# (metric prefix, defining module, class, method)
METHODS = (
    ("benchmarks.fitness", "actris.benchmarks", "_CircuitSearchSpace", "fitness"),
    ("benchmarks.repair", "actris.benchmarks", "_CircuitSearchSpace", "repair"),
)

# Counted, not spanned: evaluations of the CG phase objective.
EVALS = ("ao.PhaseObjective.value", "actris.ao", "PhaseObjective", "value")

ROOT_SETUP = "setup"
ROOT_PASS_A = "passA"
REFERENCE = "bench.reference"


def _default(module, func, param, fallback):
    fn = getattr(module, func, None)
    try:
        return inspect.signature(fn).parameters[param].default
    except (TypeError, ValueError, KeyError):
        return fallback


def install(tracer):
    """Wrap every traced layer at all of its binding sites."""
    import actris

    modules = package_modules(actris)
    ao = modules.get("actris.ao")
    rmo_cap = _default(ao, "rmo_phase_opt", "max_iters", 300)
    qp_cap = _default(ao, "amplitude_qp", "max_iters", 5000)
    c = tracer.counters

    def on_rmo(result):
        iters = len(result[1]) - 1
        c["ao.rmo_phase_opt.iters"] += iters
        c["ao.rmo_phase_opt.capped"] += iters >= rmo_cap

    def on_qp(result):
        c["ao.amplitude_qp.iters"] += result.iterations
        c["ao.amplitude_qp.capped"] += result.iterations >= qp_cap

    def on_repair(result):
        key = "ao.power_repair_loop.passes_max"
        c[key] = max(c[key], result.repair_passes)

    def on_run_ao(result):
        c["ao.run_ao.outer_iters"] += result.iterations

    hooks = {
        "ao.rmo_phase_opt": on_rmo,
        "ao.amplitude_qp": on_qp,
        "ao.power_repair_loop": on_repair,
        "ao.run_ao": on_run_ao,
    }
    for name, module, func, _ in FUNCTIONS:
        tracer.wrap_function(name, modules, module, func, hooks.get(name))
    for name, module, cls, method in METHODS:
        tracer.wrap_method(name, getattr(modules.get(module), cls, None), method)
    # the benchmark's own machine-speed reference, kept out of other.self_s
    tracer.wrap_function(REFERENCE, {"reference": reference}, "reference", "calibrate")
    name, module, cls, method = EVALS
    tracer.wrap_method(name, getattr(modules.get(module), cls, None), method, span=False)


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for name, _, _, stat in FUNCTIONS:
        names += [(f"{name}.calls", "count"), (f"{name}.{stat}", "s")]
    for name, _, _, _ in METHODS:
        names += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    names += [
        ("ao.rmo_phase_opt.iters", "iters/call"),
        ("ao.rmo_phase_opt.evals", "evals/call"),
        ("ao.rmo_phase_opt.cap_frac", "ratio"),
        ("ao.amplitude_qp.iters", "iters/call"),
        ("ao.amplitude_qp.cap_frac", "ratio"),
        ("ao.power_repair_loop.passes_max", "count"),
        ("ao.power_repair_loop.raised", "count"),
        ("ao.run_ao.outer_iters", "iters/call"),
    ]
    names += [(f"reflection.model_gap.{s}", "bps/Hz") for s in harness.SCHEME_NAMES]
    names += [(f"rate_realized.{s}", "bps/Hz") for s in harness.SCHEME_NAMES]
    names += [
        ("harness.pool_trials_per_s", "1/s"),
        ("harness.run_experiment.total_s", "s"),
        ("harness.speedup_2w", "ratio"),
        ("harness.pool_busy_frac", "ratio"),
        ("harness.unpinned_pool_trials_per_s", "1/s"),
        ("other.self_s", "s"),
        ("trace.trials_per_s", "1/s"),
        ("trace.untraced_trials_per_s", "1/s"),
        ("trace.overhead_frac", "ratio"),
    ]
    return names


def layer_values(tracer, stats):
    """Per-layer values measured by the tracer itself."""
    c = tracer.counters
    values = {}
    for name, _, _, stat in FUNCTIONS + tuple((m[0], None, None, "self_s") for m in METHODS):
        calls, total, own = stats.get(name, (0, 0.0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.{stat}"] = total if stat == "total_s" else own

    def per_call(key, name):
        calls = stats.get(name, (0, 0.0, 0.0))[0]
        return c[key] / calls if calls else 0.0

    values["ao.rmo_phase_opt.iters"] = per_call("ao.rmo_phase_opt.iters", "ao.rmo_phase_opt")
    values["ao.rmo_phase_opt.evals"] = per_call(f"{EVALS[0]}.calls", "ao.rmo_phase_opt")
    values["ao.rmo_phase_opt.cap_frac"] = per_call("ao.rmo_phase_opt.capped", "ao.rmo_phase_opt")
    values["ao.amplitude_qp.iters"] = per_call("ao.amplitude_qp.iters", "ao.amplitude_qp")
    values["ao.amplitude_qp.cap_frac"] = per_call("ao.amplitude_qp.capped", "ao.amplitude_qp")
    values["ao.power_repair_loop.passes_max"] = c["ao.power_repair_loop.passes_max"]
    values["ao.power_repair_loop.raised"] = c["ao.power_repair_loop.raised"]
    values["ao.run_ao.outer_iters"] = per_call("ao.run_ao.outer_iters", "ao.run_ao")
    values["other.self_s"] = stats.get(ROOT_PASS_A, (0, 0.0, 0.0))[2]
    return values


def scheme_values(runs, realized, gap):
    """Mean realized rate and mean model gap per scheme (0 where it did not run)."""
    values = {}
    for scheme in harness.SCHEME_NAMES:
        idx = [i for i, r in enumerate(runs) if r.scheme == scheme]
        gaps = [gap[i] for i in idx if gap[i] is not None]
        values[f"rate_realized.{scheme}"] = float(np.mean([realized[i] for i in idx])) if idx else 0.0
        values[f"reflection.model_gap.{scheme}"] = float(np.mean(gaps)) if gaps else 0.0
    return values
