"""Configuration, figure presets, seeded Monte Carlo runner and CSV export."""

import ctypes
import glob
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from dataclasses import dataclass, replace

import numpy as np
import yaml

from . import benchmarks, circuit
from .ao import init_from_design, random_init, run_ao
from .channel import (SPEED_OF_LIGHT, ScenarioConfig, db_to_linear, dbm_to_watt, rate_lmmse,
                      sample_channels)
from .circuit import CircuitParams
from .constraints import validate_design
from .do import run_do
from .errors import ConfigError, SimulationError
from .reflection import ElementFits, class_fits

CSV_HEADER = "trial,scheme,sweep_value,rate_bps_hz,ris_power_w,tx_power_w,iterations_used,wall_ms,seed"

SCHEME_NAMES = ("AO", "AO-random-init", "DO", "PAIDO", "GA", "PSO")

SWEEP_KINDS = ("rho_db", "d_rx_ris_m", "p_ris_w", "n_elements", "j_alt")

# Nominal full-power diode resistance used for element-count budgeting.
FULL_POWER_R = -11.0


@dataclass(frozen=True)
class SchemeVariant:
    """One curve of an experiment: a scheme plus scenario overrides.

    n_act_rule: "all" keeps every element active (capped at the number the
    budget can hold at minimum power); "<f>nfp" activates floor(f * N_fp)
    elements once N exceeds that count.
    """

    scheme: str
    label: str
    n_act_fraction: float = None
    n_act_rule: str = None
    j_alt: int = None

    def __post_init__(self):
        if self.scheme not in SCHEME_NAMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep of Monte Carlo trials over shared channel realizations."""

    scenario: ScenarioConfig
    sweep_kind: str = "rho_db"
    sweep_values: tuple = (-30.0,)
    variants: tuple = (SchemeVariant("AO", "AO"), SchemeVariant("DO", "DO"))
    trials: int = 25
    threads: int = 1
    j_alt: int = 20
    eps: float = 1e-3
    ga_j_p: int = 2
    record_timing: bool = False

    def __post_init__(self):
        for name in ("trials", "threads", "j_alt"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        if not 0.0 <= self.eps < np.inf:
            raise ConfigError(f"eps must be finite and at least 0, got {self.eps!r}")
        if not self.sweep_values:
            raise ConfigError("sweep must be nonempty")
        if self.sweep_kind not in SWEEP_KINDS:
            raise ConfigError(f"unknown sweep kind {self.sweep_kind!r}")
        if not self.variants:
            raise ConfigError("at least one scheme required")
        for variant in self.variants:
            for value in self.sweep_values:
                try:
                    scenario, j_alt = _scenario_for(self, variant, value)
                except (ArithmeticError, ValueError) as exc:   # a huge rho_db overflows
                    raise ConfigError(f"{self.sweep_kind} = {value:g}: {exc}") from exc
                where = f"{variant.label} at {self.sweep_kind} = {value:g}"
                if j_alt < 1:
                    raise ConfigError(f"{where}: j_alt must be at least 1, got {j_alt}")
                if variant.scheme in ("GA", "PSO"):
                    try:   # the budget depends on the configuration alone
                        benchmarks.budget_from_ao(scenario, j_alt=j_alt, j_p=self.ga_j_p)
                    except ValueError as exc:
                        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class ResultRow:
    """One scheme run; a failed run keeps the zero defaults and names its error."""

    trial: int
    scheme: str
    sweep_value: float
    rate_bps_hz: float = 0.0
    ris_power_w: float = 0.0
    tx_power_w: float = 0.0
    iterations_used: int = 0
    wall_ms: float = 0.0
    seed: int = 0
    error: str = ""


def _whole(value):
    """value as an int; a bool or a number with a fraction is rejected, not
    truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"must be a whole number, got {value!r}")
    return int(value)


def _flag(value):
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _sweep(sweep):
    if not isinstance(sweep, dict) or "kind" not in sweep or "values" not in sweep:
        raise ConfigError("sweep must be a mapping with 'kind' and 'values'")
    return str(sweep["kind"]), tuple(float(v) for v in sweep["values"])


def _circuit(raw):
    fields = _read(raw or {}, (CircuitParams,), "circuit")[CircuitParams]
    c_lo, c_hi = CircuitParams.c_range
    fields["c_range"] = (fields.pop("c_lo", c_lo), fields.pop("c_hi", c_hi))
    return CircuitParams(**fields)


# (owner, key, field, reader) of every configuration key. A top-level key
# sets a field of ScenarioConfig or ExperimentSpec, a key of the `circuit`
# mapping one of CircuitParams, to reader(value). Keys on one field are
# alternatives: a configuration gives at most one of them. Four fields are
# not the owner's: rho_db back-solves p_t_w (ScenarioConfig.with_rho_db),
# sweep gives sweep_kind and sweep_values, and c_lo and c_hi are c_range.
_CONFIG_TABLE = (
    (ScenarioConfig, "m_t", "m_t", _whole),
    (ScenarioConfig, "m_r", "m_r", _whole),
    (ScenarioConfig, "d", "d", _whole),
    (ScenarioConfig, "n_elements", "n", _whole),
    (ScenarioConfig, "n_act", "n_act", _whole),
    (ScenarioConfig, "seed", "seed", _whole),
    (ScenarioConfig, "p_t_dbm", "p_t_w", lambda v: dbm_to_watt(float(v))),
    (ScenarioConfig, "p_t_w", "p_t_w", float),
    (ScenarioConfig, "p_ris_w", "p_ris_w", float),
    (ScenarioConfig, "noise_dbm", "sigma2_w", lambda v: dbm_to_watt(float(v))),
    (ScenarioConfig, "sigma2_w", "sigma2_w", float),
    (ScenarioConfig, "f_r_db", "f_r", lambda v: db_to_linear(float(v))),
    (ScenarioConfig, "f_r", "f_r", float),
    (ScenarioConfig, "f_s_db", "f_s", lambda v: db_to_linear(float(v))),
    (ScenarioConfig, "f_s", "f_s", float),
    (ScenarioConfig, "d_ris_tx_m", "d_ris_tx_m", float),
    (ScenarioConfig, "d_rx_ris_m", "d_rx_ris_m", float),
    (ScenarioConfig, "freq_ghz", "wavelength_m", lambda v: SPEED_OF_LIGHT / (float(v) * 1e9)),
    (ScenarioConfig, "wavelength_m", "wavelength_m", float),
    (ScenarioConfig, "rho_db", "rho_db", float),
    (ScenarioConfig, "circuit", "circuit", _circuit),
    (ExperimentSpec, "trials", "trials", _whole),
    (ExperimentSpec, "threads", "threads", _whole),
    (ExperimentSpec, "j_alt", "j_alt", _whole),
    (ExperimentSpec, "eps", "eps", float),
    (ExperimentSpec, "record_timing", "record_timing", _flag),
    (ExperimentSpec, "schemes", "variants", lambda v: tuple(SchemeVariant(s, s) for s in v)),
    (ExperimentSpec, "sweep", "sweep", _sweep),
    (CircuitParams, "l1_nh", "l1", lambda v: float(v) * 1e-9),
    (CircuitParams, "l2_nh", "l2", lambda v: float(v) * 1e-9),
    (CircuitParams, "z0_ohm", "z0", float),
    (CircuitParams, "r0_ohm", "r0", float),
    (CircuitParams, "v0_v", "v0", float),
    (CircuitParams, "c_lo_pf", "c_lo", lambda v: float(v) * 1e-12),
    (CircuitParams, "c_hi_pf", "c_hi", lambda v: float(v) * 1e-12),
    (CircuitParams, "r_passive_ohm", "r_passive", float),
)


def _read(raw, owners, where):
    """{owner: {field: value}} of the keys of mapping raw that _CONFIG_TABLE
    gives to the classes owners. An unknown key, a value its reader rejects,
    or two keys on one field raise ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping")
    rows = tuple(row for row in _CONFIG_TABLE if row[0] in owners)
    unknown = set(raw) - {key for _, key, _, _ in rows}
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)} "
                          f"(physical keys carry explicit unit suffixes)")
    fields, given = {owner: {} for owner in owners}, {}
    for owner, key, name, read in rows:
        if key not in raw:
            continue
        if name in given:
            raise ConfigError(f"give {name} once: {given[name]} or {key}")
        given[name] = key
        try:
            fields[owner][name] = read(raw[key])
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return fields


def load_config(path):
    """Parse a YAML experiment configuration.

    Every key is optional; omitted keys fall back to the reference setup.
    Physical quantities carry their unit in the key name; unknown or
    unit-less keys are rejected.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return spec_from_dict(raw or {})


def spec_from_dict(raw):
    """Experiment spec of a configuration mapping. A value that does not
    convert (text for a number, a list for a scalar, a null or scalar where
    a list belongs, a number whose unit conversion overflows or divides by
    zero) or that the scenario rejects raises ConfigError."""
    try:
        fields = _read(raw, (ScenarioConfig, ExperimentSpec), "configuration")
        scenario_fields, spec_fields = fields[ScenarioConfig], fields[ExperimentSpec]
        if "n" in scenario_fields:
            scenario_fields.setdefault("n_act", scenario_fields["n"])
        rho_db = scenario_fields.pop("rho_db", None)
        scenario = ScenarioConfig(**scenario_fields)
        if rho_db is not None:
            scenario = scenario.with_rho_db(rho_db)
        kind, values = spec_fields.pop("sweep", ("rho_db", (scenario.rho_db,)))
        return ExperimentSpec(scenario=scenario, sweep_kind=kind, sweep_values=values,
                              **spec_fields)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def n_full_power(p_ris_w, params):
    """Elements that can run at full diode power under the budget."""
    return int(p_ris_w // circuit.power_consumption(FULL_POWER_R, params))


def n_min_power(p_ris_w, params):
    """Elements that can run at minimum diode power under the budget."""
    p_min = circuit.power_consumption(circuit.diode_band(params)[1], params)
    return int(p_ris_w // p_min)


def fig_presets(name, scale="desk", seed=0):
    """Experiment presets mirroring the reference experiment designs.

    scale "desk" shrinks array sizes and trial counts for quick runs; scale
    "paper" keeps the full reference dimensions.
    """
    desk = scale == "desk"
    if scale not in ("desk", "paper"):
        raise ConfigError(f"unknown scale {scale!r}")
    base = ScenarioConfig(seed=seed) if not desk else ScenarioConfig(
        m_t=4, m_r=4, d=4, n=16, n_act=16, p_ris_w=0.375, seed=seed
    )
    trials = 25 if desk else 200

    if name == "fig3":
        values = (1, 2, 4, 8, 12, 16, 20) if desk else (1, 2, 4, 8, 16, 30, 45, 60)
        scenario = base if desk else replace(base, p_ris_w=1.5)
        return ExperimentSpec(
            scenario=scenario,
            sweep_kind="j_alt",
            sweep_values=tuple(float(v) for v in values),
            variants=(
                SchemeVariant("AO", "AO"),
                SchemeVariant("AO-random-init", "AO-random-init"),
            ),
            trials=trials,
        )
    if name == "fig4":
        values = (-40.0, -30.0, -20.0) if desk else (-50.0, -40.0, -30.0, -20.0, -10.0, 0.0)
        return ExperimentSpec(
            scenario=base,
            sweep_kind="rho_db",
            sweep_values=values,
            variants=tuple(SchemeVariant(s, s) for s in ("AO", "DO", "PAIDO", "PSO", "GA")),
            trials=trials,
        )
    if name == "fig5":
        scenario = replace(base, cascade_ref_d_rx_ris_m=4.0).with_rho_db(-30.0)
        return ExperimentSpec(
            scenario=scenario,
            sweep_kind="d_rx_ris_m",
            sweep_values=(0.8, 1.6, 2.4, 4.0),
            variants=tuple(SchemeVariant(s, s) for s in ("AO", "DO", "PAIDO")),
            trials=trials,
        )
    if name == "fig6":
        if desk:
            values = (0.26, 0.3, 0.34, 0.38)
        else:
            values = (0.8, 1.1, 1.4, 1.7)
        fractions = (0.7, 0.8, 0.9, 1.0)
        return ExperimentSpec(
            scenario=base,
            sweep_kind="p_ris_w",
            sweep_values=values,
            variants=tuple(
                SchemeVariant("AO", f"AO[act={f:g}N]", n_act_fraction=f)
                for f in fractions
            ),
            trials=trials,
        )
    if name == "fig7":
        scenario = replace(base, p_ris_w=0.9)
        values = (16.0, 36.0, 64.0, 100.0, 144.0) if not desk else (16.0, 36.0, 64.0, 144.0)
        return ExperimentSpec(
            scenario=scenario,
            sweep_kind="n_elements",
            sweep_values=values,
            variants=(
                SchemeVariant("AO", "AO[all-active]", n_act_rule="all"),
                SchemeVariant("AO", "AO[1.2nfp]", n_act_rule="1.2nfp"),
                SchemeVariant("AO", "AO[1.4nfp]", n_act_rule="1.4nfp"),
            ),
            trials=trials if not desk else 8,
        )
    raise ConfigError(f"unknown preset {name!r}")


def _scenario_for(spec, variant, sweep_value):
    scenario = spec.scenario
    kind = spec.sweep_kind
    if kind == "rho_db":
        scenario = scenario.with_rho_db(float(sweep_value))
    elif kind == "d_rx_ris_m":
        scenario = replace(scenario, d_rx_ris_m=float(sweep_value))
    elif kind == "p_ris_w":
        scenario = replace(scenario, p_ris_w=float(sweep_value))
    elif kind == "n_elements":
        n = _whole(sweep_value)
        scenario = replace(scenario, n=n, n_act=n)
    # j_alt sweeps leave the scenario untouched

    n_act = scenario.n_act
    if variant.n_act_fraction is not None:
        n_act = int(variant.n_act_fraction * scenario.n)
    if variant.n_act_rule is not None:
        cap = n_min_power(scenario.p_ris_w, scenario.circuit)
        if variant.n_act_rule == "all":
            n_act = min(scenario.n, cap)
        else:
            frac = float(variant.n_act_rule.replace("nfp", ""))
            nfp = n_full_power(scenario.p_ris_w, scenario.circuit)
            n_act = min(int(frac * nfp), scenario.n, cap)
    j_alt = spec.j_alt
    if spec.sweep_kind == "j_alt":
        j_alt = _whole(sweep_value)
    if variant.j_alt is not None:
        j_alt = variant.j_alt
    return replace(scenario, n_act=n_act), j_alt


def trial_channels(scenario, seed, sweep_index, trial_index):
    """Channels and active-element mask shared by all schemes of one trial."""
    rng = np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFF, sweep_index, trial_index, 0])
    )
    ch = sample_channels(scenario, rng)
    mask = np.zeros(scenario.n, dtype=bool)
    chosen = rng.choice(scenario.n, size=scenario.n_act, replace=False)
    mask[np.sort(chosen)] = True
    return ch, mask


def _scheme_rng(seed, sweep_index, trial_index, variant_index):
    return np.random.default_rng(
        np.random.SeedSequence(
            [seed & 0xFFFFFFFF, sweep_index, trial_index, 1 + variant_index]
        )
    )


def run_scheme(scheme, scenario, ch, fits, rng, j_alt=20, eps=1e-3, ga_j_p=2):
    """Dispatch one scheme run; returns (rate, v, design, iterations).

    Every scheme is scored one way: the LMMSE rate at the reflection the
    cells' circuits deliver.
    """
    if scheme in ("DO", "PAIDO"):
        res = (run_do if scheme == "DO" else benchmarks.run_paido)(scenario, ch, fits, rng)
        iterations = 1
    elif scheme in ("AO", "AO-random-init"):
        if scheme == "AO":
            do_res = run_do(scenario, ch, fits, rng)
            init = init_from_design(scenario, do_res.v, do_res.design)
        else:
            init = random_init(scenario, fits, rng)
        res = run_ao(scenario, ch, fits, init, eps=eps, j_alt=j_alt)
        iterations = res.iterations
    elif scheme in ("GA", "PSO"):
        budget = benchmarks.budget_from_ao(scenario, j_alt=j_alt, j_p=ga_j_p)
        runner = benchmarks.run_ga if scheme == "GA" else benchmarks.run_pso
        res = runner(scenario, ch, fits, budget, rng)
        iterations = res.iterations
    else:
        raise ConfigError(f"unknown scheme {scheme!r}")
    gamma = circuit.reflection(scenario.circuit, res.design.r, res.design.c)
    return rate_lmmse(ch, res.v, gamma, scenario), res.v, res.design, iterations


def _run_task(spec, task):
    """ResultRows of one (sweep index, trial index) task, one per variant."""
    sweep_index, trial_index = task
    rows = []
    seed = spec.scenario.seed
    sweep_value = spec.sweep_values[sweep_index]
    for variant_index, variant in enumerate(spec.variants):
        scenario, j_alt = _scenario_for(spec, variant, sweep_value)
        ch, mask = trial_channels(scenario, seed, sweep_index, trial_index)
        fits = ElementFits(*class_fits(scenario.circuit), mask)
        rng = _scheme_rng(seed, sweep_index, trial_index, variant_index)
        row = ResultRow(trial_index, variant.label, float(sweep_value), seed=seed)
        start = time.perf_counter()
        try:
            rate, v, design, iterations = run_scheme(
                variant.scheme, scenario, ch, fits, rng,
                j_alt=j_alt, eps=spec.eps, ga_j_p=spec.ga_j_p,
            )
            problems = validate_design(scenario, fits, v, design)
            if problems:
                raise SimulationError("; ".join(problems))
            row = replace(
                row, rate_bps_hz=rate, ris_power_w=float(design.ris_power_w),
                tx_power_w=float(np.trace(v.conj().T @ v).real), iterations_used=int(iterations),
                wall_ms=(time.perf_counter() - start) * 1e3 if spec.record_timing else 0.0,
            )
        except (SimulationError, ValueError, np.linalg.LinAlgError) as exc:
            row = replace(row, error=type(exc).__name__)
        rows.append(row)
    return rows


def _openblas_threads_fn(action):
    """numpy's bundled `scipy_openblas_{action}_num_threads64_`, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        fn = getattr(ctypes.CDLL(path), f"scipy_openblas_{action}_num_threads64_", None)
        if fn is not None:
            return fn
    return None


def _single_blas_thread():
    """Pool initializer: run OpenBLAS on one thread in this worker.

    A forked worker otherwise starts one BLAS thread per core, and a few
    workers oversubscribe the machine. A no-op when numpy's OpenBLAS
    exports no thread control.
    """
    put = _openblas_threads_fn("set")
    if put is not None:
        put.argtypes, put.restype = [ctypes.c_int], None
        put(1)


def _worker_pool(workers):
    """Forked process pool whose workers run BLAS on one thread each."""
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_single_blas_thread,
    )


def run_experiment(spec):
    """Run every (sweep value, trial) task and return rows in canonical order.

    Each scheme of a trial draws its channels from the same seed, so all
    schemes see the same channels. Tasks run on a process pool when more
    than one worker is requested; the row order and content are independent
    of the worker count. The element classes are fitted before the pool
    forks, so the workers inherit the fits.
    """
    class_fits(spec.scenario.circuit)
    tasks = [(si, ti) for si in range(len(spec.sweep_values)) for ti in range(spec.trials)]
    run = partial(_run_task, spec)
    if spec.threads > 1:
        with _worker_pool(spec.threads) as pool:
            per_task = list(pool.map(run, tasks))
    else:
        per_task = map(run, tasks)
    return [row for rows in per_task for row in rows]


def _format_cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export_csv(rows, path):
    """Write rows with the fixed column order (schema in CSV_HEADER).

    Failed runs keep the schema: the failure tag is appended to the scheme
    cell after '!'.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            scheme = r.scheme if not r.error else f"{r.scheme}!{r.error}"
            fh.write(",".join(_format_cell(v) for v in (
                r.trial, scheme, r.sweep_value, r.rate_bps_hz, r.ris_power_w,
                r.tx_power_w, r.iterations_used, r.wall_ms, r.seed,
            )) + "\n")


def summarize(rows):
    """Mean and standard error of the rate per (scheme, sweep value).

    The statistics cover the successful rows; each group also counts its
    failed rows, and a group in which every row failed is listed with
    trials=0 and NaN statistics.
    """
    if not rows:
        raise ValueError("no rows to summarize")
    groups = {}
    for r in rows:
        groups.setdefault((r.scheme, r.sweep_value), []).append(r)
    out = []
    for scheme, sweep_value in sorted(groups):
        members = groups[(scheme, sweep_value)]
        arr = np.asarray([r.rate_bps_hz for r in members if not r.error])
        if arr.size:
            mean = float(arr.mean())
            sem = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
        else:
            mean = sem = float("nan")
        out.append({
            "scheme": scheme,
            "sweep_value": sweep_value,
            "trials": arr.size,
            "failed": len(members) - arr.size,
            "mean_rate_bps_hz": mean,
            "stderr_rate_bps_hz": sem,
        })
    return out


def save_design(path, design, v):
    """Persist a design (and its precoder) as JSON for later validation."""
    payload = {
        "phi": design.phi.tolist(),
        "alpha_bar": design.alpha_bar.tolist(),
        "active_mask": design.active_mask.astype(int).tolist(),
        "gamma_re": design.gamma.real.tolist(),
        "gamma_im": design.gamma.imag.tolist(),
        "cells_r": design.r.tolist(),
        "cells_c": design.c.tolist(),
        "ris_power_w": design.ris_power_w,
        "v_re": np.asarray(v).real.tolist(),
        "v_im": np.asarray(v).imag.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


def load_design(path):
    from .reflection import RISDesign

    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
            design = RISDesign(
                phi=np.asarray(payload["phi"], dtype=float),
                alpha_bar=np.asarray(payload["alpha_bar"], dtype=float),
                active_mask=np.asarray(payload["active_mask"], dtype=bool),
                gamma=np.asarray(payload["gamma_re"]) + 1j * np.asarray(payload["gamma_im"]),
                r=payload["cells_r"],
                c=payload["cells_c"],
                ris_power_w=float(payload["ris_power_w"]),
            )
            v = np.asarray(payload["v_re"]) + 1j * np.asarray(payload["v_im"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed design file {path}: {exc!r}") from exc
    return design, v
