"""Configuration, figure presets, seeded Monte Carlo runner and CSV export."""

import ctypes
import glob
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from . import benchmarks, circuit
from .ao import init_from_design, random_init, run_ao
from .channel import ScenarioConfig, db_to_linear, dbm_to_watt, sample_channels
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
    kind: str = "rate"

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not self.sweep_values:
            raise ConfigError("sweep must be nonempty")
        if self.sweep_kind not in SWEEP_KINDS:
            raise ConfigError(f"unknown sweep kind {self.sweep_kind!r}")
        if not self.variants:
            raise ConfigError("at least one scheme required")
        for variant in self.variants:
            for value in self.sweep_values:
                try:
                    _scenario_for(self, variant, value)
                except ValueError as exc:
                    raise ConfigError(f"{self.sweep_kind} = {value:g}: {exc}") from exc

    @property
    def schemes(self):
        return tuple(v.scheme for v in self.variants)


@dataclass(frozen=True)
class ResultRow:
    trial: int
    scheme: str
    sweep_value: float
    rate_bps_hz: float
    ris_power_w: float
    tx_power_w: float
    iterations_used: int
    wall_ms: float
    seed: int
    error: str = ""


_CONFIG_KEYS = frozenset({
    "m_t", "m_r", "d", "n_elements", "n_act",
    "p_t_dbm", "p_t_w", "p_ris_w", "noise_dbm", "sigma2_w",
    "f_r_db", "f_r", "f_s_db", "f_s",
    "d_ris_tx_m", "d_rx_ris_m", "freq_ghz", "wavelength_m", "rho_db",
    "seed", "trials", "threads", "j_alt", "eps", "record_timing",
    "sweep", "schemes", "circuit",
})

_CIRCUIT_KEYS = frozenset({
    "l1_nh", "l2_nh", "z0_ohm", "r0_ohm", "v0_v",
    "c_lo_pf", "c_hi_pf", "r_passive_ohm",
})


def _circuit_from_config(d):
    unknown = set(d) - _CIRCUIT_KEYS
    if unknown:
        raise ConfigError(f"unknown circuit keys: {sorted(unknown)} "
                          f"(keys carry explicit unit suffixes)")
    kwargs = {}
    if "l1_nh" in d:
        kwargs["l1"] = float(d["l1_nh"]) * 1e-9
    if "l2_nh" in d:
        kwargs["l2"] = float(d["l2_nh"]) * 1e-9
    if "z0_ohm" in d:
        kwargs["z0"] = float(d["z0_ohm"])
    if "r0_ohm" in d:
        kwargs["r0"] = float(d["r0_ohm"])
    if "v0_v" in d:
        kwargs["v0"] = float(d["v0_v"])
    if "c_lo_pf" in d or "c_hi_pf" in d:
        lo = float(d.get("c_lo_pf", 0.05)) * 1e-12
        hi = float(d.get("c_hi_pf", 250.0)) * 1e-12
        kwargs["c_range"] = (lo, hi)
    if "r_passive_ohm" in d:
        kwargs["r_passive"] = float(d["r_passive_ohm"])
    return CircuitParams(**kwargs)


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
    a list belongs) or that the scenario rejects raises ConfigError."""
    try:
        return _parse_spec(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _integer(raw, key):
    """raw[key] as an int; a bool or a number with a fraction is rejected,
    not truncated."""
    value = raw[key]
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _parse_spec(raw):
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)} "
                          f"(physical keys carry explicit unit suffixes)")
    kwargs = {key: _integer(raw, key) for key in ("m_t", "m_r", "d", "n_act", "seed")
              if key in raw}
    if "n_elements" in raw:
        kwargs["n"] = _integer(raw, "n_elements")
        kwargs.setdefault("n_act", kwargs["n"])
    if "p_t_dbm" in raw and "p_t_w" in raw:
        raise ConfigError("give the transmit power once: p_t_dbm or p_t_w")
    if "p_t_dbm" in raw:
        kwargs["p_t_w"] = dbm_to_watt(float(raw["p_t_dbm"]))
    if "p_t_w" in raw:
        kwargs["p_t_w"] = float(raw["p_t_w"])
    if "p_ris_w" in raw:
        kwargs["p_ris_w"] = float(raw["p_ris_w"])
    if "noise_dbm" in raw and "sigma2_w" in raw:
        raise ConfigError("give the noise power once: noise_dbm or sigma2_w")
    if "noise_dbm" in raw:
        kwargs["sigma2_w"] = dbm_to_watt(float(raw["noise_dbm"]))
    if "sigma2_w" in raw:
        kwargs["sigma2_w"] = float(raw["sigma2_w"])
    for base in ("f_r", "f_s"):
        if base in raw and f"{base}_db" in raw:
            raise ConfigError(f"give {base} once: {base} or {base}_db")
        if f"{base}_db" in raw:
            kwargs[base] = db_to_linear(float(raw[f"{base}_db"]))
        if base in raw:
            kwargs[base] = float(raw[base])
    if "d_ris_tx_m" in raw:
        kwargs["d_ris_tx_m"] = float(raw["d_ris_tx_m"])
    if "d_rx_ris_m" in raw:
        kwargs["d_rx_ris_m"] = float(raw["d_rx_ris_m"])
    if "freq_ghz" in raw and "wavelength_m" in raw:
        raise ConfigError("give the carrier once: freq_ghz or wavelength_m")
    if "freq_ghz" in raw:
        from .channel import SPEED_OF_LIGHT

        kwargs["wavelength_m"] = SPEED_OF_LIGHT / (float(raw["freq_ghz"]) * 1e9)
    if "wavelength_m" in raw:
        kwargs["wavelength_m"] = float(raw["wavelength_m"])
    if "circuit" in raw:
        kwargs["circuit"] = _circuit_from_config(raw["circuit"] or {})
    scenario = ScenarioConfig(**kwargs)
    if "rho_db" in raw:
        scenario = scenario.with_rho_db(float(raw["rho_db"]))

    spec_kwargs = {"scenario": scenario}
    if "sweep" in raw:
        sweep = raw["sweep"] or {}
        if not isinstance(sweep, dict) or "kind" not in sweep or "values" not in sweep:
            raise ConfigError("sweep must be a mapping with 'kind' and 'values'")
        spec_kwargs["sweep_kind"] = str(sweep["kind"])
        spec_kwargs["sweep_values"] = tuple(float(v) for v in sweep["values"])
    else:
        spec_kwargs["sweep_kind"] = "rho_db"
        spec_kwargs["sweep_values"] = (scenario.rho_db,)
    schemes = raw.get("schemes", ["AO", "DO"])
    spec_kwargs["variants"] = tuple(SchemeVariant(s, s) for s in schemes)
    for key in ("trials", "threads", "j_alt"):
        if key in raw:
            spec_kwargs[key] = _integer(raw, key)
    if "eps" in raw:
        spec_kwargs["eps"] = float(raw["eps"])
    spec_kwargs["record_timing"] = raw.get("record_timing", False)
    if not isinstance(spec_kwargs["record_timing"], bool):
        raise ConfigError(f"record_timing must be true or false, got {raw['record_timing']!r}")
    return ExperimentSpec(**spec_kwargs)


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

    if name == "fig2":
        return ExperimentSpec(
            scenario=replace(base, circuit=circuit.fig2_params()),
            sweep_kind="rho_db",
            sweep_values=(base.rho_db,),
            variants=(SchemeVariant("DO", "DO"),),
            trials=1,
            kind="curves",
        )
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
            kind="convergence",
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
        n = int(sweep_value)
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
        j_alt = int(sweep_value)
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
    """Dispatch one scheme run; returns (rate, v, design, iterations)."""
    if scheme == "DO":
        res = run_do(scenario, ch, fits, rng)
        return res.rate, res.v, res.design, 1
    if scheme == "PAIDO":
        res = benchmarks.run_paido(scenario, ch, fits, rng)
        return res.rate, res.v, res.design, 1
    if scheme == "AO":
        do_res = run_do(scenario, ch, fits, rng)
        init = init_from_design(scenario, do_res.v, do_res.design)
        res = run_ao(scenario, ch, fits, init, eps=eps, j_alt=j_alt)
        return res.rate, res.v, res.design, res.iterations
    if scheme == "AO-random-init":
        init = random_init(scenario, fits, rng)
        res = run_ao(scenario, ch, fits, init, eps=eps, j_alt=j_alt)
        return res.rate, res.v, res.design, res.iterations
    if scheme in ("GA", "PSO"):
        budget = benchmarks.budget_from_ao(scenario, j_alt=j_alt, j_p=ga_j_p)
        runner = benchmarks.run_ga if scheme == "GA" else benchmarks.run_pso
        res = runner(scenario, ch, fits, budget, rng)
        return res.rate, res.v, res.design, res.iterations
    raise ConfigError(f"unknown scheme {scheme!r}")


def _run_task(spec, sweep_index, trial_index):
    rows = []
    seed = spec.scenario.seed
    sweep_value = spec.sweep_values[sweep_index]
    for variant_index, variant in enumerate(spec.variants):
        scenario, j_alt = _scenario_for(spec, variant, sweep_value)
        ch, mask = trial_channels(scenario, seed, sweep_index, trial_index)
        fits = ElementFits(*class_fits(scenario.circuit), mask)
        rng = _scheme_rng(seed, sweep_index, trial_index, variant_index)
        start = time.perf_counter()
        try:
            rate, v, design, iterations = run_scheme(
                variant.scheme, scenario, ch, fits, rng,
                j_alt=j_alt, eps=spec.eps, ga_j_p=spec.ga_j_p,
            )
            problems = validate_design(scenario, fits, v, design)
            if problems:
                raise SimulationError("; ".join(problems))
            wall = (time.perf_counter() - start) * 1e3 if spec.record_timing else 0.0
            rows.append(ResultRow(
                trial=trial_index,
                scheme=variant.label,
                sweep_value=float(sweep_value),
                rate_bps_hz=rate,
                ris_power_w=float(design.ris_power_w),
                tx_power_w=float(np.trace(v.conj().T @ v).real),
                iterations_used=int(iterations),
                wall_ms=wall,
                seed=seed,
            ))
        except (SimulationError, ValueError, np.linalg.LinAlgError) as exc:
            rows.append(ResultRow(
                trial=trial_index,
                scheme=variant.label,
                sweep_value=float(sweep_value),
                rate_bps_hz=0.0,
                ris_power_w=0.0,
                tx_power_w=0.0,
                iterations_used=0,
                wall_ms=0.0,
                seed=seed,
                error=type(exc).__name__,
            ))
    return (sweep_index, trial_index), rows


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

    Channels are sampled once per trial and shared by all schemes. Tasks run
    on a process pool when more than one worker is requested; the row order
    and content are independent of the worker count. The element classes
    are fitted before the pool forks, so the workers inherit the fits.
    """
    class_fits(spec.scenario.circuit)
    tasks = [
        (si, ti)
        for si in range(len(spec.sweep_values))
        for ti in range(spec.trials)
    ]
    results = {}
    if spec.threads > 1:
        with _worker_pool(spec.threads) as pool:
            futures = [
                pool.submit(_run_task, spec, si, ti) for si, ti in tasks
            ]
            for fut in futures:
                key, rows = fut.result()
                results[key] = rows
    else:
        for si, ti in tasks:
            key, rows = _run_task(spec, si, ti)
            results[key] = rows
    ordered = []
    for si, ti in tasks:
        ordered.extend(results[(si, ti)])
    return ordered


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
        "band": design.band,
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
                band=payload.get("band", "approx"),
            )
            v = np.asarray(payload["v_re"]) + 1j * np.asarray(payload["v_im"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed design file {path}: {exc!r}") from exc
    return design, v
