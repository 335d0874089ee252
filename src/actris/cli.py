"""Command-line front end.

Exit codes: 0 on success, 2 on configuration errors, 3 on solver or
validation failures.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np
import yaml

from .channel import ScenarioConfig
from .circuit import fig2_params
from .constraints import validate_design
from .errors import ConfigError, SimulationError
from .harness import (
    export_csv,
    fig_presets,
    load_config,
    load_design,
    run_experiment,
    summarize,
)
from .reflection import approx_amplitude_bounds, exact_bound_curves, fit_amplitude_model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="actris",
        description="Tunnel-diode active RIS link simulator and optimizers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit-model", help="fit and emit the amplitude-model coefficients")
    p_fit.add_argument("--config", help="experiment config (circuit section is used)")
    p_fit.add_argument("--out", help="write coefficients as YAML (default: stdout)")
    p_fit.add_argument("--grid", type=int, default=3600, help="fitting grid size")
    p_fit.add_argument("--curves-out", help="also export the exact/approx bound curves as CSV")

    p_run = sub.add_parser("run", help="run a configured Monte Carlo experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", help="CSV output path")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--trials", type=int, help="override the trial count")
    p_run.add_argument("--threads", type=int, help="override the worker count")
    p_run.add_argument("--timing", action="store_true",
                       help="record wall-clock times (breaks byte-level determinism)")

    p_preset = sub.add_parser("preset", help="run a canned experiment preset")
    p_preset.add_argument("--name", required=True,
                          choices=["fig2", "fig3", "fig4", "fig5", "fig6", "fig7"])
    # None marks an option not given: fig2 rejects every one of them
    p_preset.add_argument("--scale", choices=["desk", "paper"], help="default: desk")
    p_preset.add_argument("--out", help="CSV output path")
    p_preset.add_argument("--seed", type=int, help="default: 0")
    p_preset.add_argument("--trials", type=int)
    p_preset.add_argument("--threads", type=int)
    p_preset.add_argument("--timing", action="store_true", default=None)

    p_val = sub.add_parser("validate", help="check a saved design against the constraints")
    p_val.add_argument("--design", required=True, help="design JSON written by save_design")
    p_val.add_argument("--config", help="experiment config providing the scenario")
    return parser


def _apply_overrides(spec, args):
    if getattr(args, "seed", None) is not None:
        spec = replace(spec, scenario=replace(spec.scenario, seed=args.seed))
    if getattr(args, "trials", None) is not None:
        spec = replace(spec, trials=args.trials)
    if getattr(args, "threads", None) is not None:
        spec = replace(spec, threads=args.threads)
    if getattr(args, "timing", False):
        spec = replace(spec, record_timing=True)
    return spec


def _cmd_fit_model(args):
    scenario = load_config(args.config).scenario if args.config else ScenarioConfig()
    params = scenario.circuit
    fits = {
        "active": fit_amplitude_model(params, "active", grid_size=args.grid).to_dict(),
        "passive": fit_amplitude_model(params, "passive", grid_size=args.grid).to_dict(),
    }
    text = yaml.safe_dump(fits, sort_keys=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.curves_out:
        _export_curves(params, args.grid, args.curves_out)
    return EXIT_OK


def _export_curves(params, grid, path):
    active = fit_amplitude_model(params, "active", grid_size=grid)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("phi_rad,exact_lower,exact_upper,approx_lower,approx_upper\n")
        phis, lower, upper = exact_bound_curves(params, "active", grid)
        columns = (phis, lower, upper, *approx_amplitude_bounds(active, phis))
        for row in zip(*(column.tolist() for column in columns)):
            fh.write(",".join(map(repr, row)) + "\n")


def _cmd_run(args):
    spec = _apply_overrides(load_config(args.config), args)
    return _execute(spec, args.out)


def _cmd_preset(args):
    if args.name == "fig2":
        for option in ("scale", "seed", "trials", "threads", "timing"):
            if getattr(args, option) is not None:
                raise ConfigError(f"preset fig2 exports the bound curves and takes no --{option}")
        path = args.out or "fig2_curves.csv"
        _export_curves(fig2_params(), 3600, path)
        print(f"wrote bound curves to {path}")
        return EXIT_OK
    spec = _apply_overrides(fig_presets(args.name, scale=args.scale or "desk"), args)
    return _execute(spec, args.out)


def _execute(spec, out_path):
    rows = run_experiment(spec)
    failures = [r for r in rows if r.error]
    if out_path:
        export_csv(rows, out_path)
        print(f"wrote {len(rows)} rows to {out_path}")
    for entry in summarize(rows):
        print(
            f"{entry['scheme']:>24s}  sweep={entry['sweep_value']:<10g} "
            f"mean={entry['mean_rate_bps_hz']:.4f} bps/Hz "
            f"failed={entry['failed']}/{entry['trials'] + entry['failed']} "
            f"(+/- {entry['stderr_rate_bps_hz']:.4f}, n={entry['trials']})"
        )
    if failures:
        print(f"{len(failures)} scheme runs failed (tagged in the CSV)", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_validate(args):
    scenario = load_config(args.config).scenario if args.config else ScenarioConfig()
    design, v = load_design(args.design)
    problems = validate_design(scenario, None, v, design)   # the check reads no fits
    if problems:
        for p in problems:
            print(f"VIOLATION: {p}", file=sys.stderr)
        return EXIT_SOLVER
    print("design satisfies all constraints")
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "fit-model": _cmd_fit_model,
        "run": _cmd_run,
        "preset": _cmd_preset,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
