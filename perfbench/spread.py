"""Run the benchmark over several seeds and print each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload desk-ao --seeds 1-10

For every metric it prints the median over the runs and the distance between
the first and third quartile as a share of the median, the figure the
benchmark's bounds are judged against. Runs one benchmark process at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import relative_iqr

HERE = Path(__file__).resolve().parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    args = p.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    values = {}
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {time.perf_counter() - start:.0f} s exit {proc.returncode} correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = relative_iqr(vals) if len(vals) >= 2 and med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else f" bound {bound} ({spread / bound:.2f} of it)"
        print(f"{name}: median {med:.6g} spread {spread:.4f}{flag}")


if __name__ == "__main__":
    main()
