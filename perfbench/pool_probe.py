"""Time one block through the worker pool with BLAS threads left as found.

Usage: python3 pool_probe.py <src dir> <workload> <seed> <workers>

Runs the first seeded block of the workload through ``harness.run_experiment``
on `workers` processes, without touching the BLAS thread count, and prints the
elapsed seconds. Every worker then starts as many BLAS threads as the
environment gives it, which on a small machine oversubscribes the cores; the
time this takes varies too much for a bounded metric, so run.py starts this
only in a traced run, in its own process group, and kills the group at a
deadline.
"""

import sys
import time


def main():
    src, name, seed, workers = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
    sys.path.insert(0, src)
    import workloads
    from actris import harness

    wl = workloads.WORKLOADS[name]
    spec = workloads.block_spec(wl, seed, wl.core_blocks, threads=workers)
    start = time.perf_counter()
    harness.run_experiment(spec)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
