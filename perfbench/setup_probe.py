"""Time one cold set-up: import the program and fit both element classes.

Usage: python3 setup_probe.py <src dir> <workload>
Prints the elapsed seconds. run.py starts this several times in fresh
interpreters and reports the median as setup_s.
"""

import sys
import time


def main():
    start = time.perf_counter()
    src, name = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import workloads

    workloads.fit_classes(workloads.WORKLOADS[name].scenario.circuit)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
