"""Thread count of numpy's bundled OpenBLAS, read and set through ctypes.

Only the benchmark's own in-process pass uses this; pool workers keep
whatever the environment gives them.
"""

import ctypes
import glob
import os
from contextlib import contextmanager

import numpy as np


def _controls():
    """(get, set) thread-count functions of the bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


def threads():
    """Current OpenBLAS thread count, or None when it cannot be read."""
    controls = _controls()
    return controls[0]() if controls else None


@contextmanager
def single_threaded():
    """Run the block with OpenBLAS on one thread, then restore the count.

    Yields the previous count, or None when the library exposes no control
    (the block then runs with the count unchanged).
    """
    controls = _controls()
    if controls is None:
        yield None
        return
    get, put = controls
    before = get()
    put(1)
    try:
        yield before
    finally:
        put(before)
