"""How many processes and threads the package may use.

`analysis` runs its jobs in at most `_worker_count` processes and caps each
worker's OpenBLAS threads; `embed`'s hop loop runs `aggregate`'s row blocks
on OpenBLAS's threads. Both read and set OpenBLAS's thread count through the
calls below, which find numpy's BLAS's symbols once per process.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_count(workers: int, jobs: int) -> int:
    """Processes or threads to run `jobs` jobs on: never more than the usable
    cores or the jobs, however large `workers` is."""
    return max(1, min(workers, _usable_cores(), jobs))


# OpenBLAS's thread-count setters, by the symbol names of numpy's bundled
# 64-bit build, a 64-bit system build and a 32-bit one, and the getters of
# the same builds.
_OPENBLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads"
)
_OPENBLAS_GET_THREADS = tuple(name.replace("_set_", "_get_") for name in _OPENBLAS_SET_THREADS)


@functools.cache
def _openblas_function(names: tuple[str, ...]):
    """The first of `names` that numpy's loaded BLAS exports, or None; each
    tuple of names is looked up once."""
    core = getattr(np, "_core", None) or np.core  # numpy 2 renamed `core`
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    for name in names:
        func = getattr(lib, name, None)
        if func is not None:
            return func
    return None


def _blas_threads() -> int:
    """OpenBLAS's thread count; 1 when numpy's BLAS cannot both report and
    set it, so a caller that moves threads away from it moves none."""
    get_threads = _openblas_function(_OPENBLAS_GET_THREADS)
    if get_threads is None or _openblas_function(_OPENBLAS_SET_THREADS) is None:
        return 1
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return get_threads()


def _set_blas_threads(count: int) -> None:
    """Set OpenBLAS's thread count; a BLAS without the setter is left alone."""
    set_threads = _openblas_function(_OPENBLAS_SET_THREADS)
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(count)
