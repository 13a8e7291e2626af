"""Calibrated time: step times rescaled by the machine's speed at the time.

On a shared host the same operation can take 50% longer for a minute while
neighbours load the processor, which is wider than any bound a benchmark can
hold. So between the timed steps of an operation the benchmark times a fixed
kernel of this file's own that no change to pcapass can alter: an
interpreted loop, building and sorting a dict of small objects, and numpy
gathers and a bincount, the mix the workloads spend their time in. The
cores of a VM slow down separately: a probe runs the kernel a few times
where the scheduler puts it, which is most likely the core the step just
ran on, then a few times pinned to each core, for steps that run threads
on all of them, and takes the trimmed mean. Each step's time is divided
by the kernel's time around it, the mean of the probes before and after
the step, relative to REF_KERNEL_S. The result is the step's time in
seconds at the speed the kernel has when the machine is quiet. The raw
times are reported as well.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

# The kernel's median time on a quiet 2-core 2.0 GHz x86-64 VM, Python 3.11
# and numpy 2.4. It only sets the unit of calibrated times.
REF_KERNEL_S = 0.0035
# Kernel runs per probe: unpinned, then pinned to each core; the TRIM
# fastest and slowest are dropped.
FREE_RUNS, CORE_RUNS, TRIM = 8, 4, 2

_rng = np.random.default_rng(0)
_BINS = _rng.integers(0, 256, 25_000)
_WEIGHTS = _rng.standard_normal(25_000)
_ROWS = _rng.integers(0, 25_000, 10_000)
_X = _rng.standard_normal((25_000, 8))


def _kernel() -> None:
    s = 0
    for i in range(20_000):
        s += i * i
    d = {}
    for i in range(2_500):
        d[str(i)] = [i, float(i)]
    sorted(d.items(), key=lambda kv: -kv[1][1])
    np.bincount(_BINS, weights=_WEIGHTS, minlength=256)
    _X[_ROWS].sum(axis=0)
    np.cumsum(_WEIGHTS)


def _kernel_times(runs: int) -> list[float]:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return times


def kernel_time() -> float:
    """Trimmed mean of the kernel's time in seconds, over runs on the core
    this thread is on and on each core it may use."""
    times = _kernel_times(FREE_RUNS)
    if hasattr(os, "sched_setaffinity"):
        cores = os.sched_getaffinity(0)
        try:
            for core in sorted(cores):
                os.sched_setaffinity(0, {core})  # this thread only
                times += _kernel_times(CORE_RUNS)
        finally:
            os.sched_setaffinity(0, cores)
    times.sort()
    return statistics.fmean(times[TRIM:len(times) - TRIM])


class SpeedProbe:
    """Keeps the last kernel time, so that consecutive steps share probes:
    the probe after one step is the probe before the next."""

    def __init__(self):
        self.last = kernel_time()

    def calibrate(self, seconds: float) -> float:
        """Call right after a step that took `seconds`; returns its
        calibrated time."""
        now = kernel_time()
        factor = (self.last + now) / (2.0 * REF_KERNEL_S)
        self.last = now
        return seconds / factor
