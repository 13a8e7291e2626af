"""One benchmark run of one workload, in a fresh process.

Started by run.py, which sets the BLAS thread count in this process's
environment before numpy loads. Writes its result as JSON to --result.
With --trace 1 the first half of the time runs untraced and the second half
traced, so the tracing overhead (in calibrated time, see speed.py) is measured
in the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Set-up is repeated and its median reported; short set-ups are repeated
# until they add up to three seconds, so the median is not one noisy sample.
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS = 3, 3.0


def loop(workload, seconds: float, tracer, probe) -> list[dict]:
    """Closed loop: start the next operation when the last one has ended.

    Stops before an operation that would, at the median pace so far, end
    after `seconds`; always runs at least one. A run therefore lasts at most
    about `seconds`, which keeps the time of many runs predictable.
    """
    ops: list[dict] = []
    paces: list[float] = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() + statistics.median(paces) <= deadline:
        t0 = time.perf_counter()
        ops.append(workload.op(tracer, probe))
        paces.append(time.perf_counter() - t0)
    return ops


def median_of(ops, key):
    values = [op[key] for op in ops if op.get(key) is not None]
    return statistics.median(values) if values else None


def blas_info() -> str:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def end_to_end(name: str, workload, ops: list[dict], setup: list[float],
               cal_setup: list[float]) -> dict:
    """Every metric of the run a user would see, as {name: (value, unit)}.
    `cal_` times and `setup_s` are calibrated (speed.py), the others raw."""
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    wall = median_of(ops, "wall_s")
    out = {
        "cal_wall_s": (median_of(ops, "cal_wall_s"), "s"),
        "setup_s": (statistics.median(cal_setup), "s"),
        "wall_s": (wall, "s"),
        "raw_setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (failed / attempted, "ratio"),
        "ops": (len(ops), "count"),
    }
    if name == "embed_large":
        out["embed_nodes_per_s"] = (ops[-1]["n_nodes"] / wall, "1/s")
        out["n_nodes"] = (ops[-1]["n_nodes"], "count")
        out["nnz"] = (ops[-1]["nnz"], "count")
    elif name == "cli_pipeline":
        out["test_accuracy"] = (median_of(ops, "test_accuracy"), "ratio")
        for cmd in ("gen", "embed", "train", "eval"):
            out[f"{cmd}_s"] = (median_of(ops, f"{cmd}_s"), "s")
    else:
        hpo_s, sweep_s = median_of(ops, "hpo_s"), median_of(ops, "sweep_s")
        cells = workload.methods * workload.hops
        out["hpo_runs_per_s"] = (workload.hpo_runs / hpo_s, "1/s")
        out["sweep_cells_per_s"] = (cells / sweep_s, "1/s")
        out["hpo_best_test_accuracy"] = (median_of(ops, "hpo_best_test_accuracy"), "ratio")
        out["sweep_peak_v_measure"] = (median_of(ops, "sweep_peak_v_measure"), "ratio")
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--nproc", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import pcapass

    if Path(pcapass.__file__).resolve().parent != (src / "pcapass").resolve():
        print(f"error: pcapass imported from {pcapass.__file__}, not {src}", file=sys.stderr)
        return 2

    import layers
    import speed
    import tracer
    import workloads

    workload = workloads.make(args.workload, args.seed, args.workdir, args.nproc)
    probe = speed.SpeedProbe()
    setup: list[float] = []
    cal_setup: list[float] = []
    while len(setup) < SETUP_MIN_REPEATS or sum(setup) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        workload.setup()
        setup.append(time.perf_counter() - t0)
        cal_setup.append(probe.calibrate(setup[-1]))

    per_layer = None
    if args.trace:
        plain = loop(workload, args.seconds / 2, tracer.NULL_TRACER, probe)
        rec = tracer.Tracer()
        restore = tracer.install(rec, layers.PROBES)
        try:
            traced = loop(workload, args.seconds / 2, rec, probe)
        finally:
            restore()
        per_layer = layers.per_layer(rec.spans, len(traced), threading.get_ident())
        untraced_wall = median_of(plain, "cal_wall_s")
        traced_wall = median_of(traced, "cal_wall_s")
        per_layer["trace.untraced_wall_s"] = untraced_wall
        per_layer["trace.traced_wall_s"] = traced_wall
        per_layer["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        ops = plain + traced
    else:
        plain = ops = loop(workload, args.seconds, tracer.NULL_TRACER, probe)

    problems = sorted({op["problem"] for op in ops if op.get("problem")})
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": sum(op["attempted"] for op in ops),
        "failed": sum(op["failed"] for op in ops),
        "problems": problems,
        "end_to_end": end_to_end(args.workload, workload, plain, setup, cal_setup),
        "per_layer": per_layer,
        "op_wall_s": [op["wall_s"] for op in ops],
        "op_cal_wall_s": [op["cal_wall_s"] for op in ops],
        "digest": ops[-1].get("digest"),
        "env": {
            "nproc": args.nproc,
            "pool_threads": workload.pool_threads,
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(),
        },
    }
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
