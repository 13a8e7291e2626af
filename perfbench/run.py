#!/usr/bin/env python3
"""Benchmark for pcapass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports pcapass from `src/`.
NAME is embed_large, cli_pipeline, analyses (see workloads.py for why each
exists) or `all`, which runs the three in turn. Each workload runs in a fresh
worker process whose BLAS/OpenMP thread count is set so that pool threads
times BLAS threads does not exceed the core count.

Each workload prints one `report` line with every metric, its unit and the
run's environment. The last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. The end-to-end times are calibrated
by the machine's speed during the run (see speed.py); the report line also
has them raw, as `wall_s` and `raw_setup_s`. The exit code is non-zero when an
output check fails, and no result is printed when a worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from layers import METRICS as PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("embed_large", "cli_pipeline", "analyses")
END_TO_END = ("cal_wall_s", "setup_s", "peak_rss_mb")
WORKER_TIMEOUT_S = 170


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_worker(workload: str, args, cores: int) -> dict | None:
    pool = cores if workload == "analyses" else 1
    blas = str(max(1, cores // pool))
    env = dict(os.environ, OMP_NUM_THREADS=blas, OPENBLAS_NUM_THREADS=blas, MKL_NUM_THREADS=blas)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result = workdir / "result.json"
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--nproc", str(cores),
           "--workdir", str(workdir), "--result", str(result)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0 or not result.is_file():
            print(f"error: {workload} worker exited {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(result.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        print(f"error: {workload} worker ran over {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def metrics_of(res: dict, trace: int) -> dict:
    if trace:
        return {name: {"value": res["per_layer"][name], "unit": unit}
                for name, (unit, _) in PER_LAYER.items()}
    return {name: {"value": res["end_to_end"][name][0], "unit": res["end_to_end"][name][1]}
            for name in END_TO_END}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "pcapass" / "__init__.py").is_file():
        print(f"error: no pcapass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cores = nproc()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = run_worker(name, args, cores)
        if res is None:
            return 1
        results[name] = res
        report = {
            "workload": name,
            "seed": args.seed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["end_to_end"].items()},
            "per_layer": res["per_layer"],
            "op_wall_s": res["op_wall_s"],
            "op_cal_wall_s": res["op_cal_wall_s"],
            "digest": res["digest"],
            "problems": res["problems"],
            "env": res["env"],
        }
        print("report " + json.dumps(report), flush=True)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        metrics = {f"{name}/{k}": v for name, r in results.items()
                   for k, v in metrics_of(r, args.trace).items()}
    else:
        metrics = metrics_of(results[args.workload], args.trace)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
