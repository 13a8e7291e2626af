"""The benchmark's three workloads.

Each workload is a closed loop with one client: `op` runs one operation to
completion, checks its outputs and returns what it measured: `wall_s`, the
sum of its timed steps, and `cal_wall_s`, the same steps calibrated by the
speed probe that runs between them (see speed.py). `setup` makes the inputs
from the workload seed; it is repeated to time it. pcapass
functions are looked up on their modules at call time, so a traced run sees
the wrapped versions.

* embed_large: `prepare` plus `embed` (pcapass, mean, k=8, d=16) on a 100k
  node planted-partition graph with about 2.1M CSR entries. The hop loop at
  scale: PCA and SpMM work, no GBDT and no file I/O.
* cli_pipeline: gen -> embed -> train -> eval through `pcapass.cli.main`,
  5k nodes, default config but for a fixed round count (see ROUNDS), one
  thread. The quickstart: GBDT and dataset I/O dominate, PCA is nearly
  idle. Each operation uses its own gen seed.
* analyses: sweep (3 methods x 30 hops) then hpo (6 runs) through the CLI
  with one pool thread per core, on 3k node datasets made at setup. The
  only workload that runs the thread pool, k-means and v-measure, the
  other two embedders and GBDT row subsampling. The search samples its six
  configurations from a fixed seed, so runs with different workload seeds
  differ in their data only, not in how much training they were asked to do.
  It runs as three hpo commands of two runs each, with seeds 0, 2 and 4:
  run i of a search seeded s draws its configuration from seed s ^ i, so
  these are the six configurations of one search seeded 0. Steps of about
  two seconds keep the speed probes between them close to the work.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import NULL_TRACER


def _pcapass(name: str):
    return importlib.import_module(f"pcapass.{name}")


def planted_partition(seed: int, n: int, m: int, n_classes: int, n_features: int,
                      p_intra: float = 0.8):
    """O(n + m) planted-partition graph with class-correlated features.

    Each of the m edges starts at a uniform node; with probability p_intra it
    ends at a uniform node of the same class, otherwise at a uniform node.
    Duplicates and self-loops are left for `prepare` to remove. Features are
    unit Gaussian noise around one-hot class centroids, as in `generate_sbm`.
    """
    rng = np.random.default_rng(seed)
    y = rng.integers(0, n_classes, n)
    by_class = np.argsort(y, kind="stable")
    size = np.bincount(y, minlength=n_classes)
    start = np.concatenate(([0], np.cumsum(size)[:-1]))
    u = rng.integers(0, n, m)
    cu = y[u]
    same = by_class[start[cu] + (rng.random(m) * size[cu]).astype(np.int64)]
    v = np.where(rng.random(m) < p_intra, same, rng.integers(0, n, m))
    centroids = np.eye(n_classes, n_features) / np.sqrt(2.0)
    X = (centroids[y] + rng.standard_normal((n, n_features))).astype(np.float32)
    edges = _pcapass("graph").EdgeList(n_nodes=n, pairs=np.stack([u, v], axis=1))
    return edges, X


# Boosting rounds per training run. Patience equals the round cap, so early
# stopping never cuts a run short: how many rounds validation loss keeps
# improving for depends on the data, and would make the work of an operation
# vary with the seed by about as much as the noise of the machine.
ROUNDS = 40


def _fail(op: dict, problem: str) -> None:
    op["failed"] += 1
    op["problem"] = problem


def _new_op() -> dict:
    return dict(attempted=0, failed=0, problem=None, wall_s=0.0, cal_wall_s=0.0)


def _add_step(op: dict, probe, seconds: float) -> None:
    """Adds the raw and calibrated time of a step that has just ended."""
    op["wall_s"] += seconds
    op["cal_wall_s"] += probe.calibrate(seconds)


def _timed(op: dict, probe, fn, *args):
    """Runs one step of an operation and adds its time."""
    t0 = time.perf_counter()
    out = fn(*args)
    _add_step(op, probe, time.perf_counter() - t0)
    return out


class EmbedLarge:
    n_nodes, n_edges, n_classes, n_features = 100_000, 1_000_000, 4, 16
    pool_threads = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        embed = _pcapass("embed")
        self.cfg = embed.EmbedConfig(k=8, d=16, aggregator=_pcapass("aggregate").Aggregator.MEAN,
                                     method=embed.Method.PCAPASS)

    def setup(self):
        self.edges, self.X = planted_partition(
            self.seed, self.n_nodes, self.n_edges, self.n_classes, self.n_features
        )

    def op(self, tracer, probe) -> dict:
        op = _new_op()
        g = _timed(op, probe, _pcapass("graph").prepare, self.edges)
        result = _timed(op, probe, _pcapass("embed").embed, g, self.X, self.cfg)
        H = result.embeddings
        op["attempted"] = 1
        problem = check_embedding(H, result.per_hop_models[-1], self.n_nodes, self.cfg.d)
        if problem is not None:
            _fail(op, problem)
        op.update(n_nodes=g.n_nodes, nnz=g.n_entries,
                  digest=hashlib.sha256(np.ascontiguousarray(H).tobytes()).hexdigest()[:16])
        return op


def check_embedding(H, model, n: int, d: int):
    """None if H is a finite (n, d) matrix whose sample covariance is the
    diagonal of the last hop's eigenvalues, else what is wrong."""
    if H.shape != (n, d):
        return f"embedding shape {H.shape}, expected {(n, d)}"
    if not np.isfinite(H).all():
        return "embedding has non-finite values"
    cov = np.cov(H, rowvar=False)
    err = np.abs(cov - np.diag(model.eigenvalues)).max()
    scale = model.eigenvalues.max()
    if not err <= 1e-8 * scale:
        return f"embedding covariance off the eigenvalue diagonal by {err:.3g} (scale {scale:.3g})"
    return None


class _Cli:
    """Runs CLI commands in-process, timing each one and counting failures."""

    def __init__(self, workdir: Path, config: str, threads: int):
        self.config = workdir / "config.txt"
        workdir.mkdir(parents=True, exist_ok=True)
        self.config.write_text(config, encoding="utf-8")
        self.threads = threads

    def run(self, command: str, seed: int, out: Path, tracer, op: dict, probe=None) -> bool:
        """Runs one command; with a probe, it is a timed step of `op`."""
        argv = [command, "--config", str(self.config), "--seed", str(seed),
                "--threads", str(self.threads), "--out", str(out)]
        cli = _pcapass("cli")
        err = io.StringIO()
        t0 = time.perf_counter()
        with tracer.span(f"cli.{command}"), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
        seconds = time.perf_counter() - t0
        op[f"{command}_s"] = op.get(f"{command}_s", 0.0) + seconds
        if probe is not None:
            _add_step(op, probe, seconds)
        op["attempted"] += 1
        if code != 0:
            _fail(op, f"{command} exited {code}: {err.getvalue().strip()}")
        return code == 0


class CliPipeline:
    pool_threads = 1

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.cli = _Cli(workdir, f"n_nodes = 5000\nn_rounds = {ROUNDS}\npatience = {ROUNDS}\n",
                        threads=1)

    def setup(self):
        """Start-up of the command a user runs: a fresh interpreter that
        imports the CLI. Each pipeline step pays it when run from a shell."""
        subprocess.run([sys.executable, "-c", "import pcapass.cli"], check=True)

    def op(self, tracer, probe) -> dict:
        out = self.workdir / "pipeline"
        shutil.rmtree(out, ignore_errors=True)
        seed = int(self.rng.integers(2**31))
        op = _new_op()
        for command in ("gen", "embed", "train", "eval"):
            if not self.cli.run(command, seed, out, tracer, op, probe):
                break
        if op["failed"] == 0:
            try:
                op["test_accuracy"] = float(
                    json.loads((out / "metrics.json").read_text())["test_accuracy"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                _fail(op, f"metrics.json: {exc!r}")
        return op


class Analyses:
    """How long boosting takes on a dataset depends on how soon its trees stop
    splitting, which differs by about 25% between datasets, so operations
    take turns over several datasets rather than repeating one."""

    n_nodes, methods, hops, n_datasets = 3000, 3, 30, 4
    hpo_calls, hpo_runs_per_call = 3, 2
    hpo_runs = hpo_calls * hpo_runs_per_call

    def __init__(self, seed: int, workdir: Path, nproc: int):
        self.rng = np.random.default_rng(seed)
        self.data_seeds = [int(s) for s in self.rng.integers(2**31, size=self.n_datasets)]
        self.workdir = workdir
        self.pool_threads = nproc
        self.clis = []
        for j in range(self.n_datasets):
            data = workdir / f"data{j}"
            self.clis.append(_Cli(
                data,
                f"n_nodes = {self.n_nodes}\nsweep_hops = {self.hops}\n"
                f"hpo_runs = {self.hpo_runs_per_call}\n"
                f"hpo_rounds = {ROUNDS}\npatience = {ROUNDS}\ndataset_dir = {data / 'dataset'}\n",
                threads=nproc,
            ))
        self.done = 0

    def setup(self):
        op = dict(attempted=0, failed=0)
        for cli, seed in zip(self.clis, self.data_seeds):
            if not cli.run("gen", seed, cli.config.parent, NULL_TRACER, op):
                raise RuntimeError(op["problem"])

    def op(self, tracer, probe) -> dict:
        out = self.workdir / "analyses"
        shutil.rmtree(out, ignore_errors=True)
        cli = self.clis[self.done % self.n_datasets]
        self.done += 1
        op = _new_op()
        swept = cli.run("sweep", int(self.rng.integers(2**31)), out, tracer, op, probe)
        searches = []
        for c in range(self.hpo_calls):
            search_out = out / f"hpo{c}"
            if cli.run("hpo", c * self.hpo_runs_per_call, search_out, tracer, op, probe):
                searches.append(search_out)
        if swept:
            self._check_sweep(out / "sweep.csv", op)
        best = [self._check_hpo(search_out, op) for search_out in searches]
        best = [b for b in best if b is not None and b[0] is not None]
        if best:
            op["hpo_best_test_accuracy"] = min(best)[1]
        return op

    def _check_sweep(self, path: Path, op: dict):
        try:
            rows = list(csv.DictReader(path.read_text().splitlines()))
            raw = [float(r["v_measure"]) for r in rows]
            normalized = [float(r["normalized_v_measure"]) for r in rows]
        except (OSError, ValueError, KeyError) as exc:
            return _fail(op, f"sweep.csv: {exc!r}")
        if len(rows) != self.methods * self.hops:
            return _fail(op, f"sweep.csv has {len(rows)} rows, expected {self.methods * self.hops}")
        if not all(0.0 <= v <= 1.0 for v in raw + normalized):
            return _fail(op, "sweep.csv has a value outside [0, 1]")
        op["sweep_peak_v_measure"] = max(raw)

    def _check_hpo(self, out: Path, op: dict):
        """Counts the search's runs; returns its (best_valid_ce,
        best_run_test_accuracy), or None if its outputs do not parse."""
        try:
            summary = json.loads((out / "hpo_summary.json").read_text())
            valid_ce = [float(r["valid_ce"]) for r in
                        csv.DictReader((out / "hpo.csv").read_text().splitlines())]
        except (OSError, ValueError, KeyError) as exc:
            return _fail(op, f"hpo outputs: {exc!r}")
        # each search run is an operation; one recorded with infinite loss failed
        inf_runs = sum(map(math.isinf, valid_ce))
        op["attempted"] += len(valid_ce)
        op["failed"] += inf_runs
        if inf_runs:
            op["problem"] = f"{inf_runs} hpo runs recorded infinite validation loss"
        return summary.get("best_valid_ce"), summary.get("best_run_test_accuracy")


def make(name: str, seed: int, workdir: Path, nproc: int):
    if name == "embed_large":
        return EmbedLarge(seed, workdir)
    if name == "cli_pipeline":
        return CliPipeline(seed, workdir)
    if name == "analyses":
        return Analyses(seed, workdir, nproc)
    raise ValueError(f"unknown workload {name!r}")
