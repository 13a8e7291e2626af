"""Over-smoothing sweep and random-search generalization study.

The sweep reads its settings from a `SweepConfig` and the search from a
`SearchSpace`, whose fields the CLI's sweep and `hpo_*` keys derive from.

The sweep embeds each method once for the full hop budget and scores each
hop's state as soon as it is produced, by clustering it and comparing
against the true labels with v-measure, so each method holds one hop state
at a time. Scores are normalized per method by that method's own maximum so
the hop trends are comparable across methods.

The generalization study samples embedding and classifier hyperparameters
jointly, trains once per sample, and records (validation loss, test
accuracy) pairs whose correlation summarizes how well model selection on
validation loss transfers to unseen data.

Sweep methods and search runs are independent jobs whose seeds do not
depend on the schedule, so `workers` above 1 runs them in forked worker
processes, at most one per usable core and per job, with the same results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import parallel
from .aggregate import Aggregator
from .datasets import TEST, TRAIN, VALID, Dataset
from .embed import EmbedConfig, Method, embed, hop_states
from .gbdt import GbdtParams, gbdt_predict, gbdt_train
from .metrics import accuracy, kmeans, pearson_correlation, standardize, v_measure
from .schema import check_settings, setting


@dataclass
class SweepResult:
    method: Method
    v_measures: np.ndarray  # raw score at hops 1..K
    normalized: np.ndarray  # raw / max(raw); all ones if scores are all zero
    argmax_k: int  # 1-based hop of the best raw score (first max)


@dataclass
class HpoRecord:
    params: dict
    valid_ce: float  # +inf marks a failed run
    test_accuracy: float


@dataclass(frozen=True)
class SweepConfig:
    """Over-smoothing sweep settings. The CLI's sweep keys are derived from these fields."""

    max_hops: int = setting(
        30, "maximum hop count scanned by the over-smoothing sweep", "sweep_hops", low=1
    )
    methods: tuple[str, ...] = setting(
        ("pcapass", "message_passing", "skip_connections"), "comma-separated methods to sweep",
        "sweep_methods",
    )
    k_clusters: int = setting(
        0, "clusters for the sweep's k-means (0: distinct label count)", low=0
    )
    kmeans_restarts: int = setting(1, "k-means seeding restarts per sweep cell", low=1)

    def __post_init__(self):
        check_settings(self)
        for name in self.methods:
            if name not in {m.value for m in Method}:
                raise ValueError(f"unknown method {name!r}")


@dataclass(frozen=True)
class SearchSpace:
    """`n_runs` runs of `method`, each sampling uniformly from these ranges,
    inclusive for integers; learning_rate and reg_lambda are sampled
    log-uniformly. The CLI's `hpo_*` config keys are derived from these fields;
    the keys `method`, `patience`, `n_bins` and `min_child_hessian` serve the
    fields of those names."""

    n_runs: int = setting(50, "number of random-search runs", "hpo_runs", low=1)
    k: tuple[int, int] = setting((1, 10), "search range for hops", "hpo_k", low=0)
    d: tuple[int, int] = setting((4, 32), "search range for embedding dimension", "hpo_d", low=1)
    learning_rate: tuple[float, float] = setting(
        (0.03, 0.3), "learning-rate range (log-uniform)", "hpo_lr"
    )
    max_depth: tuple[int, int] = setting((3, 8), "tree-depth range", "hpo_depth", low=1)
    reg_lambda: tuple[float, float] = setting(
        (0.1, 10.0), "reg_lambda range (log-uniform)", "hpo_lambda"
    )
    subsample: tuple[float, float] = setting((0.6, 1.0), "subsample range", "hpo_subsample")
    n_rounds: int = setting(200, "boosting round cap during search runs", "hpo_rounds")
    aggregators: tuple[str, ...] = setting(
        ("mean", "symnorm"), "comma-separated aggregators sampled during search", "hpo_aggregators"
    )
    method: Method = EmbedConfig.method
    patience: int = GbdtParams.patience
    n_bins: int = GbdtParams.n_bins
    min_child_hessian: float = GbdtParams.min_child_hessian

    def __post_init__(self):
        check_settings(self)
        for name in self.aggregators:
            if name not in {a.value for a in Aggregator}:
                raise ValueError(f"unknown aggregator {name!r}")
        for name in ("learning_rate", "reg_lambda"):  # sampled log-uniformly
            lo = getattr(self, name)[0]
            if lo <= 0:
                raise ValueError(f"{name} lower bound must be > 0, got {lo}")
        if not (0.0 < self.subsample[0] and self.subsample[1] <= 1.0):
            raise ValueError(f"subsample range must lie in (0, 1], got {self.subsample}")
        if not self.aggregators:
            raise ValueError("at least one aggregator is needed")
        for end in (0, 1):  # GbdtParams' own checks, at either end of every range
            GbdtParams(learning_rate=self.learning_rate[end], max_depth=self.max_depth[end],
                       reg_lambda=self.reg_lambda[end], subsample=self.subsample[end],
                       n_rounds=self.n_rounds, patience=self.patience, n_bins=self.n_bins,
                       min_child_hessian=self.min_child_hessian)


_job = None  # a worker's job, set once by `_start_worker`


def _start_worker(job, blas_threads: int) -> None:
    """Pool initializer: keep `job` and cap OpenBLAS at `blas_threads`, so
    the workers together use no more threads than there are cores."""
    global _job
    _job = job
    parallel._set_blas_threads(blas_threads)


def _call_job(i: int):
    return _job(i)


def _run_jobs(job, n_jobs: int, workers: int) -> list:
    """`[job(i) for i in range(n_jobs)]`, in `parallel._worker_count` processes.

    One worker runs the jobs in this process. More use a fork-context pool:
    forked workers inherit `job` (a closure over the caller's data) through
    the initializer rather than by pickling, tasks carry only the index, and
    results come back pickled, bit for bit, in job order. The first job to
    raise, in job order, raises here. The pool forks its workers before it
    starts its own threads; OpenBLAS's threads survive a fork through its
    fork handlers (Python 3.12 warns about them with a DeprecationWarning).
    """
    count = parallel._worker_count(workers, n_jobs)
    if count == 1:
        return [job(i) for i in range(n_jobs)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    blas_threads = max(1, parallel._usable_cores() // count)
    with ProcessPoolExecutor(
        count, mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(job, blas_threads),
    ) as pool:
        return list(pool.map(_call_job, range(n_jobs)))


def normalize_scores(raw) -> np.ndarray:
    """Divide by the maximum; the best hop scores exactly 1.0. Constant
    (including all-zero) inputs normalize to all ones."""
    raw = np.asarray(raw, dtype=np.float64)
    top = raw.max()
    if top <= 0.0:
        return np.ones_like(raw)
    return raw / top


def oversmoothing_sweep(g, X, y, sweep: SweepConfig, seed: int = 0,
                        workers: int = 1) -> list[SweepResult]:
    """Score each of `sweep`'s (method, hop) cells by standardize -> kmeans -> v-measure.

    Embedding dimension is pinned to the input feature width so no method
    gets to resize; mean aggregation is used throughout. Each hop is scored
    as soon as `hop_states` yields it, so each method holds one hop state,
    not `max_hops` of them. Cell (mi, ki) seeds its k-means with
    `seed ^ (mi * max_hops + ki)`. A `k_clusters` of 0 means the distinct
    label count. Labels of one class would score every cell a trivial 1, so
    they raise ValueError. Methods run in up to `workers` processes.
    """
    y = np.asarray(y)
    n_classes = int(np.unique(y).size)
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    k_clusters = sweep.k_clusters or n_classes
    width = np.asarray(X).shape[1]

    def one(mi: int) -> SweepResult:
        method = Method(sweep.methods[mi])
        cfg = EmbedConfig(k=sweep.max_hops, d=width, aggregator=Aggregator.MEAN, method=method)
        raw = np.empty(sweep.max_hops)
        for ki, (h, _) in enumerate(hop_states(g, X, cfg)):
            cell_seed = seed ^ (mi * sweep.max_hops + ki)
            assign = kmeans(standardize(h), k_clusters, cell_seed, sweep.kmeans_restarts)
            raw[ki] = v_measure(y, assign)
        return SweepResult(
            method=method,
            v_measures=raw,
            normalized=normalize_scores(raw),
            argmax_k=int(np.argmax(raw)) + 1,
        )

    return _run_jobs(one, len(sweep.methods), workers)


def _sample_params(space: SearchSpace, rng: np.random.Generator) -> dict:
    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    return {
        "k": int(rng.integers(space.k[0], space.k[1] + 1)),
        "d": int(rng.integers(space.d[0], space.d[1] + 1)),
        "aggregator": space.aggregators[int(rng.integers(len(space.aggregators)))],
        "learning_rate": log_uniform(*space.learning_rate),
        "max_depth": int(rng.integers(space.max_depth[0], space.max_depth[1] + 1)),
        "reg_lambda": log_uniform(*space.reg_lambda),
        "subsample": float(rng.uniform(*space.subsample)),
        "n_rounds": space.n_rounds,
        "patience": space.patience,
        "n_bins": space.n_bins,
        "min_child_hessian": space.min_child_hessian,
        "seed": int(rng.integers(2**31)),
    }


def _execute_run(dataset: Dataset, method: Method, sampled: dict) -> tuple[float, float]:
    cfg = EmbedConfig(
        k=sampled["k"],
        d=sampled["d"],
        aggregator=Aggregator(sampled["aggregator"]),
        method=method,
    )
    emb = embed(dataset.graph, dataset.X, cfg).embeddings
    tr = dataset.indices(TRAIN)
    va = dataset.indices(VALID)
    te = dataset.indices(TEST)
    params = GbdtParams(
        **{f.name: sampled[f.name] for f in fields(GbdtParams) if f.name in sampled}
    )
    model = gbdt_train(emb[tr], dataset.y[tr], emb[va], dataset.y[va], params)
    test_acc = accuracy(gbdt_predict(model, emb[te]), dataset.y[te])
    return model.best_valid_ce, test_acc


def random_search(space: SearchSpace, seed: int, dataset: Dataset,
                  workers: int = 1) -> list[HpoRecord]:
    """`space.n_runs` independent uniform samples over `space`, run in up to
    `workers` processes; each run embeds, trains and records (validation
    loss, test accuracy). A failed run is recorded with infinite loss instead
    of aborting the search. Run i draws from an RNG seeded with `seed ^ i`."""

    def one(i: int) -> HpoRecord:
        rng = np.random.default_rng(seed ^ i)
        sampled = _sample_params(space, rng)
        try:
            valid_ce, test_acc = _execute_run(dataset, space.method, sampled)
        except Exception:
            return HpoRecord(params=sampled, valid_ce=math.inf, test_accuracy=0.0)
        return HpoRecord(params=sampled, valid_ce=valid_ce, test_accuracy=test_acc)

    return _run_jobs(one, space.n_runs, workers)


def hpo_summary(records: list[HpoRecord]) -> dict:
    """Best-by-validation-loss run plus the Pearson correlation between
    validation loss and test accuracy over the successful runs."""
    ok = [(i, r) for i, r in enumerate(records) if math.isfinite(r.valid_ce)]
    summary: dict = {"n_runs": len(records), "n_failed": len(records) - len(ok)}
    if not ok:
        summary.update(best_run=None, best_valid_ce=None, best_run_test_accuracy=None,
                       pearson_valid_ce_vs_test_accuracy=None)
        return summary
    best_i, best = min(ok, key=lambda pair: (pair[1].valid_ce, pair[0]))
    summary["best_run"] = best_i
    summary["best_valid_ce"] = best.valid_ce
    summary["best_run_test_accuracy"] = best.test_accuracy
    try:
        summary["pearson_valid_ce_vs_test_accuracy"] = pearson_correlation(
            [r.valid_ce for _, r in ok], [r.test_accuracy for _, r in ok]
        )
    except ValueError:
        summary["pearson_valid_ce_vs_test_accuracy"] = None
    return summary
