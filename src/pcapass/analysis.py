"""Over-smoothing sweep and random-search generalization study.

The sweep embeds each method once for the full hop budget and scores each
hop's state as soon as it is produced, by clustering it and comparing
against the true labels with v-measure, so it holds one hop state at a
time. Scores are normalized per method by that method's own maximum so the
hop trends are comparable across methods.

The generalization study samples embedding and classifier hyperparameters
jointly, trains once per sample, and records (validation loss, test
accuracy) pairs whose correlation summarizes how well model selection on
validation loss transfers to unseen data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .aggregate import Aggregator
from .datasets import TEST, TRAIN, VALID, Dataset
from .embed import EmbedConfig, Method, embed, hop_states
from .gbdt import GbdtParams, gbdt_predict, gbdt_train
from .metrics import accuracy, kmeans, pearson_correlation, standardize, v_measure
from .schema import setting


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
class SearchSpace:
    """Uniform sampling ranges, inclusive for integers; learning_rate and
    reg_lambda are sampled log-uniformly. The CLI's `hpo_*` config keys are
    derived from these fields; the GBDT `patience` key serves `patience`."""

    k: tuple[int, int] = setting((1, 10), "search range for hops", "hpo_k")
    d: tuple[int, int] = setting((4, 32), "search range for embedding dimension", "hpo_d")
    learning_rate: tuple[float, float] = setting(
        (0.03, 0.3), "learning-rate range (log-uniform)", "hpo_lr"
    )
    max_depth: tuple[int, int] = setting((3, 8), "tree-depth range", "hpo_depth")
    reg_lambda: tuple[float, float] = setting(
        (0.1, 10.0), "reg_lambda range (log-uniform)", "hpo_lambda"
    )
    subsample: tuple[float, float] = setting((0.6, 1.0), "subsample range", "hpo_subsample")
    n_rounds: int = setting(200, "boosting round cap during search runs", "hpo_rounds")
    aggregators: tuple[str, ...] = setting(
        ("mean", "symnorm"), "comma-separated aggregators sampled during search", "hpo_aggregators"
    )
    patience: int = GbdtParams.patience

    def __post_init__(self):
        for name in self.aggregators:
            if name not in {a.value for a in Aggregator}:
                raise ValueError(f"unknown aggregator {name!r}")
        for name in ("k", "d", "learning_rate", "max_depth", "reg_lambda", "subsample"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} range is inverted: {lo} > {hi}")
        for name, floor in (("k", 0), ("d", 1), ("max_depth", 1)):
            lo = getattr(self, name)[0]
            if lo < floor:
                raise ValueError(f"{name} lower bound must be >= {floor}, got {lo}")
        for name in ("learning_rate", "reg_lambda"):  # sampled log-uniformly
            lo = getattr(self, name)[0]
            if lo <= 0:
                raise ValueError(f"{name} lower bound must be > 0, got {lo}")
        if not (0.0 < self.subsample[0] and self.subsample[1] <= 1.0):
            raise ValueError(f"subsample range must lie in (0, 1], got {self.subsample}")
        if not self.aggregators:
            raise ValueError("at least one aggregator is needed")
        GbdtParams(n_rounds=self.n_rounds, patience=self.patience)  # their own checks


def normalize_scores(raw) -> np.ndarray:
    """Divide by the maximum; the best hop scores exactly 1.0. Constant
    (including all-zero) inputs normalize to all ones."""
    raw = np.asarray(raw, dtype=np.float64)
    top = raw.max()
    if top <= 0.0:
        return np.ones_like(raw)
    return raw / top


def oversmoothing_sweep(
    g,
    X,
    y,
    methods: list[Method],
    max_hops: int,
    k_clusters: int | None = None,
    seed: int = 0,
    kmeans_restarts: int = 1,
) -> list[SweepResult]:
    """Score every (method, hop) cell by standardize -> kmeans -> v-measure.

    Embedding dimension is pinned to the input feature width so no method
    gets to resize; mean aggregation is used throughout. Each hop is scored
    as soon as `hop_states` yields it, so memory holds one hop state, not
    `len(methods) * max_hops` of them. Cell (mi, ki) seeds its k-means with
    `seed ^ (mi * max_hops + ki)`. A `k_clusters` of None or 0 means the
    distinct label count.
    """
    y = np.asarray(y)
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    if k_clusters is not None and k_clusters < 0:
        raise ValueError(f"k_clusters must be >= 0, got {k_clusters}")
    if not k_clusters:
        k_clusters = int(np.unique(y).size)
    width = np.asarray(X).shape[1]

    results = []
    for mi, method in enumerate(methods):
        cfg = EmbedConfig(k=max_hops, d=width, aggregator=Aggregator.MEAN, method=method)
        raw = np.empty(max_hops)
        for ki, (h, _) in enumerate(hop_states(g, X, cfg)):
            cell_seed = seed ^ (mi * max_hops + ki)
            assign = kmeans(standardize(h), k_clusters, cell_seed, kmeans_restarts)
            raw[ki] = v_measure(y, assign)
        results.append(
            SweepResult(
                method=method,
                v_measures=raw,
                normalized=normalize_scores(raw),
                argmax_k=int(np.argmax(raw)) + 1,
            )
        )
    return results


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


def random_search(
    space: SearchSpace,
    n_runs: int,
    seed: int,
    dataset: Dataset,
    method: Method = Method.PCAPASS,
) -> list[HpoRecord]:
    """Independent uniform samples over `space`, run one after another; each
    run embeds, trains and records (validation loss, test accuracy). A
    failed run is recorded with infinite loss instead of aborting the
    search. Run i draws from an RNG seeded with `seed ^ i`."""
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")

    def one(i: int) -> HpoRecord:
        rng = np.random.default_rng(seed ^ i)
        sampled = _sample_params(space, rng)
        try:
            valid_ce, test_acc = _execute_run(dataset, method, sampled)
        except Exception:
            return HpoRecord(params=sampled, valid_ce=math.inf, test_accuracy=0.0)
        return HpoRecord(params=sampled, valid_ce=valid_ce, test_accuracy=test_acc)

    return [one(i) for i in range(n_runs)]


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
