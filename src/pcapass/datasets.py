"""Synthetic stochastic-block-model datasets and the on-disk dataset layout.

The SBM's homophily knob (p_in vs p_out) directly controls how much class
signal neighborhoods carry, which is what every end-to-end check here needs
to tune. A dataset directory holds edges.tsv, features.csv, labels.csv and
splits.csv; the same layout is the import path for user-converted real
graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .fileio import _format_rows, _parse_table, _read_text, write_text_atomic
from .graph import CsrGraph, EdgeList, edge_list_of, graphs_equal, load_edge_list, prepare
from .schema import setting

TRAIN, VALID, TEST = 0, 1, 2
_SPLIT_TOKENS = {"train": TRAIN, "valid": VALID, "test": TEST}
_SPLIT_NAMES = np.array(["train", "valid", "test"])  # indexed by TRAIN, VALID, TEST


@dataclass(frozen=True)
class SbmParams:
    """Generator settings. Each field's help text is its `help` metadata; the
    CLI's config keys of the same names are derived from these fields."""

    n_nodes: int = setting(2000, "synthetic graph size")
    n_classes: int = setting(4, "number of block classes")
    p_in: float = setting(0.05, "within-block edge probability")
    p_out: float = setting(0.005, "cross-block edge probability")
    n_features: int = setting(16, "node feature dimension")
    feature_signal: float = setting(1.0, "distance between class feature centroids (unit noise)")
    train_frac: float = setting(0.6, "train split fraction (stratified by class)")
    valid_frac: float = setting(0.2, "validation split fraction")
    test_frac: float = setting(0.2, "test split fraction")
    seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 1 or self.n_classes < 1 or self.n_features < 1:
            raise ValueError("n_nodes, n_classes and n_features must be >= 1")
        if not (0.0 <= self.p_out <= self.p_in <= 1.0):
            raise ValueError(
                f"need 0 <= p_out <= p_in <= 1, got p_in={self.p_in} p_out={self.p_out}"
            )
        fracs = (self.train_frac, self.valid_frac, self.test_frac)
        if min(fracs) <= 0.0 or abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must be positive and sum to 1, got {fracs}")
        smallest = self.n_nodes // self.n_classes  # generate_sbm's smallest class
        if round(self.train_frac * smallest) < 1:
            raise ValueError(
                f"train_frac = {self.train_frac} gives the smallest class "
                f"({smallest} of {self.n_nodes} nodes in {self.n_classes} classes) "
                "no train node"
            )
        if self.feature_signal < 0.0:
            raise ValueError(f"feature_signal must be >= 0, got {self.feature_signal}")
        if self.feature_signal > 0.0 and self.n_classes > self.n_features:
            raise ValueError(
                "equidistant class centroids need n_classes <= n_features "
                f"(got {self.n_classes} > {self.n_features})"
            )


@dataclass(frozen=True, eq=False)
class Dataset:
    graph: CsrGraph
    X: np.ndarray  # (n, f) float32
    y: np.ndarray  # (n,) int64
    split: np.ndarray  # (n,) int8, TRAIN / VALID / TEST

    @property
    def n_nodes(self) -> int:
        return self.y.shape[0]

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1

    def indices(self, which: int) -> np.ndarray:
        return np.flatnonzero(self.split == which)


def generate_sbm(p: SbmParams) -> Dataset:
    """Sample a graph, class-correlated Gaussian features, and stratified
    splits, all from one sequential RNG stream so the result is a pure
    function of the seed."""
    rng = np.random.default_rng(p.seed)
    n, n_cls = p.n_nodes, p.n_classes

    # near-equal block sizes; class ids shuffled so block structure is not
    # correlated with node-id order
    sizes = np.full(n_cls, n // n_cls, dtype=np.int64)
    sizes[: n % n_cls] += 1
    y = rng.permutation(np.repeat(np.arange(n_cls, dtype=np.int64), sizes))
    members = [np.flatnonzero(y == c) for c in range(n_cls)]

    srcs, dsts = [], []
    for a in range(n_cls):
        for b in range(a, n_cls):
            prob = p.p_in if a == b else p.p_out
            if a == b:
                ia = members[a]
                iu, ju = np.triu_indices(ia.size, k=1)
                if iu.size == 0:
                    continue
                hit = rng.random(iu.size) < prob
                srcs.append(ia[iu[hit]])
                dsts.append(ia[ju[hit]])
            else:
                ia, ib = members[a], members[b]
                if ia.size == 0 or ib.size == 0:
                    continue
                hit = rng.random(ia.size * ib.size) < prob
                gi, gj = np.divmod(np.flatnonzero(hit), ib.size)
                srcs.append(ia[gi])
                dsts.append(ib[gj])
    if srcs:
        pairs = np.stack([np.concatenate(srcs), np.concatenate(dsts)], axis=1)
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
    graph = prepare(EdgeList(n_nodes=n, pairs=pairs))

    centroids = np.zeros((n_cls, p.n_features))
    if p.feature_signal > 0.0:
        for c in range(n_cls):
            centroids[c, c] = p.feature_signal / np.sqrt(2.0)
    X = (centroids[y] + rng.standard_normal((n, p.n_features))).astype(np.float32)

    split = np.empty(n, dtype=np.int8)
    for c in range(n_cls):
        order = rng.permutation(members[c])
        size = order.size
        n_tr = int(round(p.train_frac * size))
        n_va = int(round(p.valid_frac * size))
        n_va = min(n_va, size - n_tr)
        split[order[:n_tr]] = TRAIN
        split[order[n_tr : n_tr + n_va]] = VALID
        split[order[n_tr + n_va :]] = TEST
    return Dataset(graph=graph, X=X, y=y, split=split)


def save_dataset(ds: Dataset, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    pairs = edge_list_of(ds.graph).pairs
    edges = _format_rows("{}\t{}\n", pairs[:, 0], pairs[:, 1])
    write_text_atomic(directory / "edges.tsv", edges or "\n")
    row = ",".join(["{:.9g}"] * ds.X.shape[1]) + "\n"
    write_text_atomic(directory / "features.csv", _format_rows(row, *ds.X.T) or "\n")
    ids = np.arange(ds.n_nodes)
    labels = _format_rows("{},{}\n", ids, ds.y)
    write_text_atomic(directory / "labels.csv", "node_id,label\n" + labels)
    splits = _format_rows("{},{}\n", ids, _SPLIT_NAMES[ds.split])
    write_text_atomic(directory / "splits.csv", "node_id,split\n" + splits)


def _read_id_column(path: Path, header: str, n: int) -> list[str]:
    lines = _read_text(path).splitlines()
    if not lines or lines[0] != header:
        raise DataError(f"{path}: expected header line '{header}'")
    rows = [ln for ln in lines[1:] if ln.strip()]
    if len(rows) != n:
        raise DataError(f"{path}: expected {n} rows, found {len(rows)}")
    values = [""] * n
    seen = np.zeros(n, dtype=bool)
    for ln in rows:
        parts = ln.split(",")
        if len(parts) != 2:
            raise DataError(f"{path}: malformed row {ln!r}")
        try:
            node = int(parts[0])
        except ValueError:
            raise DataError(f"{path}: non-integer node id in {ln!r}") from None
        if not (0 <= node < n) or seen[node]:
            raise DataError(f"{path}: node id {node} out of range or duplicated")
        seen[node] = True
        values[node] = parts[1]
    return values


def load_dataset(directory) -> Dataset:
    """Load and validate a dataset directory written by `save_dataset` (or
    converted from an external source into the same layout)."""
    directory = Path(directory)
    for name in ("edges.tsv", "features.csv", "labels.csv", "splits.csv"):
        if not (directory / name).is_file():
            raise DataError(f"missing dataset file: {directory / name}")

    feats_path = directory / "features.csv"
    try:
        with open(feats_path, encoding="utf-8") as fh:  # streamed by loadtxt
            X = _parse_table(fh, np.float32, ",", comments="#", name=feats_path)
    except ValueError as exc:
        raise DataError(f"{feats_path}: {exc}") from None
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise DataError(
            f"{feats_path}: non-finite value at row {row + 1}, column {col + 1} "
            "(nan, inf or beyond float32 range)"
        )
    n = X.shape[0]

    labels_path = directory / "labels.csv"
    label_tokens = _read_id_column(labels_path, "node_id,label", n)
    try:
        labels = [int(tok) for tok in label_tokens]
    except ValueError:
        raise DataError(f"{labels_path}: non-integer label") from None
    if min(labels) < 0:
        raise DataError(f"{labels_path}: negative label")
    # checked on Python ints: an int64 array could overflow, and bincount
    # would allocate one count per class up to the largest label
    top = max(labels)
    if top >= n:
        raise DataError(
            f"{labels_path}: label {top} is not below the node count {n}, "
            "so some class below it is unused"
        )
    y = np.array(labels, dtype=np.int64)
    present = np.bincount(y)
    if (present == 0).any():
        gap = int(np.flatnonzero(present == 0)[0])
        raise DataError(f"{labels_path}: label gap, class {gap} unused")

    split_tokens = _read_id_column(directory / "splits.csv", "node_id,split", n)
    split = np.empty(n, dtype=np.int8)
    for i, tok in enumerate(split_tokens):
        if tok not in _SPLIT_TOKENS:
            raise DataError(
                f"{directory / 'splits.csv'}: unknown split token {tok!r}"
            )
        split[i] = _SPLIT_TOKENS[tok]

    graph = prepare(load_edge_list(directory / "edges.tsv", n))
    return Dataset(graph=graph, X=X, y=y, split=split)


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    return (
        graphs_equal(a.graph, b.graph)
        and np.array_equal(a.X, b.X)
        and np.array_equal(a.y, b.y)
        and np.array_equal(a.split, b.split)
    )
