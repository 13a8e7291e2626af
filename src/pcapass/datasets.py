"""Synthetic stochastic-block-model datasets and the on-disk dataset layout.

The SBM's homophily knob (p_in vs p_out) directly controls how much class
signal neighborhoods carry, which is what every end-to-end check here needs
to tune. A dataset directory holds edges.tsv, features.csv, labels.csv and
splits.csv; the same layout is the import path for user-converted real
graphs. labels.csv gives the node count, and the other files are checked
against it. Each file is read by `fileio._read_table`, so a malformed one
raises a DataError naming the file and, for a bad row, its line.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .fileio import _format_rows, _read_table, write_text_atomic
from .graph import CsrGraph, EdgeList, edge_list_of, load_edge_list, prepare
from .schema import check_settings, setting

TRAIN, VALID, TEST = 0, 1, 2
SPLITS = ("train", "valid", "test")  # the split names, indexed by TRAIN, VALID, TEST


@dataclass(frozen=True)
class SbmParams:
    """Generator settings. Each field's help text is its `help` metadata; the
    CLI's config keys of the same names are derived from these fields."""

    n_nodes: int = setting(2000, "synthetic graph size", low=1)
    n_classes: int = setting(4, "number of block classes")
    p_in: float = setting(0.05, "within-block edge probability")
    p_out: float = setting(0.005, "cross-block edge probability")
    n_features: int = setting(16, "node feature dimension", low=1)
    feature_signal: float = setting(
        1.0, "distance between class feature centroids (unit noise)", low=0
    )
    train_frac: float = setting(0.6, "train split fraction (stratified by class)")
    valid_frac: float = setting(0.2, "validation split fraction")
    test_frac: float = setting(0.2, "test split fraction")
    seed: int = setting(0, low=0)

    def __post_init__(self):
        check_settings(self)
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2 to train a classifier, got {self.n_classes}")
        if not (0.0 <= self.p_out <= self.p_in <= 1.0):
            raise ValueError(
                f"need 0 <= p_out <= p_in <= 1, got p_in={self.p_in} p_out={self.p_out}"
            )
        fracs = (self.train_frac, self.valid_frac, self.test_frac)
        if min(fracs) <= 0.0 or abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must be positive and sum to 1, got {fracs}")
        smallest = self.n_nodes // self.n_classes  # generate_sbm's smallest class
        for name, frac, count in zip(SPLITS, fracs, self._split_sizes(smallest)):
            if count < 1:
                raise ValueError(
                    f"{name}_frac = {frac} gives the smallest class "
                    f"({smallest} of {self.n_nodes} nodes in {self.n_classes} classes) "
                    f"no {name} node"
                )
        if self.feature_signal / np.sqrt(2.0) > np.finfo(np.float32).max:  # see generate_sbm
            raise ValueError(
                f"feature_signal = {self.feature_signal} puts the class centroids "
                "beyond float32 range"
            )
        if self.feature_signal > 0.0 and self.n_classes > self.n_features:
            raise ValueError(
                "equidistant class centroids need n_classes <= n_features "
                f"(got {self.n_classes} > {self.n_features})"
            )

    def _split_sizes(self, size: int) -> tuple[int, int, int]:
        """The train, valid and test node counts of a class of `size` nodes."""
        n_tr = round(self.train_frac * size)
        n_va = min(round(self.valid_frac * size), size - n_tr)
        return n_tr, n_va, size - n_tr - n_va


@dataclass(frozen=True, eq=False)
class Dataset:
    graph: CsrGraph
    X: np.ndarray  # (n, f) float32
    y: np.ndarray  # (n,) int64
    split: np.ndarray  # (n,) int8, TRAIN / VALID / TEST

    @property
    def n_nodes(self) -> int:
        return self.y.shape[0]

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
                hit = rng.random(iu.size) < prob
                srcs.append(ia[iu[hit]])
                dsts.append(ia[ju[hit]])
            else:
                ia, ib = members[a], members[b]
                hit = rng.random(ia.size * ib.size) < prob
                gi, gj = np.divmod(np.flatnonzero(hit), ib.size)
                srcs.append(ia[gi])
                dsts.append(ib[gj])
    pairs = np.stack([np.concatenate(srcs), np.concatenate(dsts)], axis=1)
    graph = prepare(EdgeList(n_nodes=n, pairs=pairs))

    centroids = np.zeros((n_cls, p.n_features))
    if p.feature_signal > 0.0:
        for c in range(n_cls):
            centroids[c, c] = p.feature_signal / np.sqrt(2.0)
    X = (centroids[y] + rng.standard_normal((n, p.n_features))).astype(np.float32)

    split = np.empty(n, dtype=np.int8)
    for c in range(n_cls):
        order = rng.permutation(members[c])
        n_tr, n_va, _ = p._split_sizes(order.size)
        split[order[:n_tr]] = TRAIN
        split[order[n_tr : n_tr + n_va]] = VALID
        split[order[n_tr + n_va :]] = TEST
    return Dataset(graph=graph, X=X, y=y, split=np.array(split, dtype=np.int8))


def save_dataset(ds: Dataset, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    pairs = edge_list_of(ds.graph).pairs
    write_text_atomic(directory / "edges.tsv", _format_rows("", *pairs.T, delimiter="\t"))
    write_text_atomic(directory / "features.csv", _format_rows("", *ds.X.T))
    ids = np.arange(ds.n_nodes)
    write_text_atomic(directory / "labels.csv", _format_rows("node_id,label", ids, ds.y))
    splits = _format_rows("node_id,split", ids, np.array(SPLITS)[ds.split])
    write_text_atomic(directory / "splits.csv", splits)


# One row per line of labels.csv and splits.csv, after the header; a split
# name is read as the raw string.
_LABELS = np.dtype([("id", np.int64), ("label", np.int64)])
_SPLITS = np.dtype([("id", np.int64), ("split", object)])


def _id_fault(ids: np.ndarray, n: int):
    """The fault of a `node_id` column that must hold 0..n-1 in any order, as
    `fileio._read_table`'s `check` returns it: the row count, or the first row
    whose id is out of range or repeats an earlier one; None if it holds."""
    if ids.size != n:
        return None, f"expected {n} rows, found {ids.size}"
    if (ids == np.arange(n)).all():  # the order `save_dataset` writes
        return None
    bad = (ids < 0) | (ids >= n)
    order = np.argsort(ids, kind="stable")
    bad[order[1:][ids[order[1:]] == ids[order[:-1]]]] = True
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    return row, f"node id {ids[row]} out of range or duplicated"


def _read_labels(path: Path) -> np.ndarray:
    """labels.csv's labels by node id: 0..C-1 with no gap, and so below the node
    count, which is labels.csv's row count."""

    def check(table):
        ids, labels = table["id"], table["label"]
        n = ids.size
        fault = _id_fault(ids, n) if n else (None, "expected at least 1 row, found 0")
        if fault is not None:
            return fault
        bad = (labels < 0) | (labels >= n)
        if bad.any():
            row = int(np.argmax(bad))
            label = labels[row]
            if label < 0:
                return row, f"negative label {label}"
            return row, (
                f"label {label} is not below the node count {n}, so some class below it is unused"
            )
        gaps = np.flatnonzero(np.bincount(labels) == 0)
        return (None, f"label gap, class {gaps[0]} unused") if gaps.size else None

    table = _read_table(path, _LABELS, header="node_id,label", check=check)
    y = np.empty(table.size, dtype=np.int64)
    y[table["id"]] = table["label"]
    return y


def _read_splits(path: Path, n: int) -> np.ndarray:
    """splits.csv's split indices (TRAIN, VALID, TEST) by node id."""

    def check(table):
        fault = _id_fault(table["id"], n)
        if fault is not None:
            return fault
        known = np.isin(table["split"], SPLITS)
        if not known.all():
            row = int(np.argmin(known))
            return row, f"unknown split token {table['split'][row]!r}"
        return None

    table = _read_table(path, _SPLITS, header="node_id,split", check=check)
    split = np.empty(n, dtype=np.int8)
    for which, name in enumerate(SPLITS):
        split[table["id"][table["split"] == name]] = which
    return split


def _require(directory: Path, names) -> None:
    for name in names:
        if not (directory / name).is_file():
            raise DataError(f"missing dataset file: {directory / name}")


def load_dataset(directory) -> Dataset:
    """Load and validate a dataset directory written by `save_dataset` (or
    converted from an external source into the same layout)."""
    directory = Path(directory)
    _require(directory, ("edges.tsv", "features.csv", "labels.csv", "splits.csv"))

    y = _read_labels(directory / "labels.csv")
    n = y.size

    def check_features(X):
        if X.shape[0] != n:
            return None, f"expected {n} rows, found {X.shape[0]}"
        finite = np.isfinite(X)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            return row, (
                f"non-finite value in column {col + 1} (nan, inf or beyond float32 range)"
            )
        return None

    X = _read_table(directory / "features.csv", np.float32, check=check_features)
    split = _read_splits(directory / "splits.csv", n)
    graph = prepare(load_edge_list(directory / "edges.tsv", n))
    return Dataset(graph=graph, X=X, y=y, split=split)


def load_labels_and_splits(directory) -> tuple[np.ndarray, np.ndarray]:
    """The labels and splits of a dataset directory, all that a classifier on
    embeddings needs. labels.csv gives the node count; both files are checked
    as `load_dataset` checks them, and must give two classes and a node of
    every split. edges.tsv and features.csv are not opened."""
    directory = Path(directory)
    _require(directory, ("labels.csv", "splits.csv"))
    y = _read_labels(directory / "labels.csv")
    split = _read_splits(directory / "splits.csv", y.size)
    _check_trainable(directory, y, split)
    return y, split


def _check_trainable(directory, y: np.ndarray, split: np.ndarray) -> None:
    """Two classes and a node of every split, which a classifier needs: `gen`
    ensures both, and loaded data may lack them."""
    directory = Path(directory)
    n_classes = np.unique(y).size
    if n_classes < 2:
        raise DataError(f"{directory / 'labels.csv'}: need at least 2 classes, got {n_classes}")
    for which, name in enumerate(SPLITS):
        if not (split == which).any():
            raise DataError(f"{directory / 'splits.csv'}: no {name} node")
