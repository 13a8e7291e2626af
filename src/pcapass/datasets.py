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
from .fileio import (
    _first_pass,
    _format_rows,
    _lines,
    _parse_table,
    _read_text,
    write_text_atomic,
)
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


def _label(token: str) -> int:
    label = int(token)
    if label < 0:
        raise ValueError(f"negative label {label}")
    return label


def _split_index(token: str) -> int:
    if token not in SPLITS:
        raise ValueError(f"unknown split token {token!r}")
    return SPLITS.index(token)


def _read_id_column(path: Path, text: str, header: str, n: int | None, convert) -> list:
    """The line parse of a `node_id,<column>` file: the `convert`ed values by
    node id, of which there are `n` (None: as many as the file has rows, at
    least one). The header and the row count are checked first, then each row,
    and an error names the first bad line."""
    lines = list(_lines(text))
    if not lines or lines[0] != (1, header):
        raise DataError(f"{path}: expected header line '{header}'")
    if n is None:
        n = len(lines) - 1
        if n == 0:
            raise DataError(f"{path}: expected at least 1 row, found 0")
    elif len(lines) - 1 != n:
        raise DataError(f"{path}: expected {n} rows, found {len(lines) - 1}")
    values = [None] * n
    for number, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 2:
            raise DataError(f"{path}: line {number}: malformed row {ln!r}")
        try:
            node = int(parts[0])
        except ValueError:
            raise DataError(f"{path}: line {number}: non-integer node id in {ln!r}") from None
        if not (0 <= node < n) or values[node] is not None:
            raise DataError(f"{path}: line {number}: node id {node} out of range or duplicated")
        try:
            values[node] = convert(parts[1])
        except ValueError as exc:
            raise DataError(f"{path}: line {number}: {exc}") from None
    return values


def _first_pass_column(text: str, header: str, n: int | None, dtype):
    """The value column of a `node_id,<column>` file read by `_first_pass` as
    `dtype`, or None unless that reads it and its ids run 0..n-1 in order (n
    None: any row count). Ids out of order are left to the line parse."""
    table = _first_pass(text, np.dtype([("id", np.int64), ("value", dtype)]), ",", header)
    if table is None:
        return None
    ids = table["id"].ravel()
    if (n is not None and ids.size != n) or (ids != np.arange(ids.size)).any():
        return None
    return table["value"].ravel()


def _read_labels(path: Path, n: int | None) -> np.ndarray:
    """labels.csv's labels by node id: 0..C-1 with no gap, and so below the node
    count `n` (None: labels.csv's row count)."""
    text = _read_text(path)
    y = _first_pass_column(text, "node_id,label", n, np.int64)
    if y is None or not ((y >= 0) & (y < y.size)).all():
        labels = _read_id_column(path, text, "node_id,label", n, _label)
        n = len(labels)
        # checked on Python ints: an int64 array could overflow, and bincount
        # would allocate one count per class up to the largest label
        top = max(labels)
        if top >= n:
            raise DataError(
                f"{path}: label {top} is not below the node count {n}, "
                "so some class below it is unused"
            )
        y = np.array(labels, dtype=np.int64)
    present = np.bincount(y)
    if (present == 0).any():
        gap = int(np.flatnonzero(present == 0)[0])
        raise DataError(f"{path}: label gap, class {gap} unused")
    return y


def _read_splits(path: Path, n: int) -> np.ndarray:
    """splits.csv's split indices (TRAIN, VALID, TEST) by node id."""
    text = _read_text(path)
    # a token of 6 characters or more is read as 6, and none of those is a split name
    tokens = _first_pass_column(text, "node_id,split", n, "U6")
    if tokens is not None:
        split = np.full(n, -1, dtype=np.int8)
        for which, name in enumerate(SPLITS):
            split[tokens == name] = which
        if (split >= 0).all():
            return split
    return np.array(_read_id_column(path, text, "node_id,split", n, _split_index), dtype=np.int8)


def _require(directory: Path, names) -> None:
    for name in names:
        if not (directory / name).is_file():
            raise DataError(f"missing dataset file: {directory / name}")


def load_dataset(directory) -> Dataset:
    """Load and validate a dataset directory written by `save_dataset` (or
    converted from an external source into the same layout)."""
    directory = Path(directory)
    _require(directory, ("edges.tsv", "features.csv", "labels.csv", "splits.csv"))

    feats_path = directory / "features.csv"
    try:
        with open(feats_path, encoding="utf-8") as fh:  # streamed, blank lines skipped
            lines = (line for line in fh if line.strip())
            X = _parse_table(lines, np.float32, ",", comments="#", name=feats_path)
    except ValueError as exc:
        raise DataError(f"{feats_path}: {exc}") from None
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise DataError(
            f"{feats_path}: non-finite value at row {row + 1}, column {col + 1} "
            "(nan, inf or beyond float32 range)"
        )
    n = X.shape[0]

    y = _read_labels(directory / "labels.csv", n)
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
    y = _read_labels(directory / "labels.csv", None)
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
