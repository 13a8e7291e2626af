"""Immutable CSR graphs preprocessed to be bidirectional with self-loops."""

from __future__ import annotations

import io
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .fileio import _lines, _loadtxt_agrees, _parse_table, _read_text


@dataclass(frozen=True, eq=False)
class EdgeList:
    """Raw edge pairs over nodes 0..n_nodes-1.

    May contain duplicates and self-loops; `prepare` normalizes both.
    """

    n_nodes: int
    pairs: np.ndarray  # (m, 2) int64

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        if self.n_nodes < 0:
            raise DataError(f"n_nodes must be non-negative, got {self.n_nodes}")
        if pairs.size and (pairs.min() < 0 or pairs.max() >= self.n_nodes):
            bad = pairs[(pairs < 0).any(axis=1) | (pairs >= self.n_nodes).any(axis=1)][0]
            raise DataError(
                f"edge ({bad[0]}, {bad[1]}) out of range for n_nodes={self.n_nodes}"
            )
        pairs.flags.writeable = False
        object.__setattr__(self, "pairs", pairs)

    @property
    def n_edges(self) -> int:
        return self.pairs.shape[0]


@dataclass(frozen=True, eq=False)
class CsrGraph:
    """Compressed sparse row adjacency; immutable after construction.

    After `prepare` the adjacency is symmetric, reflexive (every node has a
    self-loop), deduplicated, and each row's neighbor ids are strictly
    increasing. `degree[v]` counts neighbors including the self-loop.

    `aggregate` hands these arrays to a kernel that checks no index, so the
    constructor checks them: a row pointer that does not rise from 0 to the
    entry count, or a column id outside [0, n_nodes), raises ValueError.
    """

    row_ptr: np.ndarray  # (n+1,) int64, non-decreasing from 0 to nnz
    col_idx: np.ndarray  # (nnz,) int64 in [0, n), strictly increasing within each row

    def __post_init__(self):
        for name in ("row_ptr", "col_idx"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        row_ptr, col_idx = self.row_ptr, self.col_idx
        if row_ptr.ndim != 1 or col_idx.ndim != 1 or row_ptr.size == 0 or row_ptr[0] != 0:
            raise ValueError("row_ptr and col_idx must be 1-D, and row_ptr must start at 0")
        if (row_ptr[1:] < row_ptr[:-1]).any():
            raise ValueError("row_ptr must never fall")
        if row_ptr[-1] != col_idx.size:
            raise ValueError(f"row_ptr ends at {row_ptr[-1]}, not at the {col_idx.size} entries")
        if col_idx.size and (col_idx.min() < 0 or col_idx.max() >= self.n_nodes):
            raise ValueError(f"a column id lies outside [0, {self.n_nodes})")

    @property
    def n_nodes(self) -> int:
        return self.row_ptr.shape[0] - 1

    @property
    def n_entries(self) -> int:
        return self.col_idx.shape[0]

    @property
    def degree(self) -> np.ndarray:
        return np.diff(self.row_ptr)


def load_edge_list(path, n_nodes: int) -> EdgeList:
    """Parse a tab-separated edge file: one "src<TAB>dst" pair per line.

    Lines starting with '#' are comments; blank lines are ignored. Node ids
    are 0-based decimal integers and must be < n_nodes.

    numpy parses the file in C. A file it refuses, or whose shape or ids are
    wrong, goes to the line parse, which decides and names the offending line;
    on text that `_loadtxt_agrees` passes, loadtxt accepts only tokens `int()`
    also accepts, so both parses agree.
    """
    text = _read_text(path)
    # the line parse skips the same "#" lines
    data = re.sub(r"(?m)^#.*\n?", "", text) if "#" in text else text
    if _loadtxt_agrees(data):
        try:
            pairs = _parse_table(io.StringIO(data), np.int64, "\t")
            if pairs.shape[1] == 2:  # EdgeList's id check is a ValueError too
                return EdgeList(n_nodes=n_nodes, pairs=pairs)
        except ValueError:
            pass
    return _load_edge_list_lines(path, text, n_nodes)


def _load_edge_list_lines(path, text: str, n_nodes: int) -> EdgeList:
    """`load_edge_list` one line at a time, with an error naming the line."""
    src, dst = [], []
    for lineno, line in _lines(text):
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}: line {lineno}: expected 'src<TAB>dst'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(
                f"{path}: line {lineno}: non-integer node id in {parts!r}"
            ) from None
        if not (0 <= u < n_nodes and 0 <= v < n_nodes):
            raise DataError(
                f"{path}: line {lineno}: node id out of range for n_nodes={n_nodes}"
            )
        src.append(u)
        dst.append(v)
    pairs = np.array([src, dst], dtype=np.int64).T if src else np.empty((0, 2), np.int64)
    return EdgeList(n_nodes=n_nodes, pairs=pairs)


def prepare(edges: EdgeList) -> CsrGraph:
    """Build the CSR form used everywhere downstream.

    For every input edge (u, v) both directions are inserted, every node
    gets a self-loop, duplicates collapse, and rows are sorted. Idempotent:
    preparing the edges of a prepared graph reproduces it.
    """
    n = edges.n_nodes
    loops = np.arange(n, dtype=np.int64)
    # Sorted unique (u, v) pairs are the sorted unique keys u * n + v. The key
    # needs n**2 < 2**63, which holds for any n whose arange fits in memory.
    key = np.concatenate([edges.pairs[:, 0], edges.pairs[:, 1], loops])
    key *= n
    key += np.concatenate([edges.pairs[:, 1], edges.pairs[:, 0], loops])
    key.sort()
    if key.size:
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
    u, v = np.divmod(key, n)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=n), out=row_ptr[1:])
    return CsrGraph(row_ptr=row_ptr, col_idx=v)


def edge_list_of(g: CsrGraph) -> EdgeList:
    """Unique undirected edges (u < v) of a prepared graph, self-loops dropped."""
    rows = np.repeat(np.arange(g.n_nodes, dtype=np.int64), g.degree)
    mask = rows < g.col_idx
    pairs = np.stack([rows[mask], g.col_idx[mask]], axis=1)
    return EdgeList(n_nodes=g.n_nodes, pairs=pairs)
