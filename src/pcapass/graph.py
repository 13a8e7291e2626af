"""Immutable CSR graphs preprocessed to be bidirectional with self-loops."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .fileio import _read_table


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


# One row per line: a (src, dst) record, which `load_edge_list` views as an
# (m, 2) int64 array without a copy.
_EDGE = np.dtype([("src", np.int64), ("dst", np.int64)])


def load_edge_list(path, n_nodes: int) -> EdgeList:
    """Parse a tab-separated edge file: one "src<TAB>dst" pair per line.

    Blank lines and lines that start with '#' are skipped. Node ids are
    0-based decimal integers and must be < n_nodes. The file is read by
    `fileio._read_table`, so an error names the file and the line.
    """

    def check(table):
        pairs = table.view(np.int64).reshape(-1, 2)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n_nodes):
            row = int(np.argmax(((pairs < 0) | (pairs >= n_nodes)).any(axis=1)))
            u, v = pairs[row]
            return row, f"edge ({u}, {v}) out of range for n_nodes={n_nodes}"
        return None

    table = _read_table(path, _EDGE, "\t", check=check)
    return EdgeList(n_nodes=n_nodes, pairs=table.view(np.int64).reshape(-1, 2))


def prepare(edges: EdgeList) -> CsrGraph:
    """Build the CSR form used everywhere downstream.

    For every input edge (u, v) both directions are inserted, every node
    gets a self-loop, duplicates collapse, and rows are sorted. Idempotent:
    preparing the edges of a prepared graph reproduces it.
    """
    n, m = edges.n_nodes, edges.n_edges
    u, v = edges.pairs[:, 0], edges.pairs[:, 1]
    loops = np.arange(n, dtype=np.int64)
    # Sorted unique (u, v) pairs are the sorted unique keys u * n + v. The key
    # needs n**2 < 2**63, which holds for any n whose arange fits in memory.
    # The keys are built, sorted and compacted in one array; each row's
    # entries start where its first key, row * n, would sort in.
    key = np.concatenate([u, v, loops])
    key *= n
    key[:m] += v
    key[m : 2 * m] += u
    key[2 * m :] += loops
    key.sort()
    if key.size:
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
    row_ptr = np.searchsorted(key, np.arange(n + 1) * n)
    return CsrGraph(row_ptr=row_ptr, col_idx=np.remainder(key, n, out=key))


def edge_list_of(g: CsrGraph) -> EdgeList:
    """Unique undirected edges (u < v) of a prepared graph, self-loops dropped."""
    rows = np.repeat(np.arange(g.n_nodes, dtype=np.int64), g.degree)
    mask = rows < g.col_idx
    pairs = np.stack([rows[mask], g.col_idx[mask]], axis=1)
    return EdgeList(n_nodes=g.n_nodes, pairs=pairs)
