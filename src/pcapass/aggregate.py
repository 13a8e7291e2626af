"""Neighborhood aggregation over prepared CSR graphs.

Both operators are sparse-matrix-times-dense-matrix products. The graph is
prepared once (bidirectional, self-loops), so the node itself is always part
of its own neighborhood and degrees are >= 1; the operators never
special-case the diagonal. Accumulation runs in 64-bit floats in ascending
neighbor-id order per row, so results are bitwise reproducible.

A graph is cut into row blocks of about `_BLOCK_ENTRIES` CSR entries, never
splitting a row. Each block's operator is built and multiplied in turn into
its rows of one output array, so the nnz-length operator is never held
whole, only one block's. A graph of one block is multiplied by its whole
operator with no output copy: copying the product into a preallocated
output would add one hop state to the peak of `embed`. A row's weights and
its accumulation order do not depend on the blocking, so every output byte
is the same at any block size.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .graph import CsrGraph

# Entries per row block. On a 2-core VM after prepare and 2 embeds (k = 8,
# d = 16) of a 100k-node, 2.1M-entry graph, peak RSS read 188 MB at every
# size from 2^16 to 2^19, against 216 MB for one whole operator. Smaller
# blocks cost time: one aggregate (f = 16) took 95-137 ms whole, 131-171 ms
# at 2^16, 110-146 ms at 2^18 and 108-138 ms at 2^19 (medians of 20), and a
# 412k-entry graph took 7.0-7.4 ms whole and 7.7-8.3 ms in 2 blocks. At 2^19
# the benchmark's smaller graphs (150k and 412k entries) are one block.
_BLOCK_ENTRIES = 1 << 19


class Aggregator(Enum):
    MEAN = "mean"
    SYM_NORM = "symnorm"


def _operator(g: CsrGraph, deg: np.ndarray, aggregator: Aggregator, r0: int, r1: int):
    """Rows r0..r1-1 of the operator as a scipy CSR matrix; `deg` is the
    float64 degree. scipy.sparse is imported here, so the commands that never
    aggregate do not pay for its import."""
    from scipy import sparse

    # The weights are built in one buffer: each entry's row degree (times
    # its column degree, square-rooted, for symnorm), inverted.
    start, stop = g.row_ptr[r0], g.row_ptr[r1]
    cols = g.col_idx[start:stop]
    weights = np.repeat(deg[r0:r1], g.degree[r0:r1])
    if aggregator is Aggregator.SYM_NORM:
        weights *= deg[cols]
        np.sqrt(weights, out=weights)
    elif aggregator is not Aggregator.MEAN:
        raise ValueError(f"unknown aggregator {aggregator!r}")
    np.divide(1.0, weights, out=weights)
    indptr = g.row_ptr[r0 : r1 + 1] - start
    return sparse.csr_matrix((weights, cols, indptr), shape=(r1 - r0, g.n_nodes))


def _row_blocks(g: CsrGraph) -> np.ndarray:
    """The row cuts (0, ..., n) of `aggregate`'s blocks of about
    `_BLOCK_ENTRIES` entries; a row longer than that is one block."""
    targets = np.arange(_BLOCK_ENTRIES, g.n_entries, _BLOCK_ENTRIES)
    return np.unique(np.concatenate(([0], np.searchsorted(g.row_ptr, targets), [g.n_nodes])))


def aggregate(g: CsrGraph, H, aggregator: Aggregator) -> np.ndarray:
    """One aggregation step.

    Mean: each row becomes the average of its neighborhood's rows.
    SymNorm: neighbor rows are scaled by 1/sqrt(deg(u) * deg(v)) and summed.
    """
    H = np.ascontiguousarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != g.n_nodes:
        raise ValueError(
            f"feature matrix must have {g.n_nodes} rows, got shape {H.shape}"
        )
    cuts = _row_blocks(g)
    if cuts.size <= 2:  # one block; the degrees are freed before the product
        return _operator(g, g.degree.astype(np.float64), aggregator, 0, g.n_nodes) @ H
    deg = g.degree.astype(np.float64)
    out = np.empty((g.n_nodes, H.shape[1]))
    for r0, r1 in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        out[r0:r1] = _operator(g, deg, aggregator, r0, r1) @ H
    return out
