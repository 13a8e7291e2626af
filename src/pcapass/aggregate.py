"""Neighborhood aggregation over prepared CSR graphs.

Both operators are sparse-matrix-times-dense-matrix products. The graph is
prepared once (bidirectional, self-loops), so the node itself is always part
of its own neighborhood and degrees are >= 1; the operators never
special-case the diagonal. Accumulation runs in 64-bit floats in ascending
neighbor-id order per row, so results are bitwise reproducible.

A graph is cut into row blocks of about `_BLOCK_ENTRIES` CSR entries, never
splitting a row. Each block's weights are built in turn, and the kernel of
scipy's CSR matrix-times-dense product adds the block's product straight
into its rows of one zeroed output, so the nnz-length weights are never held
whole, and no product is copied. A row's weights and its accumulation order
do not depend on the blocking, so every output byte is the same at any block
size.

With `threads` above 1, a graph of several blocks runs their kernels on up
to that many worker threads; the kernel releases the GIL. The calling thread
still builds every block's weights, in block order, and waits for the oldest
running block before it builds another, so at most `threads` blocks' weights
are held at once. Each row is written by one kernel call, so the bytes do not
depend on the thread count either. The first block to fail, in block order,
raises, and no worker thread outlives the call.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from enum import Enum

import numpy as np

from .graph import CsrGraph

# Entries per row block. On a 2-core VM after prepare and 2 embeds (k = 8,
# d = 16) of a 100k-node, 2.1M-entry graph, peak RSS read 181 MB at 2^16,
# 2^18 and 2^19, against 206 MB with the graph in one block. Smaller blocks
# cost time: one aggregate (f = 16) took 144-147 ms at 2^16, 144-146 ms at
# 2^18 and 137-138 ms at 2^19 (medians of 20, two runs each). At 2^19 the
# benchmark's smaller graphs (150k and 412k entries) are one block.
_BLOCK_ENTRIES = 1 << 19


class Aggregator(Enum):
    MEAN = "mean"
    SYM_NORM = "symnorm"


def _weights(g: CsrGraph, deg: np.ndarray, aggregator: Aggregator, r0: int, r1: int):
    """The weights of rows r0..r1-1 in one buffer, in CSR entry order: each
    entry's row degree (times its column degree, square-rooted, for symnorm),
    inverted. `deg` is the float64 degree."""
    cols = g.col_idx[g.row_ptr[r0] : g.row_ptr[r1]]
    weights = np.repeat(deg[r0:r1], np.diff(g.row_ptr[r0 : r1 + 1]))
    if aggregator is Aggregator.SYM_NORM:
        weights *= deg[cols]
        np.sqrt(weights, out=weights)
    elif aggregator is not Aggregator.MEAN:
        raise ValueError(f"unknown aggregator {aggregator!r}")
    np.divide(1.0, weights, out=weights)
    return weights


def _row_blocks(g: CsrGraph) -> np.ndarray:
    """The row cuts (0, ..., n) of `aggregate`'s blocks of about
    `_BLOCK_ENTRIES` entries; a row longer than that is one block."""
    targets = np.arange(_BLOCK_ENTRIES, g.n_entries, _BLOCK_ENTRIES)
    return np.unique(np.concatenate(([0], np.searchsorted(g.row_ptr, targets), [g.n_nodes])))


def aggregate(g: CsrGraph, H, aggregator: Aggregator, threads: int = 1) -> np.ndarray:
    """One aggregation step.

    Mean: each row becomes the average of its neighborhood's rows.
    SymNorm: neighbor rows are scaled by 1/sqrt(deg(u) * deg(v)) and summed.
    A graph of more than one row block runs the blocks' kernels on up to
    `threads` threads, with the same bytes at any count.
    """
    H = np.ascontiguousarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != g.n_nodes:
        raise ValueError(
            f"feature matrix must have {g.n_nodes} rows, got shape {H.shape}"
        )
    # scipy.sparse is imported here, so the commands that never aggregate do
    # not pay for its import.
    from scipy.sparse._sparsetools import csr_matvecs

    deg = g.degree.astype(np.float64)
    cuts = _row_blocks(g).tolist()
    threads = max(1, min(threads, len(cuts) - 1))
    out = None
    running = deque()  # the blocks whose kernels may still run, in block order
    executor = nullcontext()  # one block or one thread: kernels run on this thread
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # imported only where used

        executor = ThreadPoolExecutor(threads)
    with executor as pool:
        try:
            for r0, r1 in zip(cuts[:-1], cuts[1:]):
                if len(running) == threads:  # at most `threads` blocks' weights
                    running[0].result()  # kept in `running` if it raises
                    running.popleft()
                weights = _weights(g, deg, aggregator, r0, r1)
                if out is None:  # allocated once the first block's gather is freed
                    out = np.zeros(H.shape)
                start, stop = g.row_ptr[r0], g.row_ptr[r1]
                kernel_args = (r1 - r0, g.n_nodes, H.shape[1], g.row_ptr[r0 : r1 + 1] - start,
                               g.col_idx[start:stop], weights, H.ravel(), out[r0:r1].ravel())
                del weights  # held by `kernel_args` until the block's kernel has run
                if pool is None:
                    csr_matvecs(*kernel_args)
                else:
                    running.append(pool.submit(csr_matvecs, *kernel_args))
                del kernel_args  # before the next block's weights are built
        finally:
            for block in running:  # the first failing block, in block order, raises
                block.result()
    return np.zeros(H.shape) if out is None else out  # a 0-node graph has no block
