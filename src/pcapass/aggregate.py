"""Neighborhood aggregation over prepared CSR graphs.

Both operators are sparse-matrix-times-dense-matrix products. The graph is
prepared once (bidirectional, self-loops), so the node itself is always part
of its own neighborhood and degrees are >= 1; the operators never
special-case the diagonal. Accumulation runs in 64-bit floats in ascending
neighbor-id order per row, so results are bitwise reproducible.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .graph import CsrGraph


class Aggregator(Enum):
    MEAN = "mean"
    SYM_NORM = "symnorm"


def _operator(g: CsrGraph, aggregator: Aggregator):
    """The operator as a scipy CSR matrix. scipy.sparse is imported here, so
    the commands that never aggregate do not pay for its import."""
    from scipy import sparse

    # The weights are built in one nnz-length buffer: each entry's row
    # degree (times its column degree, square-rooted, for symnorm), inverted.
    deg = g.degree.astype(np.float64)
    weights = np.repeat(deg, g.degree)
    if aggregator is Aggregator.SYM_NORM:
        weights *= deg[g.col_idx]
        np.sqrt(weights, out=weights)
    elif aggregator is not Aggregator.MEAN:
        raise ValueError(f"unknown aggregator {aggregator!r}")
    np.divide(1.0, weights, out=weights)
    return sparse.csr_matrix(
        (weights, g.col_idx, g.row_ptr), shape=(g.n_nodes, g.n_nodes)
    )


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
    return _operator(g, aggregator) @ H
