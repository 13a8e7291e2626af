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
from scipy import sparse

from .graph import CsrGraph


class Aggregator(Enum):
    MEAN = "mean"
    SYM_NORM = "symnorm"


def _operator(g: CsrGraph, aggregator: Aggregator) -> sparse.csr_matrix:
    deg = g.degree.astype(np.float64)
    row_deg = np.repeat(deg, g.degree)
    if aggregator is Aggregator.MEAN:
        weights = 1.0 / row_deg
    elif aggregator is Aggregator.SYM_NORM:
        weights = 1.0 / np.sqrt(row_deg * deg[g.col_idx])
    else:
        raise ValueError(f"unknown aggregator {aggregator!r}")
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
