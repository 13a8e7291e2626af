"""Exact PCA via eigendecomposition of the feature covariance matrix.

Hop states have few columns while the node count may be large, so the
f x f covariance route is much cheaper than an SVD of the full matrix.
A fit is a deterministic function of its rows in their given order:
refitting the same matrix gives the same bits, while permuting its rows
moves the model by floating-point rounding only, since the sums run in
another order. Components carry a fixed sign convention so repeated fits
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative cutoff below which eigenvalues are reported as exactly zero.
_EIGENVALUE_FLOOR = 1e-12

# Rows per chunk of a fit or a projection: a chunk of two 16-column halves
# is 512 KB.
_CHUNK_ROWS = 2048


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Fitted mean, orthonormal components (rows), and eigenvalue spectrum.

    `total_variance` is the trace of the sample covariance. The components
    are truncated to `d`, so the eigenvalues kept may sum to less; it is
    the denominator of the explained-variance ratios.
    """

    mean: np.ndarray  # (f,)
    components: np.ndarray  # (d, f), rows orthonormal, descending eigenvalue
    eigenvalues: np.ndarray  # (d,), non-negative, descending
    total_variance: float

    def __post_init__(self):
        for name in ("mean", "components", "eigenvalues"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_features(self) -> int:
        return self.mean.shape[0]

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


def _fix_signs(components: np.ndarray) -> np.ndarray:
    # Largest-magnitude entry of each component is made positive; argmax
    # breaks ties at the lowest index.
    pivot = np.argmax(np.abs(components), axis=1)
    flip = components[np.arange(components.shape[0]), pivot] < 0.0
    components[flip] *= -1.0
    return components


def _column_blocks(X, right) -> tuple[np.ndarray, ...]:
    """X, and `right` when given, as float64 matrices of the same rows: the
    column blocks of one matrix [X, right]."""
    blocks = tuple(np.asarray(b, dtype=np.float64) for b in (X, right) if b is not None)
    if any(b.ndim != 2 for b in blocks) or len({len(b) for b in blocks}) > 1:
        raise ValueError(
            "PCA input must be 2-D column blocks with the same rows, "
            f"got shapes {[b.shape for b in blocks]}"
        )
    return blocks


def _spans(blocks) -> list[slice]:
    """Each block's columns in the matrix the blocks make side by side."""
    stops = np.cumsum([b.shape[1] for b in blocks]).tolist()
    return [slice(stop - b.shape[1], stop) for b, stop in zip(blocks, stops)]


def _centered_chunks(blocks, mean: np.ndarray):
    """Yield (r0, [each block's rows r0.. minus their mean]) for chunks of
    `_CHUNK_ROWS` rows in order. Each block is centered into one contiguous
    buffer, so a chunk is valid only until the next is asked for; a chunk's
    rows are read before it is yielded, so the caller may then overwrite
    them."""
    n = len(blocks[0])
    rows = _CHUNK_ROWS
    spans = _spans(blocks)
    buffers = [np.empty((min(n, rows), b.shape[1])) for b in blocks]
    for r0 in range(0, n, rows):
        m = min(n - r0, rows)
        yield r0, [
            np.subtract(b[r0 : r0 + m], mean[span], out=buffer[:m])
            for b, span, buffer in zip(blocks, spans, buffers)
        ]


def pca_fit(X, d: int, *, right=None) -> PcaModel:
    """Fit the top min(d, f, n) principal components of X (n x f).

    The covariance is the sample covariance (divides by n - 1); no variance
    scaling is applied. Constant input is fine: all eigenvalues come out
    zero and transforms map to zeros. X is left as it is.

    The Gram matrix of the centered rows is summed over chunks of
    `_CHUNK_ROWS` rows in order, each centered into a small buffer, so the
    fit never copies X whole. With `right` (n x f2), the fit is that of the
    n x (f + f2) concatenation [X, right], which is never built either: the
    column sums are taken block by block, and the Gram matrix's blocks
    X'X, X'right and right'right are summed chunk by chunk. The model
    differs from the fit of the built concatenation by rounding only.
    """
    blocks = _column_blocks(X, right)
    n = len(blocks[0])
    if n < 2:
        raise ValueError(f"pca_fit needs at least 2 rows, got {n}")
    if d < 1:
        raise ValueError(f"target dimension must be >= 1, got {d}")

    mean = np.concatenate([b.sum(axis=0) for b in blocks]) / n
    spans = _spans(blocks)
    pairs = [(i, j) for i in range(len(blocks)) for j in range(i, len(blocks))]
    gram = np.zeros((mean.size, mean.size))
    for _, chunk in _centered_chunks(blocks, mean):
        for i, j in pairs:
            gram[spans[i], spans[j]] += chunk[i].T @ chunk[j]
    for i, j in pairs:
        if i < j:
            gram[spans[j], spans[i]] = gram[spans[i], spans[j]].T
    cov = gram / (n - 1.0)

    evals, evecs = np.linalg.eigh(cov)
    evals = evals[::-1]
    components = evecs[:, ::-1].T.copy()

    n_components = min(d, mean.size, n)
    evals = np.maximum(evals[:n_components], 0.0)
    if evals.size and evals[0] > 0.0:
        evals[evals < _EIGENVALUE_FLOOR * evals[0]] = 0.0
    components = _fix_signs(components[:n_components])
    total_variance = float(np.trace(cov))
    return PcaModel(
        mean=mean,
        components=components,
        eigenvalues=evals,
        total_variance=total_variance,
    )


def pca_transform(model: PcaModel, X, *, right=None, out=None) -> np.ndarray:
    """Project X onto the fitted components: (X - mean) @ components.T.

    The rows are projected chunk by chunk, as `pca_fit` takes them. With
    `right`, the rows projected are those of the concatenation [X, right],
    and each chunk's projection is the sum of its two blocks'. The result
    is written into `out` when it is given, a float64 array of one row per
    row of X and one column per component; it may be X itself, when the
    model has as many components as X has columns: each chunk's rows of X
    are read before they are overwritten.
    """
    blocks = _column_blocks(X, right)
    n = len(blocks[0])
    widths = [b.shape[1] for b in blocks]
    if sum(widths) != model.n_features:
        raise ValueError(
            f"pca_transform expects {model.n_features} columns, "
            f"got {' + '.join(map(str, widths))}"
        )
    shape = (n, model.n_components)
    if out is None:
        out = np.empty(shape)
    elif not isinstance(out, np.ndarray) or out.shape != shape or out.dtype != np.float64:
        raise ValueError(
            f"pca_transform's out must be a float64 array of shape {shape}, "
            f"got {getattr(out, 'dtype', type(out).__name__)} of shape {np.shape(out)}"
        )
    first, *rest = [np.ascontiguousarray(model.components[:, s].T) for s in _spans(blocks)]
    for r0, (rows_first, *rows_rest) in _centered_chunks(blocks, model.mean):
        rows = out[r0 : r0 + len(rows_first)]
        np.matmul(rows_first, first, out=rows)
        for block, part in zip(rows_rest, rest):
            rows += block @ part
    return out


def explained_variance_ratio(model: PcaModel) -> np.ndarray:
    """Per-component share of the total variance; zeros for constant data."""
    if model.total_variance <= 0.0:
        return np.zeros_like(model.eigenvalues)
    return np.minimum(model.eigenvalues / model.total_variance, 1.0)

