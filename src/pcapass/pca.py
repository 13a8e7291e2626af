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


def pca_fit(X, d: int) -> PcaModel:
    """Fit the top min(d, f, n) principal components of X (n x f).

    The covariance is the sample covariance (divides by n - 1); no variance
    scaling is applied. Constant input is fine: all eigenvalues come out
    zero and transforms map to zeros.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"pca_fit expects a 2-D matrix, got shape {X.shape}")
    n, f = X.shape
    if n < 2:
        raise ValueError(f"pca_fit needs at least 2 rows, got {n}")
    if d < 1:
        raise ValueError(f"target dimension must be >= 1, got {d}")

    mean = X.sum(axis=0) / n
    Xc = X - mean
    cov = (Xc.T @ Xc) / (n - 1.0)

    evals, evecs = np.linalg.eigh(cov)
    evals = evals[::-1]
    components = evecs[:, ::-1].T.copy()

    n_components = min(d, f, n)
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


def pca_transform(model: PcaModel, X) -> np.ndarray:
    """Project X onto the fitted components: (X - mean) @ components.T."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"pca_transform expects {model.n_features} columns, got shape {X.shape}"
        )
    return (X - model.mean) @ model.components.T


def explained_variance_ratio(model: PcaModel) -> np.ndarray:
    """Per-component share of the total variance; zeros for constant data."""
    if model.total_variance <= 0.0:
        return np.zeros_like(model.eigenvalues)
    return np.minimum(model.eigenvalues / model.total_variance, 1.0)

