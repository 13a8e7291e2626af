"""Evaluation metrics and the clustering used by the over-smoothing study."""

from __future__ import annotations

import numpy as np

_PROB_FLOOR = 1e-15


def standardize(X) -> np.ndarray:
    """Center each column and scale to unit sample standard deviation.

    Zero-variance columns map to all-zero rather than dividing by zero.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError(f"standardize needs a 2-D matrix with >= 2 rows, got {X.shape}")
    mean = X.mean(axis=0)
    std = X.std(axis=0, ddof=1)
    out = X - mean
    nonzero = std > 0.0
    out[:, nonzero] /= std[nonzero]
    out[:, ~nonzero] = 0.0
    return out


def accuracy(pred, truth) -> float:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    return float(np.mean(pred == truth))


def cross_entropy(proba, truth) -> float:
    """Mean negative log-probability of the true class, clamped at 1e-15."""
    proba = np.asarray(proba, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int64)
    if proba.ndim != 2 or proba.shape[0] != truth.shape[0]:
        raise ValueError(
            f"shape mismatch: proba {proba.shape} vs {truth.shape[0]} labels"
        )
    p_true = proba[np.arange(truth.shape[0]), truth]
    return float(-np.log(np.maximum(p_true, _PROB_FLOOR)).mean())


def pearson_correlation(xs, ys) -> float:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise ValueError("pearson_correlation needs two equal-length vectors (>= 2)")
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    sx = np.sqrt((xc * xc).sum())
    sy = np.sqrt((yc * yc).sum())
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined: zero variance input")
    return float((xc * yc).sum() / (sx * sy))


def _entropy_from_counts(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def _conditional_entropy(contingency: np.ndarray, axis: int) -> float:
    """H(C|K) at axis 0, H(K|C) at 1: -sum (n_ck / n) log(n_ck / total of its line on `axis`)."""
    mask = contingency > 0
    ratios = contingency / contingency.sum(axis=axis, keepdims=True)
    return float(-(contingency[mask] / contingency.sum() * np.log(ratios[mask])).sum())


def v_measure(truth, pred) -> float:
    """Harmonic mean of clustering homogeneity and completeness.

    Both are defined from conditional entropies of the label/cluster
    contingency table; a single-cluster assignment of multi-class data
    scores 0, a perfect clustering (up to relabeling) scores 1.
    """
    truth = np.asarray(truth)
    pred = np.asarray(pred)
    if truth.shape != pred.shape or truth.ndim != 1:
        raise ValueError(f"length mismatch: {truth.shape} vs {pred.shape}")
    if truth.size == 0:
        raise ValueError("v_measure needs at least one sample")
    _, t_codes = np.unique(truth, return_inverse=True)
    _, p_codes = np.unique(pred, return_inverse=True)
    n_c = t_codes.max() + 1
    n_k = p_codes.max() + 1
    contingency = np.zeros((n_c, n_k), dtype=np.float64)
    np.add.at(contingency, (t_codes, p_codes), 1.0)

    h_c = _entropy_from_counts(contingency.sum(axis=1))
    h_k = _entropy_from_counts(contingency.sum(axis=0))
    h_c_given_k = _conditional_entropy(contingency, 0)
    h_k_given_c = _conditional_entropy(contingency, 1)

    homogeneity = 1.0 if h_c == 0.0 else 1.0 - h_c_given_k / h_c
    completeness = 1.0 if h_k == 0.0 else 1.0 - h_k_given_c / h_k
    if homogeneity + completeness == 0.0:
        return 0.0
    return 2.0 * homogeneity * completeness / (homogeneity + completeness)


def _plus_plus_centers(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    centers[0] = X[rng.integers(n)]
    closest = ((X - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # all remaining mass collapsed onto existing centers
            idx = rng.integers(n)
        else:
            idx = int(np.searchsorted(np.cumsum(closest), rng.random() * total))
            idx = min(idx, n - 1)
        centers[i] = X[idx]
        closest = np.minimum(closest, ((X - centers[i]) ** 2).sum(axis=1))
    return centers


def _assign(X: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # squared distances via expansion; argmin breaks ties at the lowest id
    sq = (
        (X * X).sum(axis=1)[:, None]
        - 2.0 * X @ centers.T
        + (centers * centers).sum(axis=1)[None, :]
    )
    assign = np.argmin(sq, axis=1)
    d = np.maximum(sq[np.arange(X.shape[0]), assign], 0.0)
    return assign, d


def _lloyd(X, centers, max_iter):
    k = centers.shape[0]
    assign, dist = _assign(X, centers)
    for _ in range(max_iter):
        counts = np.bincount(assign, minlength=k)
        for c in range(k):
            if counts[c] > 0:
                centers[c] = X[assign == c].mean(axis=0)
        empties = np.flatnonzero(counts == 0)
        if empties.size:
            # revive each empty cluster at the point currently farthest from
            # its own centroid, never reusing a point
            remaining = dist.copy()
            for c in empties:
                far = int(np.argmax(remaining))
                centers[c] = X[far]
                remaining[far] = -np.inf
        new_assign, dist = _assign(X, centers)
        if np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign
    return assign, float(dist.sum())


def kmeans(X, k: int, seed: int = 0, n_restarts: int = 1, max_iter: int = 300):
    """Lloyd's algorithm with k-means++ seeding.

    Converges when assignments stabilize (or at max_iter). With
    n_restarts > 1 the run with the lowest final inertia wins.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"kmeans expects a 2-D matrix, got shape {X.shape}")
    n = X.shape[0]
    if k < 1:
        raise ValueError(f"cluster count must be >= 1, got {k}")
    if k > n:
        raise ValueError(f"cluster count {k} exceeds {n} points")
    if n_restarts < 1:
        raise ValueError(f"n_restarts must be >= 1, got {n_restarts}")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_restarts):
        centers = _plus_plus_centers(X, k, rng)
        assign, inertia = _lloyd(X, centers, max_iter)
        if best is None or inertia < best[1]:
            best = (assign, inertia)
    return best[0]
