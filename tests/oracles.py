"""Independent dense reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way and shares no
code with the package: dense adjacency matrices, an explicit cyclic Jacobi
eigensolver, SVD-based PCA, contingency-table entropies computed with
plain loops, and a dataset reader and writer that handle one line at a time.
"""

import math
from pathlib import Path

import numpy as np


def dense_prepared_adjacency(n, pairs):
    """0/1 adjacency with both edge directions and the diagonal set."""
    A = np.zeros((n, n), dtype=np.float64)
    for u, v in pairs:
        A[u, v] = 1.0
        A[v, u] = 1.0
    A[np.arange(n), np.arange(n)] = 1.0
    return A


def dense_mean_operator(A):
    return A / A.sum(axis=1, keepdims=True)


def dense_symnorm_operator(A):
    d = A.sum(axis=1)
    return A / np.sqrt(np.outer(d, d))


def dense_operator(A, aggregator):
    if aggregator == "mean":
        return dense_mean_operator(A)
    if aggregator == "symnorm":
        return dense_symnorm_operator(A)
    raise ValueError(aggregator)


def jacobi_eigendecomposition(S, max_sweeps=200):
    """Cyclic Jacobi rotations on a symmetric matrix.

    Returns (eigenvalues descending, eigenvectors as rows), with the same
    sign convention as the package: largest-|entry| positive.
    """
    A = np.array(S, dtype=np.float64)
    f = A.shape[0]
    V = np.eye(f)
    scale = max(np.abs(A).max(), 1e-300)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(f - 1):
            for q in range(p + 1, f):
                off = max(off, abs(A[p, q]))
        if off <= 1e-14 * scale:
            break
        for p in range(f - 1):
            for q in range(p + 1, f):
                if abs(A[p, q]) <= 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * A[p, q])
                if theta == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p, col_q = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                row_p, row_q = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                vec_p, vec_q = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * vec_p - s * vec_q
                V[:, q] = s * vec_p + c * vec_q
    evals = np.diag(A).copy()
    order = np.argsort(-evals, kind="stable")
    vectors = V[:, order].T.copy()
    pivot = np.argmax(np.abs(vectors), axis=1)
    flip = vectors[np.arange(f), pivot] < 0
    vectors[flip] *= -1
    return evals[order], vectors


def pca_svd_reference(X, d):
    """PCA through an SVD of the centered matrix (a different algorithm from
    the package's covariance eigensolve), same ordering and sign rule."""
    X = np.asarray(X, dtype=np.float64)
    n, f = X.shape
    mean = X.mean(axis=0)
    centered = X - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=True)
    eigenvalues = np.zeros(f)
    m = min(n, f)
    eigenvalues[:m] = (s[:m] ** 2) / (n - 1)
    keep = min(d, f, n)
    components = vt[:keep].copy()
    pivot = np.argmax(np.abs(components), axis=1)
    flip = components[np.arange(keep), pivot] < 0
    components[flip] *= -1
    return mean, components, eigenvalues[:keep]


def embed_reference(n, pairs, X, method, aggregator, k, d):
    """Straight-line dense re-implementation of the three hop recurrences.

    Returns the list of states after hops 1..k.
    """
    P = dense_operator(dense_prepared_adjacency(n, pairs), aggregator)
    h = np.asarray(X, dtype=np.float64)
    states = []
    for _ in range(k):
        if method == "pcapass":
            combined = np.hstack([P @ h, h])
            mean, components, _ = pca_svd_reference(combined, d)
            h = (combined - mean) @ components.T
        elif method == "skip_connections":
            h = (P @ h + h) / 2.0
        elif method == "message_passing":
            h = P @ h
        else:
            raise ValueError(method)
        states.append(h)
    return states


def v_measure_reference(truth, pred):
    """Homogeneity/completeness from the contingency table, literal loops."""
    truth = list(truth)
    pred = list(pred)
    n = len(truth)
    classes = sorted(set(truth))
    clusters = sorted(set(pred))
    table = {(c, k): 0 for c in classes for k in clusters}
    for c, k in zip(truth, pred):
        table[(c, k)] += 1

    def entropy(counts):
        total = sum(counts)
        if total == 0:
            return 0.0
        return -sum((x / total) * math.log(x / total) for x in counts if x > 0)

    h_c = entropy([sum(table[(c, k)] for k in clusters) for c in classes])
    h_k = entropy([sum(table[(c, k)] for c in classes) for k in clusters])
    h_c_given_k = 0.0
    for k in clusters:
        column = [table[(c, k)] for c in classes]
        h_c_given_k += (sum(column) / n) * entropy(column)
    h_k_given_c = 0.0
    for c in classes:
        row = [table[(c, k)] for k in clusters]
        h_k_given_c += (sum(row) / n) * entropy(row)

    homogeneity = 1.0 if h_c == 0.0 else 1.0 - h_c_given_k / h_c
    completeness = 1.0 if h_k == 0.0 else 1.0 - h_k_given_c / h_k
    if homogeneity + completeness == 0.0:
        return 0.0
    return 2.0 * homogeneity * completeness / (homogeneity + completeness)


def best_depth2_tree_accuracy(X, y, thresholds_per_feature=64):
    """Exhaustive depth-2 tree search over a quantile threshold grid.

    Lower-bounds what any depth-2 tree can reach on (X, y); used to show a
    fixture is depth-2 separable.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n, f = X.shape
    grids = []
    for j in range(f):
        qs = np.linspace(0.0, 1.0, thresholds_per_feature + 2)[1:-1]
        grids.append(np.unique(np.quantile(X[:, j], qs)))

    def best_leaf_pair(mask):
        """Best single split of the masked points, counting majority leaves."""
        if not mask.any():
            return 0
        sub_y = y[mask]
        best = np.bincount(sub_y).max()  # no split: one majority leaf
        for j in range(f):
            col = X[mask, j]
            for t in grids[j]:
                left = col < t
                score = 0
                if left.any():
                    score += np.bincount(sub_y[left]).max()
                if (~left).any():
                    score += np.bincount(sub_y[~left]).max()
                best = max(best, score)
        return best

    best_total = np.bincount(y).max()
    for j in range(f):
        for t in grids[j]:
            left = X[:, j] < t
            best_total = max(best_total, best_leaf_pair(left) + best_leaf_pair(~left))
    return best_total / n


def nearest_centroid_accuracy(X_tr, y_tr, X, y):
    classes = np.unique(y_tr)
    centroids = np.stack([X_tr[y_tr == c].mean(axis=0) for c in classes])
    d = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    pred = classes[np.argmin(d, axis=1)]
    return float((pred == y).mean())


def save_dataset_reference(ds, directory):
    """The four dataset files, one f-string per line: edges u < v in row
    order, features with `.9g`, then the labels and split names by node id."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    g = ds.graph
    edge_lines = [
        f"{u}\t{v}"
        for u in range(g.n_nodes)
        for v in g.col_idx[g.row_ptr[u] : g.row_ptr[u + 1]]
        if u < v
    ]
    feat_lines = [",".join(f"{x:.9g}" for x in row) for row in ds.X]
    label_lines = ["node_id,label"] + [f"{i},{c}" for i, c in enumerate(ds.y)]
    names = {0: "train", 1: "valid", 2: "test"}
    split_lines = ["node_id,split"] + [f"{i},{names[s]}" for i, s in enumerate(ds.split)]
    for name, lines in [
        ("edges.tsv", edge_lines),
        ("features.csv", feat_lines),
        ("labels.csv", label_lines),
        ("splits.csv", split_lines),
    ]:
        (directory / name).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def edge_file_reference(path, n_nodes):
    """The (u, v) pairs of an edges.tsv file, read one line at a time with
    `int()`, or the message naming the first bad line."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("#") or not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                return f"{path}: line {lineno}: expected 'src<TAB>dst'"
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                return f"{path}: line {lineno}: non-integer node id in {parts!r}"
            if not (0 <= u < n_nodes and 0 <= v < n_nodes):
                return f"{path}: line {lineno}: node id out of range for n_nodes={n_nodes}"
            pairs.append([u, v])
    return pairs


def embeddings_csv_text_reference(H):
    """`embeddings.csv` text, one f-string join per row."""
    lines = [",".join(f"{x:.9g}" for x in row) for row in np.asarray(H)]
    return "\n".join(lines) + "\n"


def sweep_csv_text_reference(results):
    """`sweep.csv` text, one f-string per method and hop."""
    lines = ["method,k,v_measure,normalized_v_measure"]
    for res in results:
        for i in range(res.v_measures.size):
            lines.append(
                f"{res.method.value},{i + 1},"
                f"{res.v_measures[i]:.9g},{res.normalized[i]:.9g}"
            )
    return "\n".join(lines) + "\n"
