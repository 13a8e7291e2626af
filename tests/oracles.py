"""Independent dense reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way and shares no
code with the package: dense adjacency matrices, an explicit cyclic Jacobi
eigensolver, SVD-based PCA, contingency-table entropies computed with
plain loops, a dataset reader and writer that handle one line at a time, a
boosting loop that grows each tree depth-first, one node at a time, the
hop loop with each chunk of a pcapass hop's two halves centered into a
copy, and as it was when the whole concatenation was built, aggregation
through one whole operator, as it was before large graphs were cut into
row blocks, and the SBM generator drawing each block pair's candidate pairs
in one piece.
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


def neighbors(g, v):
    """Neighbor ids of node `v`: row `v` of a CSR graph."""
    return g.col_idx[g.row_ptr[v] : g.row_ptr[v + 1]]


def graphs_equal(a, b):
    return (
        a.n_nodes == b.n_nodes
        and np.array_equal(a.row_ptr, b.row_ptr)
        and np.array_equal(a.col_idx, b.col_idx)
    )


def datasets_equal(a, b):
    return (
        graphs_equal(a.graph, b.graph)
        and np.array_equal(a.X, b.X)
        and np.array_equal(a.y, b.y)
        and np.array_equal(a.split, b.split)
    )


def generate_sbm_reference(p):
    """`generate_sbm`'s edge pairs in draw order, features, labels and splits,
    with each block pair's candidates listed whole: `np.triu_indices` inside
    a block, every pair row-major across two, then one uniform value each."""
    rng = np.random.default_rng(p.seed)
    n, n_cls = p.n_nodes, p.n_classes
    sizes = np.full(n_cls, n // n_cls, dtype=np.int64)
    sizes[: n % n_cls] += 1
    y = rng.permutation(np.repeat(np.arange(n_cls, dtype=np.int64), sizes))
    members = [np.flatnonzero(y == c) for c in range(n_cls)]

    srcs, dsts = [], []
    for a in range(n_cls):
        for b in range(a, n_cls):
            prob = p.p_in if a == b else p.p_out
            if a == b:
                ia = members[a]
                iu, ju = np.triu_indices(ia.size, k=1)
                hit = rng.random(iu.size) < prob
                srcs.append(ia[iu[hit]])
                dsts.append(ia[ju[hit]])
            else:
                ia, ib = members[a], members[b]
                hit = rng.random(ia.size * ib.size) < prob
                gi, gj = np.divmod(np.flatnonzero(hit), ib.size)
                srcs.append(ia[gi])
                dsts.append(ib[gj])
    pairs = np.stack([np.concatenate(srcs), np.concatenate(dsts)], axis=1)

    centroids = np.zeros((n_cls, p.n_features))
    if p.feature_signal > 0.0:
        for c in range(n_cls):
            centroids[c, c] = p.feature_signal / np.sqrt(2.0)
    X = (centroids[y] + rng.standard_normal((n, p.n_features))).astype(np.float32)

    split = np.empty(n, dtype=np.int8)
    for c in range(n_cls):
        order = rng.permutation(members[c])
        n_tr = round(p.train_frac * order.size)
        n_va = min(round(p.valid_frac * order.size), order.size - n_tr)
        split[order[:n_tr]] = 0
        split[order[n_tr : n_tr + n_va]] = 1
        split[order[n_tr + n_va :]] = 2
    return pairs, X, y, split


def inertia(X, assign):
    """Sum of squared distances from each row of `X` to the centroid of the
    rows that share its cluster id."""
    X = np.asarray(X, dtype=np.float64)
    total = 0.0
    for c in np.unique(assign):
        members = X[assign == c]
        total += float(((members - members.mean(axis=0)) ** 2).sum())
    return total


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
    `int()`, or the message naming the first bad line: every line is parsed
    before any id is checked against `n_nodes`."""
    pairs, linenos = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("#") or not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                return f"{path}: line {lineno}: {len(parts)} values, expected 2"
            ids = []
            for part in parts:
                try:
                    ids.append(int(part))
                except ValueError as exc:
                    return f"{path}: line {lineno}: {exc}"
                if not -(2**63) <= ids[-1] < 2**63:
                    return f"{path}: line {lineno}: {ids[-1]} is outside the int64 range"
            pairs.append(ids)
            linenos.append(lineno)
    for (u, v), lineno in zip(pairs, linenos):
        if not (0 <= u < n_nodes and 0 <= v < n_nodes):
            return f"{path}: line {lineno}: edge ({u}, {v}) out of range for n_nodes={n_nodes}"
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


def hpo_csv_text_reference(records):
    """`hpo.csv` text, one f-string per run."""
    lines = [
        "run,k,d,aggregator,learning_rate,max_depth,reg_lambda,subsample,"
        "n_rounds,patience,gbdt_seed,valid_ce,test_accuracy"
    ]
    for i, rec in enumerate(records):
        p = rec.params
        lines.append(
            f"{i},{p['k']},{p['d']},{p['aggregator']},{p['learning_rate']:.9g},"
            f"{p['max_depth']},{p['reg_lambda']:.9g},{p['subsample']:.9g},"
            f"{p['n_rounds']},{p['patience']},{p['seed']},"
            f"{rec.valid_ce:.9g},{rec.test_accuracy:.9g}"
        )
    return "\n".join(lines) + "\n"


def _gbdt_bins_reference(X, n_bins):
    """Quantile bin edges per feature and each value's `side="right"` bin."""
    edges = []
    for j in range(X.shape[1]):
        unique = np.unique(X[:, j])
        if unique.size <= 1:
            edges.append(np.empty(0, dtype=np.float64))
        elif unique.size <= n_bins:
            edges.append((unique[:-1] + unique[1:]) / 2.0)
        else:
            probs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
            edges.append(np.unique(np.quantile(X[:, j], probs)))
    binned = np.empty(X.shape, dtype=np.int32)
    for j in range(X.shape[1]):
        binned[:, j] = np.searchsorted(edges[j], X[:, j], side="right")
    return binned, edges


class TreeGrowerReference:
    """Grows one tree on pre-binned features, depth-first, one histogram and
    one split scan per node.

    The split search scans features in index order and bin boundaries in
    ascending order with a strict improvement test, so the chosen split is
    the deterministic maximum with ties broken toward the lowest feature
    index, then the lowest bin. Nodes are numbered in preorder.
    """

    def __init__(self, binned, edges, grad, hess, params):
        self.binned = binned
        self.edges = edges
        self.grad = grad
        self.hess = hess
        self.p = params
        self.stride = max((e.size for e in edges), default=0) + 1
        self.offsets = np.arange(len(edges), dtype=np.int32) * self.stride
        n_edges = np.array([e.size for e in edges])
        boundary = np.arange(self.stride - 1)[None, :]
        self.valid = boundary < n_edges[:, None]  # (f, stride-1)
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []

    def grow(self, rows):
        """(feature, threshold, left, right, value) arrays of the tree."""
        self._node(rows, depth=0)
        return (
            np.array(self.feature, dtype=np.int32),
            np.array(self.threshold, dtype=np.float64),
            np.array(self.left, dtype=np.int32),
            np.array(self.right, dtype=np.int32),
            np.array(self.value, dtype=np.float64),
        )

    def _emit(self, feature, threshold, value):
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.feature) - 1

    def _node(self, rows, depth):
        g_tot = float(self.grad[rows].sum())
        h_tot = float(self.hess[rows].sum())
        if depth >= self.p.max_depth or rows.size < 2:
            return self._emit(-1, 0.0, self._leaf_weight(g_tot, h_tot))
        split = self._best_split(rows, g_tot, h_tot)
        if split is None:
            return self._emit(-1, 0.0, self._leaf_weight(g_tot, h_tot))
        feat, boundary_idx = split
        threshold = float(self.edges[feat][boundary_idx])
        node = self._emit(feat, threshold, 0.0)
        go_left = self.binned[rows, feat] <= boundary_idx
        self.left[node] = self._node(rows[go_left], depth + 1)
        self.right[node] = self._node(rows[~go_left], depth + 1)
        return node

    def _leaf_weight(self, g_tot, h_tot):
        return -g_tot / (h_tot + self.p.reg_lambda) * self.p.learning_rate

    def _best_split(self, rows, g_tot, h_tot):
        if self.stride <= 1:
            return None  # every feature is constant
        lam = self.p.reg_lambda
        sub = self.binned[rows]
        flat = (sub + self.offsets).ravel()
        f = sub.shape[1]
        size = f * self.stride
        hist_g = np.bincount(flat, weights=np.repeat(self.grad[rows], f), minlength=size)
        hist_h = np.bincount(flat, weights=np.repeat(self.hess[rows], f), minlength=size)
        cum_g = np.cumsum(hist_g.reshape(f, self.stride), axis=1)[:, :-1]
        cum_h = np.cumsum(hist_h.reshape(f, self.stride), axis=1)[:, :-1]
        g_right = g_tot - cum_g
        h_right = h_tot - cum_h
        parent = g_tot * g_tot / (h_tot + lam) if h_tot + lam > 0 else 0.0
        ok = (
            self.valid
            & (cum_h >= self.p.min_child_hessian)
            & (h_right >= self.p.min_child_hessian)
            & (cum_h + lam > 0)
            & (h_right + lam > 0)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = 0.5 * (
                cum_g**2 / (cum_h + lam) + g_right**2 / (h_right + lam) - parent
            )
        gains = np.where(ok, gains, -np.inf)
        best = int(np.argmax(gains))
        if not np.isfinite(gains.flat[best]) or gains.flat[best] <= 0.0:
            return None
        return best // (self.stride - 1), best % (self.stride - 1)


def tree_predict_reference(tree, X):
    """Leaf value of each row of X, walking x < threshold to the left."""
    feature, threshold, left, right, value = tree
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feat = feature[node]
        active = np.flatnonzero(feat >= 0)
        if active.size == 0:
            return value[node]
        cur = node[active]
        go_left = X[active, feat[active]] < threshold[cur]
        node[active] = np.where(go_left, left[cur], right[cur])


def gbdt_train_reference(X_tr, y_tr, X_val, y_val, params):
    """The boosting loop with one `TreeGrowerReference` per class and round,
    and both margins updated by walking every finished tree over the raw
    features. Returns (base_score, rounds, best_round, best_ce, prior_ce,
    history), with `rounds[r][c]` the `grow` tuple of a tree."""

    def softmax(margins):
        shifted = margins - margins.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)

    def cross_entropy(proba, truth):
        p_true = proba[np.arange(truth.shape[0]), truth]
        return float(-np.log(np.maximum(p_true, 1e-15)).mean())

    X_tr = np.ascontiguousarray(X_tr, dtype=np.float64)
    X_val = np.ascontiguousarray(X_val, dtype=np.float64)
    y_tr = np.asarray(y_tr, dtype=np.int64)
    y_val = np.asarray(y_val, dtype=np.int64)
    n_classes = int(max(y_tr.max(), y_val.max())) + 1
    n_tr = X_tr.shape[0]
    base = np.log(np.bincount(y_tr, minlength=n_classes) / n_tr)
    margins_tr = np.tile(base, (n_tr, 1))
    margins_val = np.tile(base, (X_val.shape[0], 1))
    binned, edges = _gbdt_bins_reference(X_tr, params.n_bins)
    rng = np.random.default_rng(params.seed)
    prior_ce = best_ce = cross_entropy(softmax(margins_val), y_val)
    best_round, stall = -1, 0
    rounds, history = [], []
    all_rows = np.arange(n_tr)
    for r in range(params.n_rounds):
        probs = softmax(margins_tr)
        grads = probs.copy()
        grads[all_rows, y_tr] -= 1.0
        hesses = probs * (1.0 - probs)
        if params.subsample < 1.0:
            m = max(1, int(params.subsample * n_tr))
            rows = np.sort(rng.choice(n_tr, size=m, replace=False))
        else:
            rows = all_rows
        trees = []
        for c in range(n_classes):
            grower = TreeGrowerReference(binned, edges, grads[:, c], hesses[:, c], params)
            tree = grower.grow(rows)
            trees.append(tree)
            margins_tr[:, c] += tree_predict_reference(tree, X_tr)
            margins_val[:, c] += tree_predict_reference(tree, X_val)
        rounds.append(trees)
        ce = cross_entropy(softmax(margins_val), y_val)
        history.append(ce)
        if ce < best_ce:
            best_ce, best_round, stall = ce, r, 0
        else:
            stall += 1
            if stall >= params.patience:
                break
    return base, rounds, best_round, best_ce, prior_ce, history


def operator_reference(g, aggregator):
    """The CSR operator as the hop loop once built it, with the row degrees
    and the weights in two nnz-length arrays."""
    from scipy import sparse

    deg = g.degree.astype(np.float64)
    row_deg = np.repeat(deg, g.degree)
    if aggregator == "mean":
        weights = 1.0 / row_deg
    elif aggregator == "symnorm":
        weights = 1.0 / np.sqrt(row_deg * deg[g.col_idx])
    else:
        raise ValueError(aggregator)
    return sparse.csr_matrix(
        (weights, g.col_idx, g.row_ptr), shape=(g.n_nodes, g.n_nodes)
    )


def aggregate_reference(g, H, aggregator):
    """`aggregate` as it was before row blocks: one whole nnz-length scipy
    operator times `H`. The aggregator is its value string."""
    H = np.ascontiguousarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != g.n_nodes:
        raise ValueError(
            f"feature matrix must have {g.n_nodes} rows, got shape {H.shape}"
        )
    return operator_reference(g, aggregator) @ H


def _model_reference(mean, cov, n_components):
    """(mean, components, eigenvalues, total_variance) of the sample
    covariance `cov`: its top eigenpairs, floored and sign-fixed as
    `pca_fit` does."""
    evals, evecs = np.linalg.eigh(cov)
    evals = evals[::-1]
    components = evecs[:, ::-1].T.copy()

    evals = np.maximum(evals[:n_components], 0.0)
    if evals.size and evals[0] > 0.0:
        evals[evals < 1e-12 * evals[0]] = 0.0
    components = components[:n_components]
    pivot = np.argmax(np.abs(components), axis=1)
    flip = components[np.arange(n_components), pivot] < 0.0
    components[flip] *= -1.0
    return mean, components, evals, float(np.trace(cov))


def pca_fit_reference(X, d):
    """The fit of one whole matrix: the rows, in their given order, are
    centered into a copy and multiplied in one product. `pca_fit` has its
    bytes on up to one chunk of rows and differs by rounding beyond.
    Returns (mean, components, eigenvalues, total_variance)."""
    n, f = X.shape
    mean = X.sum(axis=0) / n
    Xc = X - mean
    cov = (Xc.T @ Xc) / (n - 1.0)
    return _model_reference(mean, cov, min(d, f, n))


def _centered_chunk_reference(left, right, mean, r0, chunk_rows):
    w = left.shape[1]
    return (left[r0 : r0 + chunk_rows] - mean[:w], right[r0 : r0 + chunk_rows] - mean[w:])


def pca_fit_halves_reference(left, right, d, chunk_rows):
    """`pca_fit(left, d, right=right)` written out in full: the column sums
    are taken half by half, and the four blocks of the Gram matrix are
    summed over copies of each chunk of `chunk_rows` rows of the two
    halves, centered. An n x 0 `right` makes it `pca_fit(left, d)`."""
    n, w = left.shape
    mean = np.concatenate((left.sum(axis=0), right.sum(axis=0))) / n
    gram = np.zeros((mean.size, mean.size))
    for r0 in range(0, n, chunk_rows):
        a, c = _centered_chunk_reference(left, right, mean, r0, chunk_rows)
        gram[:w, :w] += a.T @ a
        gram[:w, w:] += a.T @ c
        gram[w:, w:] += c.T @ c
    gram[w:, :w] = gram[:w, w:].T
    return _model_reference(mean, gram / (n - 1.0), min(d, mean.size, n))


def pca_transform_halves_reference(left, right, mean, components, chunk_rows):
    """`pca_transform(model, left, right=right)` written out in full: each
    chunk of `chunk_rows` rows of each half is copied and centered, and the
    chunk's projection is the sum of its halves' projections. An n x 0
    `right` makes it `pca_transform(model, left)`."""
    w = left.shape[1]
    left_components = components[:, :w].T.copy()
    right_components = components[:, w:].T.copy()
    out = np.empty((len(left), len(components)))
    for r0 in range(0, len(left), chunk_rows):
        a, c = _centered_chunk_reference(left, right, mean, r0, chunk_rows)
        out[r0 : r0 + chunk_rows] = a @ left_components + c @ right_components
    return out


def hop_states_reference(g, X, method, aggregator, k, d, chunk_rows):
    """The hop loop with each pcapass hop fitted from the Gram blocks of its
    two halves and projected one chunk of `chunk_rows` rows at a time, each
    chunk of each half centered into a copy. Returns (states after hops
    1..k, pcapass models)."""
    h = np.ascontiguousarray(X, dtype=np.float64)
    states, models = [], []
    for _ in range(k):
        if method == "pcapass":
            agg = operator_reference(g, aggregator) @ h
            model = pca_fit_halves_reference(agg, h, d, chunk_rows)
            h = pca_transform_halves_reference(agg, h, *model[:2], chunk_rows)
            models.append(model)
        elif method == "skip_connections":
            h = (operator_reference(g, aggregator) @ h + h) / 2.0
        else:
            h = operator_reference(g, aggregator) @ h
        states.append(h)
    return states, models


def hop_states_concatenating_reference(g, X, method, aggregator, k, d):
    """The hop loop as it once was, with each pcapass hop's concatenation
    built whole, fitted and projected in one product. Returns (states after
    hops 1..k, pcapass models)."""
    h = np.ascontiguousarray(X, dtype=np.float64)
    states, models = [], []
    for _ in range(k):
        if method == "pcapass":
            agg = operator_reference(g, aggregator) @ h
            combined = np.hstack((agg, h))
            model = pca_fit_reference(combined, d)
            mean, components = model[:2]
            h = (combined - mean) @ components.T
            models.append(model)
        elif method == "skip_connections":
            h = (operator_reference(g, aggregator) @ h + h) / 2.0
        else:
            h = operator_reference(g, aggregator) @ h
        states.append(h)
    return states, models
