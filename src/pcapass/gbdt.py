"""Second-order gradient-boosted decision trees for multiclass classification.

One regression tree per class per round, fit to softmax gradients and
hessians over histogram-quantized features. Validation cross-entropy drives
early stopping; prediction uses only the rounds up to the best one. Split
thresholds are stored as real bin-boundary values, so prediction needs no
bin table.

Training grows each tree one depth at a time: the split search of all the
nodes of a depth shares its histogram and gain passes. Bins exist only for
that search. The grower returns the leaf of each row it grew on, and the
validation rows and any rows outside the round's sample are routed by the
trees' thresholds, as in prediction. The model is the one a node-by-node,
depth-first grower would build, byte for byte.
"""

from __future__ import annotations

import math
import struct
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .metrics import cross_entropy
from .schema import setting

MODEL_MAGIC = b"PGBM"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class GbdtParams:
    """Boosting settings. Each field's help text is its `help` metadata; the
    CLI's config keys of the same names are derived from these fields."""

    learning_rate: float = setting(0.1, "boosting shrinkage per round")
    max_depth: int = setting(6, "maximum tree depth")
    n_rounds: int = setting(500, "maximum boosting rounds")
    reg_lambda: float = setting(1.0, "L2 leaf weight regularizer")
    min_child_hessian: float = setting(1.0, "minimum hessian sum per child to allow a split")
    patience: int = setting(10, "rounds without validation improvement before stopping")
    n_bins: int = setting(256, "histogram bins per feature")
    subsample: float = setting(1.0, "row fraction sampled per boosting round")
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.n_rounds < 0:
            raise ValueError(f"n_rounds must be >= 0, got {self.n_rounds}")
        if self.reg_lambda < 0:
            raise ValueError(f"reg_lambda must be >= 0, got {self.reg_lambda}")
        if self.min_child_hessian < 0:
            raise ValueError(
                f"min_child_hessian must be >= 0, got {self.min_child_hessian}"
            )
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.n_bins < 2:
            raise ValueError(f"n_bins must be >= 2, got {self.n_bins}")
        if not (0.0 < self.subsample <= 1.0):
            raise ValueError(f"subsample must be in (0, 1], got {self.subsample}")


@dataclass(eq=False)
class Tree:
    """Flat binary tree. feature == -1 marks a leaf; internal nodes route
    x < threshold to `left`, otherwise to `right`."""

    feature: np.ndarray  # (nodes,) int32
    threshold: np.ndarray  # (nodes,) float64
    left: np.ndarray  # (nodes,) int32
    right: np.ndarray  # (nodes,) int32
    value: np.ndarray  # (nodes,) float64, leaf weight (learning rate applied)

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[_walk(self, X)]

    def split_thresholds(self) -> list[tuple[int, float]]:
        """(feature, threshold) of every internal node, preorder."""
        internal = self.feature >= 0
        return list(
            zip(self.feature[internal].tolist(), self.threshold[internal].tolist())
        )


@dataclass(eq=False)
class GbdtModel:
    n_classes: int
    n_features: int
    params: GbdtParams
    base_score: np.ndarray  # (C,) log train-class frequencies
    rounds: list[list[Tree]]  # rounds[r][c]
    best_round: int  # -1: the class-prior model was never beaten
    best_valid_ce: float
    prior_valid_ce: float
    valid_ce_history: list[float] = field(default_factory=list)


def _quantile_edges(col: np.ndarray, n_bins: int) -> np.ndarray:
    unique = np.unique(col)
    if unique.size <= 1:
        return np.empty(0, dtype=np.float64)
    if unique.size <= n_bins:
        return (unique[:-1] + unique[1:]) / 2.0
    probs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    return np.unique(np.quantile(col, probs))


@dataclass(eq=False)
class _Bins:
    """The histogram layout of the training rows, shared by the split search
    of every tree.

    A value's bin is the number of its feature's edges at or below it. Cell
    `j * stride + b` of a node's histogram sums the node's rows whose
    feature j falls in bin b. A split after bin b sends the rows with
    bin <= b left, which holds exactly when x < edges[j][b]: the tree keeps
    edges[j][b] as the split's threshold and routes raw rows by it.
    """

    edges: list[np.ndarray]
    stride: int  # cells per feature: the most edges of any feature, plus one
    keys: np.ndarray  # (n, f) intp, each row's cells: j * stride + its bin
    invalid: np.ndarray  # (f, stride) bool, cells after which no split exists

    @classmethod
    def fit(cls, X: np.ndarray, n_bins: int) -> _Bins:
        edges = [_quantile_edges(X[:, j], n_bins) for j in range(X.shape[1])]
        n_edges = np.array([e.size for e in edges], dtype=np.intp)
        stride = int(n_edges.max(initial=0)) + 1
        keys = np.empty(X.shape, dtype=np.intp)
        for j, e in enumerate(edges):
            keys[:, j] = np.searchsorted(e, X[:, j], side="right") + j * stride
        invalid = np.arange(stride) >= n_edges[:, None]
        return cls(edges, stride, keys, invalid)


# Histogram cells (nodes x features x bins) per split-search batch: enough
# nodes to share each numpy call, few enough to stay in cache.
_BATCH_CELLS = 1 << 17


def _grow(bins: _Bins, grad, hess, rows: np.ndarray, p: GbdtParams):
    """Grow one tree on the training rows `rows` (ascending), one depth at a
    time.

    Returns the tree and `leaf`, where leaf[i] is the leaf of row i for
    every i in `rows`.

    Each node keeps its rows in ascending order, so every histogram cell
    adds the same values in the same order as a node-by-node grower would,
    and the node totals are the same `.sum()`s. Nodes are numbered
    breadth-first while growing and in preorder in the returned tree.
    """
    feature: list[int] = []
    threshold: list[float] = []
    value: list[float] = []
    first_child: list[int] = []  # the right child follows the left one
    leaf = np.zeros(bins.keys.shape[0], dtype=np.intp)
    level = [rows]  # the rows of each node at this depth
    for depth in range(p.max_depth + 1):
        g_tot = np.array([grad[r].sum() for r in level])
        h_tot = np.array([hess[r].sum() for r in level])
        # A node under 2m (m = min_child_hessian) has no split: a left side
        # of at least m leaves at most h_tot - m on the right, which is
        # exact (Sterbenz) and below m for h_tot in [m/2, 2m), and negative
        # below m/2.
        cand = [
            i
            for i, r in enumerate(level)
            if depth < p.max_depth and r.size >= 2 and h_tot[i] >= 2.0 * p.min_child_hessian
        ]
        nodes = [level[i] for i in cand]
        splits = dict(zip(cand, _best_splits(bins, grad, hess, nodes, g_tot[cand], h_tot[cand], p)))
        children: list[np.ndarray] = []
        next_id = len(feature) + len(level)
        for i, r in enumerate(level):
            split = splits.get(i)
            if split is None:
                # den is 0 only for a child with no hessian, which a split
                # can leave when reg_lambda and min_child_hessian are both 0
                den = float(h_tot[i]) + p.reg_lambda
                feature.append(-1)
                threshold.append(0.0)
                value.append(-float(g_tot[i]) / den * p.learning_rate if den > 0 else 0.0)
                first_child.append(-1)
                leaf[r] = len(feature) - 1
                continue
            j, b = split
            feature.append(j)
            threshold.append(float(bins.edges[j][b]))
            value.append(0.0)
            first_child.append(next_id + len(children))
            go_left = bins.keys[r, j] <= j * bins.stride + b
            children += [r[go_left], r[~go_left]]
        if not children:
            break
        level = children

    order: list[int] = []
    stack = [0]
    while stack:
        i = stack.pop()
        order.append(i)
        if feature[i] >= 0:
            stack += (first_child[i] + 1, first_child[i])
    pre = np.empty(len(order), dtype=np.intp)
    pre[order] = np.arange(len(order))
    kid = np.array(first_child)[order]
    internal = kid >= 0
    tree = Tree(
        feature=np.array(feature, dtype=np.int32)[order],
        threshold=np.array(threshold, dtype=np.float64)[order],
        left=np.where(internal, pre[kid], -1).astype(np.int32),
        right=np.where(internal, pre[kid + 1], -1).astype(np.int32),
        value=np.array(value, dtype=np.float64)[order],
    )
    return tree, pre[leaf]


def _best_splits(bins: _Bins, grad, hess, nodes, g_tot, h_tot, p: GbdtParams):
    """The best (feature, bin) split of each node in `nodes`, or None.

    Features are scanned in index order and boundaries in ascending order,
    and the first maximum wins. A split needs a finite gain above 0 and at
    least `min_child_hessian` on each side.
    """
    f, stride = bins.keys.shape[1], bins.stride
    size = f * stride
    per = max(1, _BATCH_CELLS // size)
    lam, min_h = p.reg_lambda, p.min_child_hessian
    found = []
    for s in range(0, len(nodes), per):
        group = nodes[s : s + per]
        nb = len(group)
        rows = np.concatenate(group)
        keys = bins.keys[rows]
        keys += np.repeat(np.arange(nb) * size, [r.size for r in group])[:, None]
        flat = keys.ravel()
        shape = (nb, f, stride)
        hist_g = np.bincount(flat, np.repeat(grad[rows], f), nb * size).reshape(shape)
        hist_h = np.bincount(flat, np.repeat(hess[rows], f), nb * size).reshape(shape)
        cum_g = np.cumsum(hist_g, axis=2, out=hist_g)
        cum_h = np.cumsum(hist_h, axis=2, out=hist_h)
        gt = g_tot[s : s + nb, None, None]
        ht = h_tot[s : s + nb, None, None]
        g_right = gt - cum_g
        h_right = ht - cum_h
        bad = bins.invalid | (cum_h < min_h) | (h_right < min_h)
        if lam == 0 and min_h == 0:
            # Otherwise the tests above keep both denominators positive,
            # since cum_h >= 0.
            bad |= (cum_h <= 0) | (h_right <= 0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            parent = np.where(ht + lam > 0, gt * gt / (ht + lam), 0.0)
            gains = np.square(cum_g, out=cum_g)
            cum_h += lam
            gains /= cum_h
            np.square(g_right, out=g_right)
            h_right += lam
            g_right /= h_right
            gains += g_right
            gains -= parent
            gains *= 0.5
        np.copyto(gains, -np.inf, where=bad)
        gains = gains.reshape(nb, -1)
        best = gains.argmax(axis=1)
        top = gains[np.arange(nb), best]
        for k, ok in zip(best.tolist(), (np.isfinite(top) & (top > 0.0)).tolist()):
            found.append(divmod(k, stride) if ok else None)
    return found


def _walk(tree: Tree, X: np.ndarray) -> np.ndarray:
    """The leaf each row of X reaches, going left where its value in a split's
    feature is below the split's threshold."""
    node = np.zeros(X.shape[0], dtype=np.intp)
    while True:
        feat = tree.feature[node]
        active = np.flatnonzero(feat >= 0)
        if active.size == 0:
            return node
        cur = node[active]
        go_left = X[active, feat[active]] < tree.threshold[cur]
        node[active] = np.where(go_left, tree.left[cur], tree.right[cur])


def _softmax(margins: np.ndarray) -> np.ndarray:
    shifted = margins - margins.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _check_features(X: np.ndarray, name: str) -> np.ndarray:
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError(f"{name} contains non-finite values")
    return X


def gbdt_train(X_tr, y_tr, X_val, y_val, params: GbdtParams) -> GbdtModel:
    """Boost with early stopping on validation cross-entropy.

    Stops once the validation loss has failed to improve for
    `params.patience` consecutive rounds (or at n_rounds). The class-prior
    model (base score only) is the starting baseline that rounds must beat.
    """
    X_tr = _check_features(X_tr, "X_tr")
    X_val = _check_features(X_val, "X_val")
    y_tr = np.asarray(y_tr, dtype=np.int64)
    y_val = np.asarray(y_val, dtype=np.int64)
    if y_tr.shape[0] != X_tr.shape[0] or y_val.shape[0] != X_val.shape[0]:
        raise ValueError("label count does not match row count")
    if X_val.shape[1] != X_tr.shape[1]:
        raise ValueError("train and validation feature widths differ")
    if y_tr.min(initial=0) < 0 or y_val.min(initial=0) < 0:
        raise ValueError("labels must be non-negative class indices")
    n_classes = int(max(y_tr.max(), y_val.max())) + 1
    if n_classes < 2:
        raise ValueError("need at least 2 classes, got 1")
    class_counts = np.bincount(y_tr, minlength=n_classes)
    if (class_counts == 0).any():
        missing = int(np.flatnonzero(class_counts == 0)[0])
        raise ValueError(f"class {missing} missing from training labels")

    n_tr = X_tr.shape[0]
    base = np.log(class_counts / n_tr)
    margins_tr = np.tile(base, (n_tr, 1))
    margins_val = np.tile(base, (X_val.shape[0], 1))
    bins = _Bins.fit(X_tr, params.n_bins)
    rng = np.random.default_rng(params.seed)

    prior_ce = cross_entropy(_softmax(margins_val), y_val)
    best_ce = prior_ce
    best_round = -1
    stall = 0
    rounds: list[list[Tree]] = []
    history: list[float] = []
    all_rows = np.arange(n_tr)

    for r in range(params.n_rounds):
        probs = _softmax(margins_tr)
        grads = probs.copy()
        grads[all_rows, y_tr] -= 1.0
        hesses = probs * (1.0 - probs)
        if params.subsample < 1.0:
            m = max(1, int(params.subsample * n_tr))
            rows = np.sort(rng.choice(n_tr, size=m, replace=False))
            rest = np.setdiff1d(all_rows, rows, assume_unique=True)
        else:
            rows, rest = all_rows, all_rows[:0]
        X_rest = X_tr[rest]  # the rows outside this round's sample
        trees = []
        for c in range(n_classes):
            tree, leaf = _grow(bins, grads[:, c], hesses[:, c], rows, params)
            leaf[rest] = _walk(tree, X_rest)
            trees.append(tree)
            margins_tr[:, c] += tree.value[leaf]
            margins_val[:, c] += tree.value[_walk(tree, X_val)]
        rounds.append(trees)
        ce = cross_entropy(_softmax(margins_val), y_val)
        history.append(ce)
        if ce < best_ce:
            best_ce = ce
            best_round = r
            stall = 0
        else:
            stall += 1
            if stall >= params.patience:
                break

    return GbdtModel(
        n_classes=n_classes,
        n_features=X_tr.shape[1],
        params=params,
        base_score=base,
        rounds=rounds,
        best_round=best_round,
        best_valid_ce=best_ce,
        prior_valid_ce=prior_ce,
        valid_ce_history=history,
    )


def _margins(model: GbdtModel, X: np.ndarray, n_rounds=None) -> np.ndarray:
    X = _check_features(X, "X")
    if X.shape[1] != model.n_features:
        raise ValueError(
            f"model expects {model.n_features} features, got {X.shape[1]}"
        )
    upto = model.best_round + 1 if n_rounds is None else n_rounds
    out = np.tile(model.base_score, (X.shape[0], 1))
    for trees in model.rounds[:upto]:
        for c, tree in enumerate(trees):
            out[:, c] += tree.predict(X)
    return out


def gbdt_predict_proba(model: GbdtModel, X, n_rounds=None) -> np.ndarray:
    """Class probabilities; rows sum to 1. By default only the rounds up to
    the best validation round contribute; n_rounds overrides the cut."""
    return _softmax(_margins(model, X, n_rounds))


def gbdt_predict(model: GbdtModel, X) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index."""
    return np.argmax(gbdt_predict_proba(model, X), axis=1)


# A tree's bytes: its node count, then each of these columns in turn.
_TREE_COLUMNS = (
    ("feature", "<i4"),
    ("threshold", "<f8"),
    ("left", "<i4"),
    ("right", "<i4"),
    ("value", "<f8"),
)
_NODE_BYTES = sum(np.dtype(dtype).itemsize for _, dtype in _TREE_COLUMNS)


def _pack_tree(tree: Tree) -> bytes:
    columns = (getattr(tree, name).astype(dtype).tobytes() for name, dtype in _TREE_COLUMNS)
    return struct.pack("<I", tree.n_nodes) + b"".join(columns)


def _check_size(buf: bytes, pos: int, size: int, what: str) -> None:
    if len(buf) - pos < size:
        raise ValueError(
            f"truncated GBDT model: {what} needs {size} bytes at offset {pos}, "
            f"{len(buf) - pos} left"
        )


def _unpack_tree(buf: bytes, pos: int, n_features: int) -> tuple[Tree, int]:
    _check_size(buf, pos, 4, "tree node count")
    (n,) = struct.unpack_from("<I", buf, pos)
    pos += 4
    _check_size(buf, pos, _NODE_BYTES * n, f"tree of {n} nodes")
    columns = {}
    for name, dtype in _TREE_COLUMNS:
        columns[name] = np.frombuffer(buf, dtype, n, pos).copy()
        pos += columns[name].nbytes
    _check_tree(**columns, n_features=n_features)
    return Tree(**columns), pos


def _check_tree(feature, threshold, left, right, value, n_features: int) -> None:
    """Reject a decoded tree that `Tree.predict` could not walk, or that
    holds a non-finite number. A split must name a present feature, and a
    child must come after its parent: preorder emission guarantees it, and
    it keeps every walk finite."""
    n = feature.shape[0]
    if n == 0:
        raise ValueError("GBDT tree has no nodes")
    bad = np.flatnonzero((feature < -1) | (feature >= n_features))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"GBDT tree node {i} splits on feature {feature[i]}, "
            f"outside [0, {n_features})"
        )
    internal = np.flatnonzero(feature >= 0)
    for side, child in (("left", left), ("right", right)):
        kids = child[internal]
        bad = internal[(kids <= internal) | (kids >= n)]
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"GBDT tree node {i} has {side} child {child[i]}, "
                f"outside ({i}, {n})"
            )
    if not (np.isfinite(threshold).all() and np.isfinite(value).all()):
        raise ValueError("GBDT tree has a non-finite threshold or leaf value")


# The header after the magic: version, the GbdtParams fields in field order,
# then class/feature counts, best round, stored rounds and the two losses.
PARAMS_FORMAT = "dIIddIIdq"
_HEADER = struct.Struct("<I" + PARAMS_FORMAT + "IIiidd")


def gbdt_to_bytes(model: GbdtModel) -> bytes:
    head = MODEL_MAGIC + _HEADER.pack(
        FORMAT_VERSION,
        *astuple(model.params),
        model.n_classes,
        model.n_features,
        model.best_round,
        len(model.rounds),
        model.best_valid_ce,
        model.prior_valid_ce,
    )
    parts = [head, model.base_score.astype("<f8").tobytes()]
    for trees in model.rounds:
        parts.extend(_pack_tree(t) for t in trees)
    return b"".join(parts)


def gbdt_from_bytes(buf: bytes) -> GbdtModel:
    """Decode `gbdt_to_bytes` output; malformed input raises ValueError."""
    if buf[:4] != MODEL_MAGIC:
        raise ValueError("bad magic: not a serialized GBDT model")
    _check_size(buf, 4, _HEADER.size, "header")
    version, *vals = _HEADER.unpack_from(buf, 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported GBDT model format version {version}")
    n_params = len(PARAMS_FORMAT)
    params = GbdtParams(*vals[:n_params])
    n_classes, n_features, best_round, n_stored, best_ce, prior_ce = vals[n_params:]
    if n_classes < 2:
        raise ValueError(f"GBDT model has {n_classes} classes, need at least 2")
    if not -1 <= best_round < n_stored:
        raise ValueError(f"GBDT best round {best_round} is outside [-1, {n_stored})")
    pos = 4 + _HEADER.size
    _check_size(buf, pos, 8 * n_classes, "base scores")
    base = np.frombuffer(buf, "<f8", n_classes, pos).copy()
    if not (np.isfinite(base).all() and np.isfinite([best_ce, prior_ce]).all()):
        raise ValueError("GBDT model has a non-finite base score or validation loss")
    pos += 8 * n_classes
    rounds = []
    for _ in range(n_stored):
        trees = []
        for _ in range(n_classes):
            tree, pos = _unpack_tree(buf, pos, n_features)
            trees.append(tree)
        rounds.append(trees)
    if pos != len(buf):
        raise ValueError(f"{len(buf) - pos} trailing bytes after the GBDT model")
    return GbdtModel(
        n_classes=n_classes,
        n_features=n_features,
        params=params,
        base_score=base,
        rounds=rounds,
        best_round=best_round,
        best_valid_ce=best_ce,
        prior_valid_ce=prior_ce,
        valid_ce_history=[],
    )


def gbdt_dump_text(model: GbdtModel) -> str:
    """Human-readable dump, one node per line."""
    lines = [
        f"gbdt classes={model.n_classes} features={model.n_features} "
        f"rounds={len(model.rounds)} best_round={model.best_round}"
    ]
    for c, b in enumerate(model.base_score):
        lines.append(f"base class={c} score={b:.9g}")
    for r, trees in enumerate(model.rounds):
        for c, tree in enumerate(trees):
            for i in range(tree.n_nodes):
                if tree.feature[i] >= 0:
                    lines.append(
                        f"round={r} class={c} node={i} split "
                        f"feature={tree.feature[i]} threshold={tree.threshold[i]:.9g} "
                        f"left={tree.left[i]} right={tree.right[i]}"
                    )
                else:
                    lines.append(
                        f"round={r} class={c} node={i} leaf value={tree.value[i]:.9g}"
                    )
    return "\n".join(lines) + "\n"
