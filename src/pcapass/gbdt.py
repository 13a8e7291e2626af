"""Second-order gradient-boosted decision trees for multiclass classification.

One regression tree per class per round, fit to softmax gradients and
hessians over histogram-quantized features. Validation cross-entropy drives
early stopping; prediction uses only the rounds up to the best one. Split
thresholds are stored as real bin-boundary values, so prediction needs no
bin table.
"""

from __future__ import annotations

import struct
from dataclasses import astuple, dataclass, field

import numpy as np

from .metrics import cross_entropy

MODEL_MAGIC = b"PGBM"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class GbdtParams:
    """Boosting settings. Each field's help text is its `help` metadata; the
    CLI's config keys of the same names are derived from these fields."""

    learning_rate: float = field(
        default=0.1, metadata={"help": "boosting shrinkage per round"}
    )
    max_depth: int = field(default=6, metadata={"help": "maximum tree depth"})
    n_rounds: int = field(default=500, metadata={"help": "maximum boosting rounds"})
    reg_lambda: float = field(
        default=1.0, metadata={"help": "L2 leaf weight regularizer"}
    )
    min_child_hessian: float = field(
        default=1.0, metadata={"help": "minimum hessian sum per child to allow a split"}
    )
    patience: int = field(
        default=10,
        metadata={"help": "rounds without validation improvement before stopping"},
    )
    n_bins: int = field(default=256, metadata={"help": "histogram bins per feature"})
    subsample: float = field(
        default=1.0, metadata={"help": "row fraction sampled per boosting round"}
    )
    seed: int = 0

    def __post_init__(self):
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
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feat = self.feature[node]
            active = np.flatnonzero(feat >= 0)
            if active.size == 0:
                return self.value[node]
            cur = node[active]
            go_left = X[active, feat[active]] < self.threshold[cur]
            node[active] = np.where(go_left, self.left[cur], self.right[cur])

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


def _make_bins(X: np.ndarray, n_bins: int) -> tuple[np.ndarray, list[np.ndarray]]:
    n, f = X.shape
    edges = [_quantile_edges(X[:, j], n_bins) for j in range(f)]
    binned = np.empty((n, f), dtype=np.int32)
    for j in range(f):
        binned[:, j] = np.searchsorted(edges[j], X[:, j], side="right")
    return binned, edges


class _TreeGrower:
    """Grows one tree on pre-binned features, depth-first.

    The split search scans features in index order and bin boundaries in
    ascending order with a strict improvement test, so the chosen split is
    the deterministic maximum with ties broken toward the lowest feature
    index, then the lowest bin.
    """

    def __init__(self, binned, edges, grad, hess, params: GbdtParams):
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
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def grow(self, rows: np.ndarray) -> Tree:
        self._node(rows, depth=0)
        return Tree(
            feature=np.array(self.feature, dtype=np.int32),
            threshold=np.array(self.threshold, dtype=np.float64),
            left=np.array(self.left, dtype=np.int32),
            right=np.array(self.right, dtype=np.int32),
            value=np.array(self.value, dtype=np.float64),
        )

    def _emit(self, feature, threshold, value) -> int:
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.feature) - 1

    def _node(self, rows: np.ndarray, depth: int) -> int:
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

    def _leaf_weight(self, g_tot: float, h_tot: float) -> float:
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
    binned, edges = _make_bins(X_tr, params.n_bins)
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
        else:
            rows = all_rows
        trees = []
        for c in range(n_classes):
            grower = _TreeGrower(binned, edges, grads[:, c], hesses[:, c], params)
            tree = grower.grow(rows)
            trees.append(tree)
            margins_tr[:, c] += tree.predict(X_tr)
            margins_val[:, c] += tree.predict(X_val)
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


def _pack_tree(tree: Tree) -> bytes:
    return (
        struct.pack("<I", tree.n_nodes)
        + tree.feature.astype("<i4").tobytes()
        + tree.threshold.astype("<f8").tobytes()
        + tree.left.astype("<i4").tobytes()
        + tree.right.astype("<i4").tobytes()
        + tree.value.astype("<f8").tobytes()
    )


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
    _check_size(buf, pos, 28 * n, f"tree of {n} nodes")
    feature = np.frombuffer(buf, "<i4", n, pos).copy()
    pos += 4 * n
    threshold = np.frombuffer(buf, "<f8", n, pos).copy()
    pos += 8 * n
    left = np.frombuffer(buf, "<i4", n, pos).copy()
    pos += 4 * n
    right = np.frombuffer(buf, "<i4", n, pos).copy()
    pos += 4 * n
    value = np.frombuffer(buf, "<f8", n, pos).copy()
    pos += 8 * n
    _check_tree(feature, threshold, left, right, value, n_features)
    return Tree(feature, threshold, left, right, value), pos


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
    pos = 4 + _HEADER.size
    _check_size(buf, pos, 8 * n_classes, "base scores")
    base = np.frombuffer(buf, "<f8", n_classes, pos).copy()
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
