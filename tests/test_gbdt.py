import struct
import warnings
from dataclasses import astuple, fields

import numpy as np
import pytest

from conftest import blob_data, xor_data
from oracles import (
    best_depth2_tree_accuracy,
    gbdt_train_reference,
    nearest_centroid_accuracy,
)
from pcapass import (
    GbdtModel,
    GbdtParams,
    gbdt_from_bytes,
    gbdt_predict,
    gbdt_predict_proba,
    gbdt_to_bytes,
    gbdt_train,
)
from pcapass.gbdt import PARAMS_FORMAT, _HEADER, Tree, _best_splits, _Bins, gbdt_dump_text
from pcapass.metrics import cross_entropy


def quick_params(**kw):
    defaults = dict(learning_rate=0.3, max_depth=3, n_rounds=60, patience=10, seed=0)
    defaults.update(kw)
    return GbdtParams(**defaults)


class TestTrainContracts:
    def test_single_class_rejected(self):
        X = np.random.default_rng(0).standard_normal((20, 2))
        with pytest.raises(ValueError, match="classes"):
            gbdt_train(X, np.zeros(20, int), X, np.zeros(20, int), quick_params())

    def test_missing_class_rejected(self):
        X = np.random.default_rng(0).standard_normal((20, 2))
        y_tr = np.zeros(20, int)
        y_val = np.full(20, 2, int)  # class 1 never appears in training
        with pytest.raises(ValueError, match="missing"):
            gbdt_train(X, y_tr, X, y_val, quick_params())

    def test_non_finite_features_rejected(self):
        X = np.ones((10, 2))
        X[3, 1] = np.nan
        y = np.arange(10) % 2
        with pytest.raises(ValueError, match="non-finite"):
            gbdt_train(X, y, np.ones((4, 2)), np.arange(4) % 2, quick_params())

    def test_label_row_mismatch(self):
        X = np.ones((10, 2))
        with pytest.raises(ValueError, match="label count"):
            gbdt_train(X, np.zeros(9, int), X, np.zeros(10, int), quick_params())

    @pytest.mark.parametrize("empty", ["training", "validation"])
    def test_an_empty_set_is_rejected_by_name(self, empty):
        X, y = np.ones((4, 2)), np.arange(4) % 2
        sets = {"training": (X, y), "validation": (X, y)}
        sets[empty] = (X[:0], y[:0])
        with pytest.raises(ValueError, match=f"^the {empty} set is empty$"):
            gbdt_train(*sets["training"], *sets["validation"], quick_params())

    def test_a_non_finite_leaf_is_rejected(self):
        # learning_rate = 1e308 once trained a model whose leaves were inf or
        # nan, warned of overflow in the softmax, and `eval` rejected it
        (X_tr, y_tr), (X_va, y_va), _ = blob_data()
        leaf = "^round 0 grew a non-finite leaf; lower learning_rate$"
        with pytest.raises(ValueError, match=leaf):
            gbdt_train(X_tr, y_tr, X_va, y_va, quick_params(learning_rate=1e308))

    def test_constant_features_fall_back_to_prior(self):
        X = np.full((40, 3), 1.5)
        y = np.arange(40) % 2
        model = gbdt_train(X, y, X, y, quick_params(n_rounds=5, patience=50))
        proba = gbdt_predict_proba(model, X[:4])
        np.testing.assert_allclose(proba, 0.5, atol=1e-12)


class TestBlobs:
    def test_validation_accuracy_at_least_098(self):
        (X_tr, y_tr), (X_val, y_val), _ = blob_data(seed=3)
        # oracle: the blobs are separable with margin; nearest-centroid
        # already clears the bar, so a boosted tree model must too
        assert nearest_centroid_accuracy(X_tr, y_tr, X_val, y_val) >= 0.98
        model = gbdt_train(X_tr, y_tr, X_val, y_val, quick_params())
        pred = gbdt_predict(model, X_val)
        assert (pred == y_val).mean() >= 0.98

    def test_test_accuracy_at_least_097(self):
        (X_tr, y_tr), (X_val, y_val), (X_te, y_te) = blob_data(seed=3)
        model = gbdt_train(X_tr, y_tr, X_val, y_val, quick_params())
        assert (gbdt_predict(model, X_te) == y_te).mean() >= 0.97

    def test_training_ce_non_increasing_first_rounds(self):
        (X_tr, y_tr), (X_val, y_val), _ = blob_data(seed=5)
        params = quick_params(learning_rate=0.1, n_rounds=10, patience=100)
        model = gbdt_train(X_tr, y_tr, X_val, y_val, params)
        losses = []
        for r in range(len(model.rounds) + 1):
            proba = gbdt_predict_proba(model, X_tr, n_rounds=r)
            p_true = proba[np.arange(len(y_tr)), y_tr]
            losses.append(float(-np.log(np.maximum(p_true, 1e-15)).mean()))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestXor:
    def test_train_accuracy_at_least_095(self):
        X, y = xor_data(seed=1)
        # oracle: exhaustive depth-2 tree search shows the fixture is
        # depth-2 separable
        assert best_depth2_tree_accuracy(X, y) >= 0.95
        model = gbdt_train(X, y, X, y, quick_params(max_depth=2, n_rounds=150))
        assert (gbdt_predict(model, X) == y).mean() >= 0.95


class TestPredict:
    def test_zero_rounds_balanced_prior_is_uniform(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 3))
        y = np.repeat(np.arange(4), 10)
        model = gbdt_train(X, y, X, y, quick_params(n_rounds=0))
        proba = gbdt_predict_proba(model, X[:5])
        np.testing.assert_allclose(proba, 0.25, atol=1e-12)
        # uniform probabilities: the tie resolves to class 0
        assert (gbdt_predict(model, X[:5]) == 0).all()

    def test_probability_rows_sum_to_one(self):
        (X_tr, y_tr), (X_val, y_val), (X_te, _) = blob_data(seed=9)
        model = gbdt_train(X_tr, y_tr, X_val, y_val, quick_params())
        proba = gbdt_predict_proba(model, X_te)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert (proba > 0.0).all() and (proba < 1.0).all()

    def test_argmax_consistency(self):
        (X_tr, y_tr), (X_val, y_val), _ = blob_data(seed=2)
        model = gbdt_train(X_tr, y_tr, X_val, y_val, quick_params())
        proba = gbdt_predict_proba(model, X_tr)
        np.testing.assert_array_equal(
            gbdt_predict(model, X_tr), np.argmax(proba, axis=1)
        )

    def test_single_row(self):
        (X_tr, y_tr), (X_val, y_val), _ = blob_data(seed=2)
        model = gbdt_train(X_tr, y_tr, X_val, y_val, quick_params())
        assert gbdt_predict(model, X_tr[:1]).shape == (1,)

    def test_width_mismatch_rejected(self):
        (X_tr, y_tr), (X_val, y_val), _ = blob_data(seed=2)
        model = gbdt_train(X_tr, y_tr, X_val, y_val, quick_params())
        with pytest.raises(ValueError, match="features"):
            gbdt_predict(model, np.ones((3, 5)))


class TestEarlyStopping:
    @staticmethod
    def noisy_validation_model(patience=7):
        (X_tr, y_tr), (X_val, y_val), _ = blob_data(seed=11)
        flip = np.random.default_rng(4).random(len(y_val)) < 0.3
        y_noisy = np.where(flip, 1 - y_val, y_val)
        params = quick_params(n_rounds=400, patience=patience)
        return gbdt_train(X_tr, y_tr, X_val, y_noisy, params), params

    def test_stops_after_exactly_patience_stale_rounds(self):
        model, params = self.noisy_validation_model()
        assert len(model.rounds) < params.n_rounds, "early stopping never fired"
        assert len(model.rounds) == model.best_round + 1 + params.patience

    def test_best_bookkeeping_is_exact(self):
        model, _ = self.noisy_validation_model()
        candidates = [model.prior_valid_ce] + model.valid_ce_history
        assert model.best_valid_ce == min(candidates)
        if model.best_round >= 0:
            assert model.valid_ce_history[model.best_round] == model.best_valid_ce

    def test_prediction_uses_only_best_rounds(self):
        model, _ = self.noisy_validation_model()
        (X_tr, _), _, _ = blob_data(seed=11)
        full = gbdt_predict_proba(model, X_tr, n_rounds=model.best_round + 1)
        np.testing.assert_array_equal(gbdt_predict_proba(model, X_tr), full)


@pytest.mark.parametrize(
    "kind, n_bins, subsample",
    [("ties", 256, 1.0), ("ties", 3, 0.5), ("few_values", 2, 0.8), ("normal", 4, 0.3)],
)
def test_each_recorded_loss_is_the_loss_of_that_many_rounds(kind, n_bins, subsample):
    # Training routes the validation rows and the rows outside a round's
    # sample itself; prediction must send every row to the same leaf, so the
    # loss recorded after round r is, to the bit, that of the first r + 1
    # rounds. Half the validation rows repeat training rows, whose values
    # can be split thresholds.
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((300, 3))
        if kind == "ties":
            X = np.round(X, 1)
        elif kind == "few_values":
            X = rng.integers(0, 4, size=X.shape).astype(np.float64)
        y = (X[:, 0] + X[:, 1] + rng.standard_normal(300) > 0).astype(np.int64)
        y[2] = 2  # a third class, present in training
        X[250:] = X[:50]
        params = quick_params(
            max_depth=4, n_rounds=12, patience=12, min_child_hessian=0.3,
            n_bins=n_bins, subsample=subsample, seed=seed,
        )
        model = gbdt_train(X[:200], y[:200], X[200:], y[200:], params)
        assert len(model.valid_ce_history) == 12
        for r, ce in enumerate(model.valid_ce_history):
            proba = gbdt_predict_proba(model, X[200:], n_rounds=r + 1)
            assert cross_entropy(proba, y[200:]) == ce


class TestDeterminism:
    def test_identical_runs_are_bitwise_identical(self):
        (X_tr, y_tr), (X_val, y_val), _ = blob_data(seed=6)
        params = quick_params(subsample=0.8, seed=123)
        a = gbdt_train(X_tr, y_tr, X_val, y_val, params)
        b = gbdt_train(X_tr, y_tr, X_val, y_val, params)
        assert gbdt_to_bytes(a) == gbdt_to_bytes(b)

    def test_subsample_uses_seed(self):
        (X_tr, y_tr), (X_val, y_val), _ = blob_data(seed=6)
        a = gbdt_train(X_tr, y_tr, X_val, y_val, quick_params(subsample=0.5, seed=1))
        b = gbdt_train(X_tr, y_tr, X_val, y_val, quick_params(subsample=0.5, seed=2))
        assert gbdt_to_bytes(a) != gbdt_to_bytes(b)


def test_monotone_1d_split_thresholds_in_the_gap():
    rng = np.random.default_rng(8)
    x = np.concatenate([rng.uniform(-3, -0.4, 120), rng.uniform(0.4, 3, 130)])
    y = (x > 0).astype(np.int64)
    X = x[:, None]
    model = gbdt_train(X, y, X, y, quick_params(n_rounds=20))
    gap_lo, gap_hi = x[x < 0].max(), x[x > 0].min()
    thresholds = [
        t for trees in model.rounds for tree in trees for t in tree.threshold[tree.feature >= 0]
    ]
    assert thresholds, "no splits learned"
    assert all(gap_lo < t <= gap_hi for t in thresholds)


class TestSerialization:
    def test_roundtrip_preserves_predictions(self):
        (X_tr, y_tr), (X_val, y_val), (X_te, _) = blob_data(seed=13)
        model = gbdt_train(X_tr, y_tr, X_val, y_val, quick_params(subsample=0.9))
        restored = gbdt_from_bytes(gbdt_to_bytes(model))
        np.testing.assert_array_equal(
            gbdt_predict_proba(restored, X_te), gbdt_predict_proba(model, X_te)
        )
        assert restored.best_round == model.best_round
        assert restored.params == model.params
        assert gbdt_to_bytes(restored) == gbdt_to_bytes(model)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            gbdt_from_bytes(b"ZZZZ" + b"\0" * 100)

    @staticmethod
    def small_blob():
        (X_tr, y_tr), (X_val, y_val), _ = blob_data(seed=13)
        params = quick_params(n_rounds=2, patience=50, subsample=0.9)
        return gbdt_to_bytes(gbdt_train(X_tr, y_tr, X_val, y_val, params))

    def test_every_truncation_rejected(self):
        blob = self.small_blob()
        for cut in range(len(blob)):
            with pytest.raises(ValueError):
                gbdt_from_bytes(blob[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError, match="trailing"):
            gbdt_from_bytes(self.small_blob() + b"\0")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("offset", [0, -16, -8], ids=["base", "best_ce", "prior_ce"])
    def test_non_finite_base_score_or_loss_rejected(self, offset, value):
        # The first base score follows the header, which ends with the best
        # and the prior validation loss.
        blob = bytearray(self.small_blob())
        struct.pack_into("<d", blob, 4 + _HEADER.size + offset, value)
        with pytest.raises(ValueError, match="non-finite base score or validation loss"):
            gbdt_from_bytes(bytes(blob))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("feature", 999, "feature 999"),
            ("feature", -2, "feature -2"),
            ("left", 0, "left child 0"),
            ("right", 10**6, "right child 1000000"),
            ("threshold", np.nan, "non-finite"),
            ("value", np.inf, "non-finite"),
        ],
    )
    def test_malformed_tree_rejected(self, field, value, message):
        # Before the decoder checked tree structure, a bad feature index
        # reached an IndexError in predict and a backward child looped forever.
        model = gbdt_from_bytes(self.small_blob())
        tree = model.rounds[0][0]
        assert tree.feature[0] >= 0, "the fixture's first tree must split at the root"
        getattr(tree, field)[0] = value
        with pytest.raises(ValueError, match=message):
            gbdt_from_bytes(gbdt_to_bytes(model))

    @pytest.mark.parametrize("best_round", [-3, -2, "n_stored", 2**31 - 1])
    def test_best_round_outside_the_stored_rounds_rejected(self, best_round):
        # A best round of -3 once decoded, and prediction then used rounds[:-2].
        model = gbdt_from_bytes(self.small_blob())
        n_stored = len(model.rounds)
        model.best_round = n_stored if best_round == "n_stored" else best_round
        with pytest.raises(ValueError, match=f"best round {model.best_round} is outside"):
            gbdt_from_bytes(gbdt_to_bytes(model))
        for best_round in range(-1, n_stored):  # every stored round, and the prior
            model.best_round = best_round
            assert gbdt_from_bytes(gbdt_to_bytes(model)).best_round == best_round

    def test_header_layout_is_format_version_1(self):
        (X_tr, y_tr), (X_val, y_val), _ = blob_data(seed=13)
        model = gbdt_train(X_tr, y_tr, X_val, y_val, quick_params(subsample=0.9))
        p = model.params
        head = b"PGBM" + struct.pack(
            "<IdIIddIIdqIIiidd",
            1,
            p.learning_rate,
            p.max_depth,
            p.n_rounds,
            p.reg_lambda,
            p.min_child_hessian,
            p.patience,
            p.n_bins,
            p.subsample,
            p.seed,
            model.n_classes,
            model.n_features,
            model.best_round,
            len(model.rounds),
            model.best_valid_ce,
            model.prior_valid_ce,
        )
        assert gbdt_to_bytes(model).startswith(head)

    def test_text_dump_lists_every_node(self):
        (X_tr, y_tr), (X_val, y_val), _ = blob_data(seed=13)
        model = gbdt_train(X_tr, y_tr, X_val, y_val, quick_params(n_rounds=3, patience=50))
        dump = gbdt_dump_text(model)
        n_nodes = sum(t.n_nodes for trees in model.rounds for t in trees)
        node_lines = [ln for ln in dump.splitlines() if " node=" in ln]
        assert len(node_lines) == n_nodes
        assert "best_round=" in dump


class TestParams:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(learning_rate=0.0),
            dict(max_depth=0),
            dict(n_rounds=-1),
            dict(reg_lambda=-0.1),
            dict(patience=0),
            dict(n_bins=1),
            dict(subsample=0.0),
            dict(subsample=1.2),
        ],
    )
    def test_invalid_params_rejected(self, kw):
        with pytest.raises(ValueError):
            GbdtParams(**kw)

    @pytest.mark.parametrize(
        "name, code",
        [(f.name, code) for f, code in zip(fields(GbdtParams), PARAMS_FORMAT) if code != "d"],
    )
    def test_a_value_the_model_file_cannot_store_is_rejected(self, name, code):
        # max_depth = 2**32 or seed = 2**63 once trained in full, then failed
        # to pack the model header
        assert name in ("max_depth", "n_rounds", "patience", "n_bins", "seed")
        top = 2**32 - 1 if code == "I" else 2**63 - 1
        params = GbdtParams(**{name: top})
        struct.pack("<" + PARAMS_FORMAT, *astuple(params))
        with pytest.raises(ValueError, match=rf"^{name} must be <= {top}, got {top + 1}$"):
            GbdtParams(**{name: top + 1})

    @pytest.mark.parametrize(
        "key", ["learning_rate", "reg_lambda", "min_child_hessian", "subsample"]
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            GbdtParams(**{key: value})


def reference_model(X_tr, y_tr, X_val, y_val, params) -> GbdtModel:
    """`gbdt_train_reference` output in the package's model type."""
    base, rounds, best_round, best_ce, prior_ce, history = gbdt_train_reference(
        X_tr, y_tr, X_val, y_val, params
    )
    return GbdtModel(
        n_classes=base.size,
        n_features=X_tr.shape[1],
        params=params,
        base_score=base,
        rounds=[[Tree(*tree) for tree in trees] for trees in rounds],
        best_round=best_round,
        best_valid_ce=best_ce,
        prior_valid_ce=prior_ce,
        valid_ce_history=history,
    )


def differential_case(case: int):
    """Data and parameters of one case of the grid the level-by-level grower
    is checked on: every depth from 1 to 9 with each data kind, drawn
    settings of the other parameters, and a case that every depth pins."""
    rng = np.random.default_rng(1000 + case)
    kind = ("normal", "ties", "constant", "few_values")[case % 4]
    max_depth = 1 + case // 4 % 9
    n, f = int(rng.integers(8, 160)), int(rng.integers(1, 5))
    n_classes = int(rng.integers(2, 5))
    X = rng.standard_normal((n + 40, f))
    if kind == "ties":
        X = np.round(X, 1)
    elif kind == "constant":
        X[:, 0] = 1.5
    elif kind == "few_values":
        X = rng.integers(0, 3, size=X.shape).astype(np.float64)
    y = rng.integers(0, n_classes, size=n + 40)
    y[:n_classes] = np.arange(n_classes)
    pinned = case % 36 == 35
    params = GbdtParams(
        learning_rate=float(rng.choice([0.1, 0.3, 1.0])),
        max_depth=max_depth,
        n_rounds=int(rng.integers(1, 8)),
        reg_lambda=0.0 if pinned else float(rng.choice([0.0, 0.5, 1.0, 3.0])),
        min_child_hessian=0.3 if pinned else float(rng.choice([0.0, 0.3, 1.0, 2.5])),
        patience=int(rng.integers(1, 4)),
        n_bins=2 if pinned else int(rng.choice([2, 3, 7, 16, 64, 256])),
        subsample=0.05 if pinned else float(rng.choice([0.05, 0.5, 0.8, 1.0, 1.0])),
        seed=case,
    )
    return (X[:n], y[:n]), (X[n:], y[n:]), params


@pytest.mark.parametrize("case", range(144))
def test_same_model_as_the_node_by_node_grower(case):
    (X_tr, y_tr), (X_val, y_val), params = differential_case(case)
    model = gbdt_train(X_tr, y_tr, X_val, y_val, params)
    try:
        expected = reference_model(X_tr, y_tr, X_val, y_val, params)
    except ZeroDivisionError:
        # The reference divides by a child's zero hessian when neither
        # reg_lambda nor min_child_hessian keeps it positive; such a leaf
        # now weighs 0.
        assert params.reg_lambda == params.min_child_hessian == 0.0
        assert any((t.value == 0.0).any() for trees in model.rounds for t in trees)
        return
    assert gbdt_to_bytes(model) == gbdt_to_bytes(expected)
    assert model.valid_ce_history == expected.valid_ce_history


@pytest.mark.parametrize("cells", [1, 700, 5000])
def test_split_search_batches_do_not_change_the_model(cells, monkeypatch):
    # Small batches put the nodes of one depth into several histogram passes.
    rng = np.random.default_rng(3)
    X = rng.standard_normal((400, 3))
    y = (X[:, 0] + 0.5 * rng.standard_normal(400) > 0).astype(np.int64) + (X[:, 1] > 1)
    params = GbdtParams(max_depth=7, n_rounds=4, min_child_hessian=0.3, n_bins=64)
    expected = gbdt_to_bytes(reference_model(X[:300], y[:300], X[300:], y[300:], params))
    monkeypatch.setattr("pcapass.gbdt._BATCH_CELLS", cells)
    model = gbdt_train(X[:300], y[:300], X[300:], y[300:], params)
    assert gbdt_to_bytes(model) == expected
    assert max(t.n_nodes for trees in model.rounds for t in trees) > 31


def test_subnormal_hessian_split_search_is_silent():
    # With reg_lambda = 0 the left child's hessian after bin 0 is 1e-310, so
    # its gain overflows to inf. An infinite gain wins the argmax and fails
    # the finiteness test: the node stays a leaf, and numpy must not warn.
    X = np.arange(8.0)[:, None]
    grad = np.array([1.0, -1.0, 1.0, -1.0, 0.5, -0.5, 0.25, -0.25])
    hess = np.ones(8)
    hess[0] = 1e-310
    params = GbdtParams(reg_lambda=0.0, min_child_hessian=0.0)
    bins = _Bins.fit(X, params.n_bins)
    g_tot, h_tot = np.array([grad.sum()]), np.array([hess.sum()])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        splits = _best_splits(bins, grad, hess, [np.arange(8)], g_tot, h_tot, params)
    assert splits == [None]
