import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import inertia, v_measure_reference
from pcapass import (
    accuracy,
    cross_entropy,
    kmeans,
    pearson_correlation,
    standardize,
    v_measure,
)


class TestStandardize:
    def test_two_point_column(self):
        out = standardize(np.array([[1.0], [3.0]]))
        np.testing.assert_allclose(out, [[-1 / np.sqrt(2)], [1 / np.sqrt(2)]])

    def test_constant_column_maps_to_zero(self):
        out = standardize(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        np.testing.assert_array_equal(out[:, 0], 0.0)

    def test_columns_become_zero_mean_unit_std(self, rng):
        out = standardize(rng.standard_normal((50, 4)) * 7 + 3)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0, ddof=1), 1.0, atol=1e-12)

    def test_idempotent(self, rng):
        X = rng.standard_normal((20, 3))
        once = standardize(X)
        np.testing.assert_allclose(standardize(once), once, atol=1e-10)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            standardize(np.ones((1, 3)))


class TestAccuracyAndCrossEntropy:
    def test_perfect_predictions(self):
        y = np.array([0, 1, 2, 1])
        assert accuracy(y, y) == 1.0
        proba = np.eye(3)[y]
        assert cross_entropy(proba, y) <= 1e-12

    def test_uniform_probabilities_give_log_c(self):
        proba = np.full((10, 4), 0.25)
        truth = np.arange(10) % 4
        assert abs(cross_entropy(proba, truth) - np.log(4.0)) < 1e-12

    def test_half_right(self):
        assert accuracy([0, 0, 1, 1], [0, 0, 0, 0]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0, 1, 2])
        with pytest.raises(ValueError):
            cross_entropy(np.full((2, 2), 0.5), [0, 1, 0])

    def test_clamps_zero_probability(self):
        proba = np.array([[1.0, 0.0]])
        assert cross_entropy(proba, [1]) == pytest.approx(-np.log(1e-15))


class TestPearson:
    def test_exact_positive_and_negative(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson_correlation(xs, 2 * xs + 1) == pytest.approx(1.0, abs=1e-12)
        assert pearson_correlation(xs, -xs) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_value(self):
        # cov = 0.5, both stds 1 -> r = 0.5
        assert pearson_correlation([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @given(
        # integer-valued points keep the centered values well away from the
        # rounding noise of the affine shift
        st.lists(st.integers(-100, 100).map(float), min_size=3, max_size=20),
        st.floats(0.5, 3),
        st.floats(-5, 5),
    )
    @settings(max_examples=50)
    def test_invariant_under_positive_affine_transforms(self, xs, scale, shift):
        xs = np.asarray(xs)
        ys = np.sin(xs) + 0.1 * xs  # deterministic companion
        if xs.std() == 0 or ys.std() == 0:
            return
        base = pearson_correlation(xs, ys)
        assert pearson_correlation(scale * xs + shift, ys) == pytest.approx(
            base, abs=1e-12
        )
        assert pearson_correlation(xs, scale * ys + shift) == pytest.approx(
            base, abs=1e-12
        )


class TestVMeasure:
    def test_perfect_clustering_up_to_relabeling(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([5, 5, 0, 0, 9, 9])
        assert v_measure(truth, pred) == pytest.approx(1.0)

    def test_single_cluster_scores_zero(self):
        assert v_measure([0, 0, 1, 1], [0, 0, 0, 0]) == 0.0

    def test_independent_partitions_score_zero(self):
        # oracle: contingency table is all ones, H(C|K) = H(C)
        assert v_measure_reference([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0)
        assert v_measure([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            v_measure([0, 1], [0, 1, 2])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="^v_measure needs at least one sample$"):
            v_measure([], [])

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_matches_reference_on_random_inputs(self, rnd):
        rng = np.random.default_rng(rnd.randrange(2**32))
        n = int(rng.integers(1, 40))
        truth = rng.integers(0, 4, size=n)
        pred = rng.integers(0, 5, size=n)
        assert v_measure(truth, pred) == pytest.approx(
            v_measure_reference(truth, pred), abs=1e-12
        )

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_invariant_under_label_permutations(self, rnd):
        rng = np.random.default_rng(rnd.randrange(2**32))
        n = int(rng.integers(2, 30))
        truth = rng.integers(0, 3, size=n)
        pred = rng.integers(0, 3, size=n)
        base = v_measure(truth, pred)
        perm_t = rng.permutation(3)
        perm_p = rng.permutation(3)
        assert v_measure(perm_t[truth], pred) == pytest.approx(base, abs=1e-12)
        assert v_measure(truth, perm_p[pred]) == pytest.approx(base, abs=1e-12)

    def test_value_in_unit_interval(self, rng):
        for _ in range(20):
            truth = rng.integers(0, 3, size=25)
            pred = rng.integers(0, 6, size=25)
            assert 0.0 <= v_measure(truth, pred) <= 1.0


class TestKmeans:
    def test_far_apart_pairs_cocluster(self):
        X = np.array([[0.0, 0.0], [0.1, 0.0], [50.0, 50.0], [50.1, 50.0]])
        assign = kmeans(X, 2, seed=0)
        assert assign[0] == assign[1] and assign[2] == assign[3]
        assert assign[0] != assign[2]

    def test_k_equals_one(self, rng):
        assign = kmeans(rng.standard_normal((10, 2)), 1, seed=0)
        assert (assign == 0).all()

    def test_k_equals_n_gives_zero_inertia(self, rng):
        X = rng.standard_normal((6, 2))
        assign = kmeans(X, 6, seed=0)
        assert sorted(assign.tolist()) == list(range(6))
        assert inertia(X, assign) == pytest.approx(0.0, abs=1e-20)

    def test_constant_data_gets_a_full_assignment(self):
        # Every point is the same, so the seeding's remaining mass is 0 after
        # the first center and the second cluster starts empty: it is picked
        # uniformly, then revived, and ties go to the lowest cluster id.
        assign = kmeans(np.full((10, 3), 2.5), 2, seed=0)
        assert assign.tolist() == [0] * 10

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            kmeans(np.ones((3, 2)), 4, seed=0)

    @pytest.mark.parametrize(
        "X, k, n_restarts, message",
        [
            (np.ones(3), 1, 1, r"^kmeans expects a 2-D matrix, got shape \(3,\)$"),
            (np.ones((3, 2)), 0, 1, "^cluster count must be >= 1, got 0$"),
            (np.ones((3, 2)), 1, 0, "^n_restarts must be >= 1, got 0$"),
        ],
        ids=["one_dimensional", "no_clusters", "no_restarts"],
    )
    def test_bad_arguments_rejected(self, X, k, n_restarts, message):
        with pytest.raises(ValueError, match=message):
            kmeans(X, k, seed=0, n_restarts=n_restarts)

    def test_inertia_non_increasing(self, rng):
        X = rng.standard_normal((120, 3))
        # the inertia after m = 0, 1, 2, ... Lloyd iterations, past convergence
        history = [inertia(X, kmeans(X, 5, seed=2, max_iter=m)) for m in range(40)]
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_deterministic_for_fixed_seed(self, rng):
        X = rng.standard_normal((60, 4))
        a = kmeans(X, 4, seed=11)
        b = kmeans(X, 4, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_restarts_never_worsen_inertia(self, rng):
        X = rng.standard_normal((80, 2))
        single = inertia(X, kmeans(X, 6, seed=5))
        multi = inertia(X, kmeans(X, 6, seed=5, n_restarts=5))
        assert multi <= single + 1e-12
