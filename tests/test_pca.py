import numpy as np
import pytest

from oracles import jacobi_eigendecomposition
from pcapass import explained_variance_ratio, pca_fit, pca_transform

DIAGONAL_LINE = np.array([[1.0, 1.0], [-1.0, -1.0], [2.0, 2.0], [-2.0, -2.0]])


class TestFit:
    def test_rank1_diagonal_fixture(self):
        model = pca_fit(DIAGONAL_LINE, d=1)
        np.testing.assert_allclose(
            model.components, [[1 / np.sqrt(2), 1 / np.sqrt(2)]], atol=1e-12
        )
        # hand oracle: projections are sqrt(2)*t with t in {1,-1,2,-2}, so the
        # sample variance along the component is (2+2+8+8)/3 = 20/3
        np.testing.assert_allclose(model.eigenvalues, [20.0 / 3.0], atol=1e-12)
        np.testing.assert_allclose(explained_variance_ratio(model), [1.0], atol=1e-12)

    def test_constant_column_gets_zero_eigenvalue(self, rng):
        X = rng.standard_normal((30, 4))
        X[:, 2] = 7.5
        model = pca_fit(X, d=4)
        assert model.eigenvalues[-1] == 0.0
        # the zero-variance direction is the constant column's axis
        np.testing.assert_allclose(
            np.abs(model.components[-1]), [0, 0, 1, 0], atol=1e-8
        )

    def test_matches_independent_jacobi_eigensolve(self, rng):
        X = rng.standard_normal((20, 6))
        model = pca_fit(X, d=3)
        cov = np.cov(X, rowvar=False, ddof=1)
        ref_evals, ref_vectors = jacobi_eigendecomposition(cov)
        np.testing.assert_allclose(model.eigenvalues, ref_evals[:3], atol=1e-8)
        np.testing.assert_allclose(model.components, ref_vectors[:3], atol=1e-8)

    def test_dimension_caps_at_min_d_f_n(self, rng):
        X = rng.standard_normal((10, 4))
        assert pca_fit(X, d=9).n_components == 4
        X2 = rng.standard_normal((3, 8))
        assert pca_fit(X2, d=8).n_components == 3

    def test_insufficient_rows(self):
        with pytest.raises(ValueError, match="at least 2 rows"):
            pca_fit(np.ones((1, 3)), d=1)

    def test_bad_target_dim(self):
        with pytest.raises(ValueError, match=">= 1"):
            pca_fit(np.ones((5, 3)), d=0)

    def test_orthonormal_components(self, rng):
        for _ in range(5):
            X = rng.standard_normal((25, 7))
            model = pca_fit(X, d=7)
            gram = model.components @ model.components.T
            np.testing.assert_allclose(gram, np.eye(7), atol=1e-8)

    def test_constant_input_fits_and_transforms_to_zero(self):
        X = np.full((6, 3), 2.5)
        model = pca_fit(X, d=3)
        assert (model.eigenvalues == 0.0).all()
        np.testing.assert_array_equal(pca_transform(model, X), np.zeros((6, 3)))


class TestTransform:
    def test_rows_equal_to_mean_map_to_zero(self, rng):
        X = rng.standard_normal((12, 3))
        model = pca_fit(X, d=3)
        same = np.tile(model.mean, (4, 1))
        np.testing.assert_allclose(pca_transform(model, same), 0.0, atol=1e-12)

    def test_full_rank_reconstruction(self, rng):
        X = rng.standard_normal((40, 5))
        model = pca_fit(X, d=5)
        Y = pca_transform(model, X)
        np.testing.assert_allclose(Y @ model.components + model.mean, X, atol=1e-8)

    def test_diagonal_fixture_projections(self):
        model = pca_fit(DIAGONAL_LINE, d=1)
        # explicit dot products: ((t,t) - 0) . (1/sqrt2, 1/sqrt2) = sqrt(2)*t
        expected = np.sqrt(2.0) * np.array([[1.0], [-1.0], [2.0], [-2.0]])
        np.testing.assert_allclose(pca_transform(model, DIAGONAL_LINE), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        model = pca_fit(np.eye(4), d=2)
        with pytest.raises(ValueError, match="columns"):
            pca_transform(model, np.ones((3, 5)))

    def test_distance_preservation_at_full_rank(self, rng):
        X = rng.standard_normal((20, 4))
        Y = pca_transform(pca_fit(X, d=4), X)
        dist_x = np.linalg.norm(X[:, None] - X[None, :], axis=2)
        dist_y = np.linalg.norm(Y[:, None] - Y[None, :], axis=2)
        np.testing.assert_allclose(dist_y, dist_x, atol=1e-6)


class TestExplainedVarianceRatio:
    def test_rank1(self):
        assert explained_variance_ratio(pca_fit(DIAGONAL_LINE, 1)).tolist() == [1.0]

    def test_constant_input_all_zero(self):
        model = pca_fit(np.full((5, 2), 3.0), d=2)
        assert explained_variance_ratio(model).tolist() == [0.0, 0.0]

    def test_isotropic_gaussian_splits_evenly(self):
        X = np.random.default_rng(7).standard_normal((400, 2))
        ratios = explained_variance_ratio(pca_fit(X, d=2))
        # oracle: the covariance trace splits between the two components
        assert abs(ratios[0] - 0.5) < 0.15 and abs(ratios[1] - 0.5) < 0.15
        assert ratios.sum() <= 1.0 + 1e-10

    def test_entries_in_unit_interval(self, rng):
        for _ in range(5):
            ratios = explained_variance_ratio(pca_fit(rng.standard_normal((15, 6)), 6))
            assert (ratios >= 0.0).all() and ratios.sum() <= 1.0 + 1e-10


def test_variance_optimality_against_random_projections(rng):
    X = rng.standard_normal((30, 5))
    model = pca_fit(X, d=1)
    top_variance = pca_transform(model, X).var(ddof=1)
    directions = rng.standard_normal((1000, 5))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    projected = (X - X.mean(axis=0)) @ directions.T
    assert top_variance >= projected.var(axis=0, ddof=1).max() - 1e-12


def test_repeated_fit_bitwise_identical(rng):
    X = rng.standard_normal((25, 6))
    a, b = pca_fit(X, d=4), pca_fit(X, d=4)
    assert a.components.tobytes() == b.components.tobytes()
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()

