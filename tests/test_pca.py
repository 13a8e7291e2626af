import numpy as np
import pytest

from conftest import force_chunk_rows
from oracles import (
    jacobi_eigendecomposition,
    pca_fit_halves_reference,
    pca_transform_halves_reference,
)
from pcapass import explained_variance_ratio, pca_fit, pca_transform
from pcapass.parallel import _blas_threads

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


def test_same_bytes_at_one_and_two_openblas_threads(rng, set_openblas_threads):
    # the hop loop fits and projects with OpenBLAS at 1 thread, where its
    # caller may have it at 2
    X = rng.standard_normal((100_000, 32))
    results = []
    for threads in (1, 2):
        set_openblas_threads(threads)
        assert _blas_threads() == threads
        model = pca_fit(X, 16)
        halves = pca_fit(X[:, :16], 16, right=X[:, 16:])
        results.append([a.tobytes() for a in (model.mean, model.components, model.eigenvalues,
                                              pca_transform(model, X), halves.components,
                                              pca_transform(halves, X[:, :16], right=X[:, 16:]))])
    assert results[0] == results[1]


class TestTwoColumnBlocks:
    """`pca_fit(X, d, right=R)` and `pca_transform(model, X, right=R)` fit
    and project the concatenation [X, R] without building it: the Gram
    matrix is summed over chunks of rows, and the projection runs chunk by
    chunk."""

    @pytest.mark.parametrize("chunk_rows", [None, 7])
    @pytest.mark.parametrize(
        "n, f1, f2, d, constant",
        [
            (50, 3, 3, 4, ()),
            (5, 6, 6, 3, ()),  # n < f
            (40, 2, 1, 7, ()),  # d > f
            (30, 1, 1, 1, ()),  # one-column halves
            (2, 4, 4, 4, ()),  # the fewest rows
            (60, 3, 2, 5, (1, 3)),  # constant columns
            (20_000, 16, 16, 16, ()),
        ],
    )
    def test_the_chunked_reference_bitwise_and_the_whole_fit_closely(
        self, n, f1, f2, d, constant, chunk_rows, rng, monkeypatch
    ):
        rows = force_chunk_rows(monkeypatch, chunk_rows)
        scale = rng.uniform(0.1, 10.0, f1 + f2)
        Z = rng.standard_normal((n, f1 + f2)) * scale + rng.standard_normal(f1 + f2)
        Z[:, list(constant)] = 2.5
        X, R = Z[:, :f1].copy(), Z[:, f1:].copy()
        before = (X.tobytes(), R.tobytes())
        model = pca_fit(X, d, right=R)
        projected = pca_transform(model, X, right=R)
        assert (X.tobytes(), R.tobytes()) == before

        mean, components, eigenvalues, total = pca_fit_halves_reference(X, R, d, rows)
        assert model.mean.tobytes() == mean.tobytes()
        assert model.components.shape == components.shape
        assert model.components.tobytes() == components.tobytes()
        assert model.eigenvalues.tobytes() == eigenvalues.tobytes()
        assert model.total_variance == total
        expected = pca_transform_halves_reference(X, R, mean, components, rows)
        assert projected.tobytes() == expected.tobytes()

        # the fit of the built concatenation, up to rounding
        whole = pca_fit(Z, d)
        np.testing.assert_allclose(
            model.eigenvalues, whole.eigenvalues, rtol=1e-10, atol=1e-12 * whole.eigenvalues[0]
        )
        assert model.total_variance == pytest.approx(whole.total_variance, rel=1e-12)
        np.testing.assert_allclose(
            projected, pca_transform(whole, Z), rtol=0, atol=1e-10 * np.abs(Z).max()
        )

    @pytest.mark.parametrize("chunk_rows", [None, 7])
    @pytest.mark.parametrize("n, f, d", [(50, 6, 4), (5, 12, 3), (30, 1, 1), (20_000, 32, 16)])
    def test_one_block_is_the_chunked_reference_of_no_right_columns(
        self, n, f, d, chunk_rows, rng, monkeypatch
    ):
        # a fit of one matrix sums its Gram matrix over the same chunks
        rows = force_chunk_rows(monkeypatch, chunk_rows)
        X = rng.standard_normal((n, f)) * rng.uniform(0.1, 10.0, f) + rng.standard_normal(f)
        before = X.tobytes()
        model = pca_fit(X, d)
        projected = pca_transform(model, X)
        assert X.tobytes() == before
        nothing = np.empty((n, 0))
        mean, components, eigenvalues, total = pca_fit_halves_reference(X, nothing, d, rows)
        assert model.mean.tobytes() == mean.tobytes()
        assert model.components.tobytes() == components.tobytes()
        assert model.eigenvalues.tobytes() == eigenvalues.tobytes()
        assert model.total_variance == total
        expected = pca_transform_halves_reference(X, nothing, mean, components, rows)
        assert projected.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("chunk_rows", [None, 7])
    @pytest.mark.parametrize("n, f", [(50, 3), (30, 1), (20_000, 16)])
    def test_a_projection_into_the_left_block_has_the_same_bytes(
        self, n, f, chunk_rows, rng, monkeypatch
    ):
        force_chunk_rows(monkeypatch, chunk_rows)
        X, R = rng.standard_normal((n, f)), rng.standard_normal((n, f))
        model = pca_fit(X, f, right=R)
        expected = pca_transform(model, X, right=R)
        assert pca_transform(model, X, right=R, out=X) is X
        assert X.tobytes() == expected.tobytes()
        # and a projection of one whole matrix into it
        Z = np.hstack((X, R))
        whole = pca_fit(Z, f)
        expected = pca_transform(whole, Z)
        assert pca_transform(whole, Z, out=X) is X
        assert X.tobytes() == expected.tobytes()

    def test_jacobi_eigensolve_of_the_concatenation(self, rng):
        X, R = rng.standard_normal((20, 3)), rng.standard_normal((20, 3))
        model = pca_fit(X, d=3, right=R)
        ref_evals, ref_vectors = jacobi_eigendecomposition(np.cov(np.hstack((X, R)), rowvar=False))
        np.testing.assert_allclose(model.eigenvalues, ref_evals[:3], atol=1e-8)
        np.testing.assert_allclose(model.components, ref_vectors[:3], atol=1e-8)

    def test_bad_shapes_raise(self, rng):
        X, R = rng.standard_normal((10, 3)), rng.standard_normal((10, 2))
        with pytest.raises(ValueError, match="same rows"):
            pca_fit(X, 2, right=R[:9])
        with pytest.raises(ValueError, match="same rows"):
            pca_fit(X, 2, right=R[:, 0])
        with pytest.raises(ValueError, match="at least 2 rows"):
            pca_fit(X[:1], 2, right=R[:1])
        with pytest.raises(ValueError, match=">= 1"):
            pca_fit(X, 0, right=R)
        model = pca_fit(X, 2, right=R)
        with pytest.raises(ValueError, match="columns"):
            pca_transform(model, X, right=X)
        with pytest.raises(ValueError, match="same rows"):
            pca_transform(model, X, right=R[:9])
        # `out` must hold exactly the projection, in float64
        for out in [
            np.empty((11, 2)),  # more rows than X
            np.empty((10, 2), dtype=np.float32),
            X,  # a column wider than the projection
            np.empty((10, 2)).tolist(),
        ]:
            with pytest.raises(ValueError, match="out must be a float64 array of shape"):
                pca_transform(model, X, right=R, out=out)
        Z = np.hstack((X, R))
        with pytest.raises(ValueError, match="out must be a float64 array of shape"):
            pca_transform(pca_fit(Z, 2), Z, out=np.empty((9, 2)))
        # the converted copy of a float32 X is not X's buffer
        X32 = X.astype(np.float32)
        with pytest.raises(ValueError, match="out must be"):
            pca_transform(pca_fit(X32, 3, right=R), X32, right=R, out=X32)


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

