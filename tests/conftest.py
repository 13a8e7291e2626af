import importlib

import numpy as np
import pytest

from pcapass import EdgeList, prepare


def path_edges(n):
    return np.array([[i, i + 1] for i in range(n - 1)], dtype=np.int64)


def prepared_path(n):
    return prepare(EdgeList(n, path_edges(n)))


def random_edge_pairs(rng, n, m):
    return rng.integers(0, n, size=(m, 2)).astype(np.int64)


def force_row_blocks(monkeypatch, block_entries):
    """Make `aggregate` cut every graph into row blocks of `block_entries`
    CSR entries, however small the graph."""
    module = importlib.import_module("pcapass.aggregate")
    monkeypatch.setattr(module, "_BLOCK_ENTRIES", block_entries)
    return module


def force_chunk_rows(monkeypatch, rows):
    """Make a fit or projection of two column blocks take chunks of `rows`
    rows; returns the chunk size in force."""
    module = importlib.import_module("pcapass.pca")
    if rows is not None:
        monkeypatch.setattr(module, "_CHUNK_ROWS", rows)
    return module._CHUNK_ROWS


def force_draw_values(monkeypatch, values):
    """Make `generate_sbm` draw its edge sampler's uniform values `values` at
    a time; returns the piece size in force."""
    module = importlib.import_module("pcapass.datasets")
    if values is not None:
        monkeypatch.setattr(module, "_DRAW", values)
    return module._DRAW


def blob_data(seed=0, n_train=200, n_valid=100, n_test=100):
    """Two well-separated Gaussian blobs; linearly separable with margin."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [4.0, 4.0]])
    total = n_train + n_valid + n_test
    y = rng.integers(0, 2, size=total)
    X = centers[y] + rng.standard_normal((total, 2))
    sl_tr = slice(0, n_train)
    sl_va = slice(n_train, n_train + n_valid)
    sl_te = slice(n_train + n_valid, total)
    return (X[sl_tr], y[sl_tr]), (X[sl_va], y[sl_va]), (X[sl_te], y[sl_te])


def xor_data(seed=0, n=400):
    """Four tight clusters at (+-1, +-1); label is the sign disagreement."""
    rng = np.random.default_rng(seed)
    corners = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=np.float64)
    which = rng.integers(0, 4, size=n)
    X = corners[which] + 0.2 * rng.standard_normal((n, 2))
    y = (corners[which, 0] * corners[which, 1] < 0).astype(np.int64)
    return X, y


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def set_openblas_threads():
    """`parallel._set_blas_threads`, for one test: the test is skipped where
    numpy's BLAS has no OpenBLAS setter, and the count it found is restored
    after it."""
    parallel = importlib.import_module("pcapass.parallel")
    if parallel._openblas_function(parallel._OPENBLAS_SET_THREADS) is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread-count call")
    before = parallel._blas_threads()
    yield parallel._set_blas_threads
    parallel._set_blas_threads(before)
