import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import force_row_blocks, prepared_path, random_edge_pairs
from oracles import aggregate_reference, dense_operator, dense_prepared_adjacency
from pcapass import Aggregator, EdgeList, EmbedConfig, Method, aggregate, embed, prepare
from scipy.sparse import _sparsetools as sparsetools


def message_passing(g, H, k):
    """k hops of mean aggregation, as `embed` runs them."""
    cfg = EmbedConfig(k=k, d=H.shape[1], method=Method.MESSAGE_PASSING)
    return embed(g, H, cfg).embeddings


class TestAggregate:
    def test_mean_two_nodes(self):
        g = prepare(EdgeList(2, np.array([[0, 1]])))
        out = aggregate(g, np.array([[0.0], [2.0]]), Aggregator.MEAN)
        np.testing.assert_allclose(out, [[1.0], [1.0]])

    def test_mean_fixed_point_on_constant_columns(self, rng):
        g = prepare(EdgeList(5, random_edge_pairs(rng, 5, 8)))
        H = np.tile([3.0, -1.0, 0.5], (5, 1))
        np.testing.assert_allclose(aggregate(g, H, Aggregator.MEAN), H, atol=1e-12)

    def test_symnorm_path_hand_values(self):
        g = prepared_path(3)  # degrees [2, 3, 2]
        out = aggregate(g, np.array([[1.0], [0.0], [0.0]]), Aggregator.SYM_NORM)
        np.testing.assert_allclose(
            out, [[0.5], [1.0 / np.sqrt(6.0)], [0.0]], atol=1e-15
        )

    @pytest.mark.parametrize("kind", ["mean", "symnorm"])
    def test_matches_dense_oracle(self, kind, rng):
        for _ in range(20):
            n = int(rng.integers(2, 50))
            pairs = random_edge_pairs(rng, n, int(rng.integers(0, 3 * n)))
            g = prepare(EdgeList(n, pairs))
            H = rng.standard_normal((n, int(rng.integers(1, 6))))
            dense = dense_operator(dense_prepared_adjacency(n, pairs), kind) @ H
            np.testing.assert_allclose(
                aggregate(g, H, Aggregator(kind)), dense, atol=1e-10
            )

    def test_row_count_mismatch(self):
        g = prepared_path(3)
        with pytest.raises(ValueError, match="rows"):
            aggregate(g, np.ones((4, 2)), Aggregator.MEAN)


def star_graph(n):
    """Node 0 joined to every other node: its row holds all n entries."""
    return prepare(EdgeList(n, np.array([[0, v] for v in range(1, n)]).reshape(-1, 2)))


class TestRowBlocks:
    """Every graph is aggregated in row blocks, each multiplied by scipy's CSR
    kernel straight into its rows of the output. At any block size and
    thread count, the blocks must give the bytes of `csr_matrix @ H`, which
    also pins the private kernel: a scipy change that alters it fails here."""

    @pytest.mark.parametrize("width", [1, 5, 16])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("aggregator", list(Aggregator))
    @pytest.mark.parametrize("block_entries", [1, 7, 64, None])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_same_bytes_as_the_whole_operator(
        self, threads, block_entries, aggregator, dtype, width, rng, monkeypatch
    ):
        # width 1 is the case where `csr_matrix @ H` runs `csr_matvec`, not
        # `csr_matvecs`; None is the module's own block size
        graphs = [
            prepare(EdgeList(0, np.empty((0, 2)))),
            prepare(EdgeList(1, np.empty((0, 2)))),
            prepare(EdgeList(120, random_edge_pairs(rng, 120, 360))),
            star_graph(100),  # a hub row longer than every block
        ]
        inputs = [rng.standard_normal((g.n_nodes, width)).astype(dtype) for g in graphs]
        expected = [aggregate_reference(g, X, aggregator.value) for g, X in zip(graphs, inputs)]
        if block_entries is not None:
            force_row_blocks(monkeypatch, block_entries)
        for g, X, whole in zip(graphs, inputs, expected):
            out = aggregate(g, X, aggregator, threads)
            assert out.shape == whole.shape and out.dtype == whole.dtype
            assert out.tobytes() == whole.tobytes()

    def test_cuts_follow_rows(self, rng, monkeypatch):
        agg_module = force_row_blocks(monkeypatch, 64)
        g = prepare(EdgeList(300, random_edge_pairs(rng, 300, 1500)))
        hub = star_graph(200)
        for graph in (g, hub):
            cuts = agg_module._row_blocks(graph)
            assert cuts[0] == 0 and cuts[-1] == graph.n_nodes and (np.diff(cuts) > 0).all()
            assert cuts.size - 1 <= math.ceil(graph.n_entries / 64)
        assert agg_module._row_blocks(hub)[1] == 1  # the hub row is one block

        monkeypatch.undo()  # the module's own size: this graph is one block
        assert agg_module._row_blocks(g).tolist() == [0, g.n_nodes]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("where", ["weights", "kernel"])
    def test_a_failing_block_raises(self, where, threads, rng, monkeypatch):
        # every block past row 100 fails, in the weights built on the calling
        # thread or in the kernel run on a worker thread
        agg_module = force_row_blocks(monkeypatch, 16)
        g = prepare(EdgeList(200, random_edge_pairs(rng, 200, 600)))
        first = next(r0 for r0 in agg_module._row_blocks(g).tolist() if r0 > 100)
        weights = agg_module._weights
        kernel = sparsetools.csr_matvecs

        def fail_late_weights(g, deg, aggregator, r0, r1):
            if r0 > 100:
                raise RuntimeError(f"block at row {r0} failed")
            return weights(g, deg, aggregator, r0, r1)

        def fail_late_kernels(n_rows, n_cols, n_vecs, indptr, cols, data, x, y):
            r0 = (y.ctypes.data - y.base.ctypes.data) // (8 * n_vecs)  # y is out[r0:r1]
            if r0 > 100:
                raise RuntimeError(f"block at row {r0} failed")
            kernel(n_rows, n_cols, n_vecs, indptr, cols, data, x, y)

        if where == "weights":
            monkeypatch.setattr(agg_module, "_weights", fail_late_weights)
        else:
            monkeypatch.setattr(sparsetools, "csr_matvecs", fail_late_kernels)
        alive = threading.enumerate()
        with pytest.raises(RuntimeError, match=f"^block at row {first} failed$"):
            aggregate(g, rng.standard_normal((200, 3)), Aggregator.SYM_NORM, threads)
        assert threading.enumerate() == alive


    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_kernels_run_on_at_most_threads_workers(self, threads, rng, monkeypatch):
        # however slow the kernels, the calling thread builds a block's
        # weights only while fewer than `threads` built blocks wait for theirs
        agg_module = force_row_blocks(monkeypatch, 64)
        g = prepare(EdgeList(200, random_edge_pairs(rng, 200, 600)))
        X = rng.standard_normal((200, 3))
        whole = aggregate_reference(g, X, "mean")  # before its kernel is patched
        weights, kernel = agg_module._weights, sparsetools.csr_matvecs
        built, done, waiting, workers = [], set(), [], set()

        def count_waiting(g, deg, aggregator, r0, r1):
            waiting.append(len([r for r in built if r not in done]))
            built.append(r0)
            return weights(g, deg, aggregator, r0, r1)

        def slow_kernel(n_rows, n_cols, n_vecs, indptr, cols, data, x, y):
            time.sleep(0.005)
            kernel(n_rows, n_cols, n_vecs, indptr, cols, data, x, y)
            workers.add(threading.get_ident())
            done.add((y.ctypes.data - y.base.ctypes.data) // (8 * n_vecs))

        monkeypatch.setattr(agg_module, "_weights", count_waiting)
        monkeypatch.setattr(sparsetools, "csr_matvecs", slow_kernel)
        out = aggregate(g, X, Aggregator.MEAN, threads)
        assert out.tobytes() == whole.tobytes()
        assert len(built) > 3 * threads and max(waiting) == threads - 1
        if threads == 1:
            assert workers == {threading.get_ident()}
        else:
            assert threading.get_ident() not in workers and len(workers) <= threads


class TestAggregateK:
    """k hops of aggregation: `embed` with the message_passing method."""

    def test_zero_hops_is_identity(self, rng):
        g = prepared_path(4)
        H = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(message_passing(g, H, 0), H)

    def test_two_hops_is_composition(self, rng):
        g = prepared_path(3)
        H = rng.standard_normal((3, 2))
        twice = aggregate(g, aggregate(g, H, Aggregator.MEAN), Aggregator.MEAN)
        np.testing.assert_allclose(message_passing(g, H, 2), twice, atol=1e-12)

    def test_fifty_hops_reaches_degree_weighted_limit(self, rng):
        # well-connected 5-node graph: cycle plus chords mixes fast
        pairs = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [0, 2], [1, 3]])
        g = prepare(EdgeList(5, pairs))
        H = rng.standard_normal((5, 2))
        out = message_passing(g, H, 50)

        # oracle: power iteration of the dense operator
        P = dense_operator(dense_prepared_adjacency(5, pairs), "mean")
        dense = H.copy()
        for _ in range(50):
            dense = P @ dense
        np.testing.assert_allclose(out, dense, atol=1e-10)

        # the walk's stationary distribution weights rows by degree
        deg = dense_prepared_adjacency(5, pairs).sum(axis=1)
        limit = (deg / deg.sum()) @ H
        np.testing.assert_allclose(out, np.tile(limit, (5, 1)), atol=1e-6)

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            message_passing(prepared_path(3), np.ones((3, 1)), -1)


@given(st.randoms(use_true_random=False), st.sampled_from(["mean", "symnorm"]))
@settings(max_examples=30)
def test_permutation_equivariance(rnd, kind):
    rng = np.random.default_rng(rnd.randrange(2**32))
    n = rng.integers(2, 15)
    pairs = random_edge_pairs(rng, n, int(rng.integers(0, 2 * n)))
    H = rng.standard_normal((n, 3))
    perm = rng.permutation(n)
    g = prepare(EdgeList(n, pairs))
    g_perm = prepare(EdgeList(n, perm[pairs]))
    H_perm = np.empty_like(H)
    H_perm[perm] = H
    out = aggregate(g, H, Aggregator(kind))
    out_perm = aggregate(g_perm, H_perm, Aggregator(kind))
    expected = np.empty_like(out)
    expected[perm] = out
    np.testing.assert_allclose(out_perm, expected, atol=1e-10)


@given(st.randoms(use_true_random=False))
@settings(max_examples=30)
def test_mean_output_within_column_bounds(rnd):
    rng = np.random.default_rng(rnd.randrange(2**32))
    n = rng.integers(2, 20)
    pairs = random_edge_pairs(rng, n, int(rng.integers(0, 3 * n)))
    g = prepare(EdgeList(n, pairs))
    H = rng.uniform(-5, 5, size=(n, 4))
    out = aggregate(g, H, Aggregator.MEAN)
    eps = 1e-12
    assert (out.min(axis=0) >= H.min(axis=0) - eps).all()
    assert (out.max(axis=0) <= H.max(axis=0) + eps).all()


@given(st.randoms(use_true_random=False), st.sampled_from(["mean", "symnorm"]))
@settings(max_examples=30)
def test_linearity(rnd, kind):
    rng = np.random.default_rng(rnd.randrange(2**32))
    n = rng.integers(2, 15)
    pairs = random_edge_pairs(rng, n, int(rng.integers(0, 2 * n)))
    g = prepare(EdgeList(n, pairs))
    H1 = rng.standard_normal((n, 3))
    H2 = rng.standard_normal((n, 3))
    alpha, beta = rng.uniform(-2, 2, size=2)
    lhs = aggregate(g, alpha * H1 + beta * H2, Aggregator(kind))
    rhs = alpha * aggregate(g, H1, Aggregator(kind)) + beta * aggregate(
        g, H2, Aggregator(kind)
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)
