import concurrent.futures
import importlib
import tracemalloc

import numpy as np
import pytest

from conftest import force_chunk_rows, force_row_blocks, path_edges, random_edge_pairs
from oracles import (
    dense_operator,
    dense_prepared_adjacency,
    embed_reference,
    hop_states_concatenating_reference,
    hop_states_reference,
)
from pcapass import (
    Aggregator,
    EdgeList,
    EmbedConfig,
    Method,
    aggregate,
    embed,
    hop_states,
    parallel,
    pca_fit,
    prepare,
)
from pcapass.embed import embeddings_from_csv, embeddings_to_csv

embed_module = importlib.import_module("pcapass.embed")


def cfg_for(method, k, d, aggregator=Aggregator.MEAN):
    return EmbedConfig(k=k, d=d, aggregator=aggregator, method=method)


class TestPcaPass:
    def test_zero_hops_returns_input(self, rng):
        g = prepare(EdgeList(4, path_edges(4)))
        X = rng.standard_normal((4, 3))
        result = embed(g, X, cfg_for(Method.PCAPASS, k=0, d=3))
        np.testing.assert_array_equal(result.embeddings, X)
        assert result.per_hop_models == []

    def test_constant_features_embed_to_zero(self):
        g = prepare(EdgeList(5, path_edges(5)))
        X = np.tile([2.0, -3.0], (5, 1))
        result = embed(g, X, cfg_for(Method.PCAPASS, k=3, d=2))
        np.testing.assert_allclose(result.embeddings, 0.0, atol=1e-12)

    def test_path_graph_matches_dense_recurrence(self, rng):
        pairs = path_edges(4)
        g = prepare(EdgeList(4, pairs))
        X = rng.standard_normal((4, 2))
        result = embed(g, X, cfg_for(Method.PCAPASS, k=2, d=2))
        ref = embed_reference(4, pairs, X, "pcapass", "mean", k=2, d=2)
        np.testing.assert_allclose(result.embeddings, ref[-1], atol=1e-8)

    @pytest.mark.parametrize("kind", ["mean", "symnorm"])
    def test_random_instances_match_oracle_hop_by_hop(self, kind, rng):
        for _ in range(20):
            n = int(rng.integers(17, 31))
            f = int(rng.integers(2, 9))
            d = int(rng.integers(1, f + 1))
            k = int(rng.integers(0, 5))
            pairs = random_edge_pairs(rng, n, int(rng.integers(0, 3 * n)))
            g = prepare(EdgeList(n, pairs))
            X = rng.standard_normal((n, f))
            cfg = cfg_for(Method.PCAPASS, k=k, d=d, aggregator=Aggregator(kind))
            states = [h for h, _ in hop_states(g, X, cfg)]
            ref = embed_reference(n, pairs, X, "pcapass", kind, k=k, d=d)
            assert len(states) == len(ref) == k
            for mine, theirs in zip(states, ref):
                np.testing.assert_allclose(mine, theirs, atol=1e-8)

    def test_width_is_exactly_d_once_f_at_least_d(self, rng):
        g = prepare(EdgeList(10, random_edge_pairs(rng, 10, 20)))
        X = rng.standard_normal((10, 6))
        cfg = cfg_for(Method.PCAPASS, k=4, d=4)
        for h, model in hop_states(g, X, cfg):
            assert h.shape == (10, 4)
            assert model.n_components == 4

    def test_warns_when_d_exceeds_reachable_width(self, rng):
        g = prepare(EdgeList(10, random_edge_pairs(rng, 10, 15)))
        X = rng.standard_normal((10, 2))
        with pytest.warns(RuntimeWarning, match="capped"):
            result = embed(g, X, cfg_for(Method.PCAPASS, k=1, d=8))
        assert result.embeddings.shape == (10, 4)

    def test_models_are_retained_per_hop(self, rng):
        g = prepare(EdgeList(8, random_edge_pairs(rng, 8, 12)))
        X = rng.standard_normal((8, 3))
        result = embed(g, X, cfg_for(Method.PCAPASS, k=3, d=3))
        assert len(result.per_hop_models) == 3


class TestSkipConnections:
    def test_zero_hops(self, rng):
        g = prepare(EdgeList(4, path_edges(4)))
        X = rng.standard_normal((4, 2))
        result = embed(g, X, cfg_for(Method.SKIP_CONNECTIONS, k=0, d=2))
        np.testing.assert_array_equal(result.embeddings, X)

    def test_constant_input_is_fixed_point(self):
        g = prepare(EdgeList(5, path_edges(5)))
        X = np.tile([1.5, -0.5], (5, 1))
        result = embed(g, X, cfg_for(Method.SKIP_CONNECTIONS, k=4, d=2))
        np.testing.assert_allclose(result.embeddings, X, atol=1e-12)

    def test_three_hops_equal_dense_matrix_power(self, rng):
        n = 7
        pairs = random_edge_pairs(rng, n, 12)
        g = prepare(EdgeList(n, pairs))
        X = rng.standard_normal((n, 3))
        result = embed(g, X, cfg_for(Method.SKIP_CONNECTIONS, k=3, d=3))
        P = dense_operator(dense_prepared_adjacency(n, pairs), "mean")
        lazy = (P + np.eye(n)) / 2.0
        np.testing.assert_allclose(
            result.embeddings, lazy @ lazy @ lazy @ X, atol=1e-10
        )
        assert result.per_hop_models == []


class TestDispatch:
    @pytest.mark.parametrize("method", list(Method))
    def test_feature_row_count_mismatch(self, method):
        g = prepare(EdgeList(3, path_edges(3)))
        message = r"^feature matrix must have 3 rows, got shape \(4, 2\)$"
        with pytest.raises(ValueError, match=message):
            embed(g, np.ones((4, 2)), cfg_for(method, k=1, d=2))

    def test_message_passing_is_repeated_aggregate(self, rng):
        g = prepare(EdgeList(6, random_edge_pairs(rng, 6, 10)))
        X = rng.standard_normal((6, 2))
        result = embed(g, X, cfg_for(Method.MESSAGE_PASSING, k=2, d=2))
        twice = aggregate(g, aggregate(g, X, Aggregator.MEAN), Aggregator.MEAN)
        np.testing.assert_allclose(result.embeddings, twice, atol=1e-12)


@pytest.mark.parametrize("aggregator", list(Aggregator))
def test_end_to_end_permutation_equivariance(aggregator, rng):
    n = 12
    pairs = random_edge_pairs(rng, n, 20)
    X = rng.standard_normal((n, 4))
    perm = rng.permutation(n)
    cfg = cfg_for(Method.PCAPASS, k=3, d=3, aggregator=aggregator)

    plain = embed(prepare(EdgeList(n, pairs)), X, cfg)
    X_perm = np.empty_like(X)
    X_perm[perm] = X
    relabeled = embed(prepare(EdgeList(n, perm[pairs])), X_perm, cfg)

    expected = np.empty_like(plain.embeddings)
    expected[perm] = plain.embeddings
    np.testing.assert_allclose(relabeled.embeddings, expected, atol=1e-8)
    for a, b in zip(plain.per_hop_models, relabeled.per_hop_models):
        np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, atol=1e-9)
        np.testing.assert_allclose(a.components, b.components, atol=1e-9)
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-9)


def test_embed_deterministic_bitwise(rng):
    g = prepare(EdgeList(9, random_edge_pairs(rng, 9, 16)))
    X = rng.standard_normal((9, 3))
    cfg = cfg_for(Method.PCAPASS, k=3, d=2)
    a = embed(g, X, cfg)
    b = embed(g, X, cfg)
    assert a.embeddings.tobytes() == b.embeddings.tobytes()
    for ma, mb in zip(a.per_hop_models, b.per_hop_models):
        assert ma.components.tobytes() == mb.components.tobytes()


class TestHopLoopBuffers:
    """The hop loop builds the operator weights in one buffer, fits and
    projects each pcapass hop from chunks of its concatenation without
    building it, and writes the new state into the aggregate's buffer. None
    of that may change a byte of a result or an input."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("aggregator", list(Aggregator))
    @pytest.mark.parametrize("method", list(Method))
    def test_same_bytes_as_the_reference_hop_loop(
        self, method, aggregator, k, dtype, rng, monkeypatch, f=5, d=4, chunk_rows=None
    ):
        # 120 rows are one chunk of the default size
        rows = force_chunk_rows(monkeypatch, chunk_rows)
        n = 120
        g = prepare(EdgeList(n, random_edge_pairs(rng, n, 3 * n)))
        X = rng.standard_normal((n, f)).astype(dtype)
        cfg = cfg_for(method, k=k, d=d, aggregator=aggregator)
        result = embed(g, X, cfg)
        states, models = hop_states_reference(g, X, method.value, aggregator.value, k, d, rows)

        for mine, theirs in zip([h for h, _ in hop_states(g, X, cfg)], states, strict=True):
            assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
        expected = states[-1] if states else X.astype(np.float64)
        assert result.embeddings.shape == expected.shape
        assert result.embeddings.tobytes() == expected.tobytes()
        assert len(result.per_hop_models) == len(models)
        for model, (mean, components, eigenvalues, total) in zip(result.per_hop_models, models):
            assert model.mean.tobytes() == mean.tobytes()
            assert model.components.shape == components.shape
            assert model.components.tobytes() == components.tobytes()
            assert model.eigenvalues.tobytes() == eigenvalues.tobytes()
            assert model.total_variance == total

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("aggregator", list(Aggregator))
    @pytest.mark.parametrize("method", list(Method))
    def test_same_bytes_in_row_blocks(self, method, aggregator, k, dtype, rng, monkeypatch):
        # the aggregate runs on two threads on any machine, and a pcapass
        # hop's 120 rows are four chunks
        force_row_blocks(monkeypatch, 7)
        force_block_threads(monkeypatch, 2)
        self.test_same_bytes_as_the_reference_hop_loop(
            method, aggregator, k, dtype, rng, monkeypatch, chunk_rows=32
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("aggregator", list(Aggregator))
    def test_same_bytes_in_row_blocks_with_one_column_halves(
        self, aggregator, k, dtype, rng, monkeypatch
    ):
        # f = d = 1: each half of the concatenation is one column wide, and
        # numpy sums a single column pairwise
        force_row_blocks(monkeypatch, 7)
        force_block_threads(monkeypatch, 2)
        self.test_same_bytes_as_the_reference_hop_loop(
            Method.PCAPASS, aggregator, k, dtype, rng, monkeypatch, f=1, d=1, chunk_rows=32
        )

    @pytest.mark.parametrize("blocks", [False, True])
    @pytest.mark.parametrize("f, d", [(5, 4), (1, 1)])
    @pytest.mark.parametrize("aggregator", list(Aggregator))
    def test_close_to_the_concatenating_hop_loop(self, aggregator, f, d, blocks, rng, monkeypatch):
        # fitting from chunks of the concatenation instead of the whole one
        # moves the states by rounding only
        if blocks:
            force_row_blocks(monkeypatch, 7)
            force_block_threads(monkeypatch, 2)
            force_chunk_rows(monkeypatch, 32)
        n, k = 120, 4
        g = prepare(EdgeList(n, random_edge_pairs(rng, n, 3 * n)))
        X = rng.standard_normal((n, f))
        cfg = cfg_for(Method.PCAPASS, k=k, d=d, aggregator=aggregator)
        states, models = hop_states_concatenating_reference(g, X, "pcapass", aggregator.value, k, d)
        for (mine, model), theirs, (_, _, eigenvalues, _) in zip(
            hop_states(g, X, cfg), states, models, strict=True
        ):
            scale = np.abs(theirs).max()
            np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-10 * scale)
            np.testing.assert_allclose(
                model.eigenvalues, eigenvalues, rtol=0, atol=1e-10 * eigenvalues[0]
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inputs_are_left_unchanged(self, dtype, rng):
        n = 60
        g = prepare(EdgeList(n, random_edge_pairs(rng, n, 150)))
        X = rng.standard_normal((n, 4)).astype(dtype)
        before = X.tobytes()
        for method in Method:
            for aggregator in Aggregator:
                for k in (0, 2):
                    result = embed(g, X, cfg_for(method, k=k, d=3, aggregator=aggregator))
                    assert not np.shares_memory(result.embeddings, X)
        for aggregator in Aggregator:
            aggregate(g, X, aggregator)
        pca_fit(X, 3)
        assert X.tobytes() == before

    def test_hop_peak_memory_is_a_few_states(self, rng, monkeypatch):
        # 20k nodes of mean degree about 21, with float32 features as
        # `load_dataset` returns them. A unit is one n x f float64 array, the
        # size of a hop state. A pcapass hop holds the previous state, the
        # aggregate and a chunk of rows, so every method peaks inside
        # `aggregate`. The one-block bounds hold only while `aggregate`
        # allocates its output after the first block's weights. In blocks of
        # 2^16 entries, which hold at most two blocks' weights instead of the
        # nnz-length ones, every method peaks lower. The blocks run on two
        # threads on any machine.
        n, f = 20_000, 16
        g = prepare(EdgeList(n, random_edge_pairs(rng, n, 10 * n)))
        X = rng.standard_normal((n, f)).astype(np.float32)
        whole = {Method.PCAPASS: 3.85, Method.MESSAGE_PASSING: 3.8, Method.SKIP_CONNECTIONS: 3.8}
        blocked = {Method.PCAPASS: 2.85, Method.MESSAGE_PASSING: 3.5, Method.SKIP_CONNECTIONS: 3.5}
        aggregate(g, X[:, :1], Aggregator.MEAN)  # import scipy.sparse untraced
        peaks, over = {}, []
        for path, bound in (("whole", whole), ("blocks", blocked)):
            if path == "blocks":
                force_row_blocks(monkeypatch, 1 << 16)
                force_block_threads(monkeypatch, 2)
            for method in Method:
                for aggregator in Aggregator:
                    tracemalloc.start()
                    try:
                        embed(g, X, cfg_for(method, k=2, d=f, aggregator=aggregator))
                        peak = tracemalloc.get_traced_memory()[1] / (n * f * 8)
                    finally:
                        tracemalloc.stop()
                    peaks[path, method.value, aggregator.value] = round(peak, 2)
                    if peak > bound[method]:
                        over.append((path, method.value, aggregator.value))
        assert not over, peaks


def force_block_threads(monkeypatch, threads):
    """Give the hop loop a budget of `threads` row-block threads on any
    machine, with OpenBLAS's own count left as it is."""
    monkeypatch.setattr(parallel, "_usable_cores", lambda: threads)
    monkeypatch.setattr(parallel, "_blas_threads", lambda: threads)
    monkeypatch.setattr(parallel, "_set_blas_threads", lambda count: None)


class TestBlockThreads:
    """Each hop runs its row blocks on OpenBLAS's threads, with OpenBLAS at 1
    thread during the hop; the caller's count is back at every yield."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """(threads, OpenBLAS's threads) of each `aggregate` the hop loop calls."""
        calls = []

        def spy(g, H, aggregator, threads):
            calls.append((threads, parallel._blas_threads()))
            return aggregate(g, H, aggregator, threads)

        monkeypatch.setattr(embed_module, "aggregate", spy)
        return calls

    def test_the_callers_count_is_restored(self, seen, set_openblas_threads, rng, monkeypatch):
        monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
        set_openblas_threads(2)
        g = prepare(EdgeList(300, random_edge_pairs(rng, 300, 900)))
        X = rng.standard_normal((300, 4))

        def fail(*args, **kwargs):
            raise RuntimeError("hop failed")

        for block_entries in (64, None):  # 64-entry row blocks, then one block
            with monkeypatch.context() as patch:
                if block_entries is not None:
                    force_row_blocks(patch, block_entries)
                for method in Method:
                    cfg = cfg_for(method, k=2, d=4)
                    for _ in hop_states(g, X, cfg):
                        assert parallel._blas_threads() == 2
                    embed(g, X, cfg)
                    assert parallel._blas_threads() == 2
                # the hop's fit fails, then its projection
                for name in ("pca_fit", "pca_transform"):
                    with monkeypatch.context() as failing:
                        failing.setattr(embed_module, name, fail)
                        with pytest.raises(RuntimeError, match="hop failed"):
                            embed(g, X, cfg_for(Method.PCAPASS, k=2, d=4))
                    assert parallel._blas_threads() == 2
        # each failing embed reached its first hop's aggregate
        assert seen == [(2, 1)] * 2 * (len(Method) * 2 * 2 + 2)

    @pytest.mark.parametrize("blas, block_entries", [(1, 64), (2, None)])
    def test_one_thread_or_one_block_runs_the_serial_path(
        self, blas, block_entries, seen, rng, monkeypatch
    ):
        # OpenBLAS at 1 thread, as in a pool worker that `_start_worker`
        # capped, or a graph of one block: every hop still sets OpenBLAS to 1
        # and back, and `aggregate` clamps its threads to 1, building no pool
        if block_entries is not None:
            force_row_blocks(monkeypatch, block_entries)
        monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
        counts_set = [blas]  # OpenBLAS's count, then each count set
        monkeypatch.setattr(parallel, "_blas_threads", lambda: counts_set[-1])
        monkeypatch.setattr(parallel, "_set_blas_threads", counts_set.append)

        def no_pool(*args, **kwargs):
            raise AssertionError("aggregate built a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        g = prepare(EdgeList(300, random_edge_pairs(rng, 300, 900)))
        embed(g, rng.standard_normal((300, 4)), cfg_for(Method.PCAPASS, k=2, d=4))
        assert seen == [(blas, 1), (blas, 1)]
        assert counts_set == [blas, 1, blas, 1, blas]


class TestEmbeddingFiles:
    def test_csv_roundtrip(self, rng, tmp_path):
        H = rng.standard_normal((5, 3))
        (tmp_path / "embeddings.csv").write_text(embeddings_to_csv(H))
        restored = embeddings_from_csv(tmp_path / "embeddings.csv")
        # 9 significant digits: exact at float32 precision
        np.testing.assert_array_equal(
            restored.astype(np.float32), H.astype(np.float32)
        )
