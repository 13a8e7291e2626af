import tracemalloc

import numpy as np
import pytest

from conftest import force_row_blocks, path_edges, random_edge_pairs
from oracles import (
    dense_operator,
    dense_prepared_adjacency,
    embed_reference,
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
    pca_fit,
    prepare,
)
from pcapass.embed import embeddings_from_csv, embeddings_to_csv


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
    """The hop loop builds the operator weights in one buffer and drops each
    aggregate once it is concatenated. Neither may change a byte of a result
    or an input."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("aggregator", list(Aggregator))
    @pytest.mark.parametrize("method", list(Method))
    def test_same_bytes_as_the_two_copy_hop_loop(self, method, aggregator, k, dtype, rng):
        n, f, d = 120, 5, 4
        g = prepare(EdgeList(n, random_edge_pairs(rng, n, 3 * n)))
        X = rng.standard_normal((n, f)).astype(dtype)
        cfg = cfg_for(method, k=k, d=d, aggregator=aggregator)
        result = embed(g, X, cfg)
        states, models = hop_states_reference(g, X, method.value, aggregator.value, k, d)

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
        force_row_blocks(monkeypatch, 7)
        self.test_same_bytes_as_the_two_copy_hop_loop(method, aggregator, k, dtype, rng)

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
        # size of a hop state. The one-block bound of the plain methods holds
        # only while `aggregate` allocates its output after the first block's
        # weights. In blocks of 2^16 entries, which hold one block's weights
        # instead of the nnz-length ones, the plain methods peak lower.
        n, f = 20_000, 16
        g = prepare(EdgeList(n, random_edge_pairs(rng, n, 10 * n)))
        X = rng.standard_normal((n, f)).astype(np.float32)
        whole = {Method.PCAPASS: 7.0, Method.MESSAGE_PASSING: 3.8, Method.SKIP_CONNECTIONS: 3.8}
        blocked = {Method.PCAPASS: 7.0, Method.MESSAGE_PASSING: 3.5, Method.SKIP_CONNECTIONS: 3.5}
        aggregate(g, X[:, :1], Aggregator.MEAN)  # import scipy.sparse untraced
        peaks, over = {}, []
        for path, bound in (("whole", whole), ("blocks", blocked)):
            if path == "blocks":
                force_row_blocks(monkeypatch, 1 << 16)
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


class TestEmbeddingFiles:
    def test_csv_roundtrip(self, rng):
        H = rng.standard_normal((5, 3))
        restored = embeddings_from_csv(embeddings_to_csv(H))
        # 9 significant digits: exact at float32 precision
        np.testing.assert_array_equal(
            restored.astype(np.float32), H.astype(np.float32)
        )
