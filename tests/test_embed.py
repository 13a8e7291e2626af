import numpy as np
import pytest

from conftest import path_edges, random_edge_pairs
from oracles import dense_operator, dense_prepared_adjacency, embed_reference
from pcapass import (
    Aggregator,
    EdgeList,
    EmbedConfig,
    Method,
    aggregate,
    embed,
    hop_states,
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


def test_end_to_end_permutation_equivariance(rng):
    n = 12
    pairs = random_edge_pairs(rng, n, 20)
    X = rng.standard_normal((n, 4))
    perm = rng.permutation(n)
    cfg = cfg_for(Method.PCAPASS, k=3, d=3)

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


class TestEmbeddingFiles:
    def test_csv_roundtrip(self, rng):
        H = rng.standard_normal((5, 3))
        restored = embeddings_from_csv(embeddings_to_csv(H))
        # 9 significant digits: exact at float32 precision
        np.testing.assert_array_equal(
            restored.astype(np.float32), H.astype(np.float32)
        )
