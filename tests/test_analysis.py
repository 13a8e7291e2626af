import math
import tracemalloc

import numpy as np
import pytest

import pcapass.analysis as analysis_module
from pcapass import (
    EmbedConfig,
    Method,
    SbmParams,
    SearchSpace,
    generate_sbm,
    hop_states,
    hpo_summary,
    kmeans,
    normalize_scores,
    oversmoothing_sweep,
    pearson_correlation,
    random_search,
    standardize,
    v_measure,
)
from pcapass.cli import main


def small_sbm(seed=0, n=200, classes=2):
    params = SbmParams(
        n_nodes=n,
        n_classes=classes,
        p_in=0.10,
        p_out=0.005,
        n_features=8,
        feature_signal=1.0,
        seed=seed,
    )
    return generate_sbm(params)


def tiny_space():
    return SearchSpace(
        k=(1, 3),
        d=(2, 8),
        learning_rate=(0.05, 0.3),
        max_depth=(2, 4),
        reg_lambda=(0.5, 2.0),
        subsample=(0.7, 1.0),
        aggregators=("mean",),
        n_rounds=25,
        patience=5,
    )


class TestNormalizeScores:
    def test_divides_by_max(self):
        out = normalize_scores([0.2, 0.4, 0.1])
        np.testing.assert_allclose(out, [0.5, 1.0, 0.25])
        assert out.max() == 1.0

    def test_constant_scores_normalize_to_ones(self):
        np.testing.assert_array_equal(normalize_scores([0.3, 0.3, 0.3]), 1.0)
        np.testing.assert_array_equal(normalize_scores([0.0, 0.0]), 1.0)

    def test_normalization_preserves_argmax(self, rng):
        raw = rng.uniform(0.01, 1.0, size=12)
        assert np.argmax(normalize_scores(raw)) == np.argmax(raw)


class TestOversmoothingSweep:
    def test_message_passing_peaks_early_then_decays(self):
        ds = small_sbm(seed=1)
        (res,) = oversmoothing_sweep(
            ds.graph, ds.X, ds.y, [Method.MESSAGE_PASSING], max_hops=20, seed=0
        )
        assert res.v_measures.shape == (20,)
        assert res.normalized.max() == 1.0
        assert res.argmax_k == int(np.argmax(res.v_measures)) + 1
        # repeated averaging on a connected graph pulls rows together, so the
        # best hop comes early and the tail falls well below it
        assert res.argmax_k <= 10
        assert res.v_measures[-1] <= res.v_measures[res.argmax_k - 1]

    def test_pcapass_peak_is_no_earlier_than_message_passing(self):
        wins = 0
        for seed in range(5):
            ds = small_sbm(seed=seed)
            results = oversmoothing_sweep(
                ds.graph,
                ds.X,
                ds.y,
                [Method.PCAPASS, Method.MESSAGE_PASSING],
                max_hops=10,
                seed=seed,
            )
            if results[0].argmax_k >= results[1].argmax_k:
                wins += 1
        assert wins >= 3

    def test_memory_does_not_grow_with_hops(self):
        # each hop is scored as it is produced, so the peak holds a few hop
        # states whatever the hop count
        ds = small_sbm(seed=2, n=400)

        def peak(max_hops):
            tracemalloc.start()
            try:
                oversmoothing_sweep(
                    ds.graph, ds.X, ds.y, [Method.MESSAGE_PASSING], max_hops=max_hops
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40) < 1.5 * peak(2)

    def test_cell_seed_is_seed_xor_cell_index(self):
        ds = small_sbm(seed=3, n=120, classes=3)
        methods, max_hops, seed = [Method.PCAPASS, Method.SKIP_CONNECTIONS], 4, 11
        results = oversmoothing_sweep(ds.graph, ds.X, ds.y, methods, max_hops, seed=seed)
        mi = 1
        cfg = EmbedConfig(k=max_hops, d=ds.X.shape[1], method=methods[mi])
        for ki, (h, _) in enumerate(hop_states(ds.graph, ds.X, cfg)):
            assign = kmeans(standardize(h), 3, seed=seed ^ (mi * max_hops + ki))
            assert results[mi].v_measures[ki] == v_measure(ds.y, assign)

    def test_k_clusters_defaults_to_label_count(self):
        ds = small_sbm(seed=4, n=120, classes=3)
        (res,) = oversmoothing_sweep(
            ds.graph, ds.X, ds.y, [Method.MESSAGE_PASSING], max_hops=3, seed=0
        )
        assert res.v_measures.shape == (3,)

    def test_rejects_a_negative_cluster_count(self):
        ds = small_sbm(seed=4, n=60)
        with pytest.raises(ValueError, match="k_clusters must be >= 0, got -3"):
            oversmoothing_sweep(
                ds.graph, ds.X, ds.y, [Method.PCAPASS], max_hops=1, k_clusters=-3
            )

    def test_rejects_zero_hops(self):
        ds = small_sbm(seed=4, n=60)
        with pytest.raises(ValueError):
            oversmoothing_sweep(ds.graph, ds.X, ds.y, [Method.PCAPASS], max_hops=0)


class TestRandomSearch:
    def test_single_run(self):
        ds = small_sbm(seed=5, n=150)
        records = random_search(tiny_space(), 1, seed=0, dataset=ds)
        assert len(records) == 1
        assert math.isfinite(records[0].valid_ce)
        assert 0.0 <= records[0].test_accuracy <= 1.0

    def test_fixed_seed_reproduces_records(self):
        ds = small_sbm(seed=5, n=150)
        a = random_search(tiny_space(), 4, seed=9, dataset=ds)
        b = random_search(tiny_space(), 4, seed=9, dataset=ds)
        assert [r.params for r in a] == [r.params for r in b]
        assert [r.valid_ce for r in a] == [r.valid_ce for r in b]
        assert [r.test_accuracy for r in a] == [r.test_accuracy for r in b]

    def test_failed_runs_recorded_with_infinite_loss(self, monkeypatch):
        ds = small_sbm(seed=5, n=150)

        def boom(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(analysis_module, "gbdt_train", boom)
        records = random_search(tiny_space(), 3, seed=0, dataset=ds)
        assert len(records) == 3
        assert all(math.isinf(r.valid_ce) for r in records)
        assert all(r.test_accuracy == 0.0 for r in records)

    def test_sampled_params_respect_space(self):
        ds = small_sbm(seed=7, n=150)
        space = tiny_space()
        for rec in random_search(space, 6, seed=1, dataset=ds):
            p = rec.params
            assert space.k[0] <= p["k"] <= space.k[1]
            assert space.d[0] <= p["d"] <= space.d[1]
            assert space.learning_rate[0] <= p["learning_rate"] <= space.learning_rate[1]
            assert space.max_depth[0] <= p["max_depth"] <= space.max_depth[1]
            assert p["aggregator"] in space.aggregators


class TestHpoSummary:
    def test_summary_matches_direct_pearson(self):
        ds = small_sbm(seed=8, n=150)
        records = random_search(tiny_space(), 6, seed=3, dataset=ds)
        summary = hpo_summary(records)
        expected = pearson_correlation(
            [r.valid_ce for r in records], [r.test_accuracy for r in records]
        )
        assert summary["pearson_valid_ce_vs_test_accuracy"] == pytest.approx(expected)
        best = min(range(len(records)), key=lambda i: (records[i].valid_ce, i))
        assert summary["best_run"] == best
        assert summary["n_failed"] == 0

    def test_summary_with_failures_only(self):
        from pcapass import HpoRecord

        records = [HpoRecord({}, math.inf, 0.0) for _ in range(3)]
        summary = hpo_summary(records)
        assert summary["n_failed"] == 3
        assert summary["best_run"] is None
        assert summary["pearson_valid_ce_vs_test_accuracy"] is None


def test_threads_below_one_still_exits_2(tmp_path, capsys):
    # the threads key has no effect, but its range check is kept
    assert main(["sweep", "--threads", "0", "--out", str(tmp_path)]) == 2
    assert "threads must be >= 1" in capsys.readouterr().err
