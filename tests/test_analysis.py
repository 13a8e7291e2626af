import importlib
import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

import pcapass.analysis as analysis_module
import pcapass.parallel as parallel_module
from conftest import force_row_blocks, random_edge_pairs
from pcapass import (
    EdgeList,
    EmbedConfig,
    Method,
    SbmParams,
    SearchSpace,
    SweepConfig,
    aggregate,
    embed,
    generate_sbm,
    hop_states,
    hpo_summary,
    kmeans,
    normalize_scores,
    oversmoothing_sweep,
    pearson_correlation,
    prepare,
    random_search,
    standardize,
    v_measure,
)
from pcapass.cli import main

embed_module = importlib.import_module("pcapass.embed")


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


def sweep_of(methods, max_hops, **settings):
    return SweepConfig(max_hops, tuple(m.value for m in methods), **settings)


def tiny_space(n_runs=1):
    return SearchSpace(
        n_runs=n_runs,
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
            ds.graph, ds.X, ds.y, sweep_of([Method.MESSAGE_PASSING], max_hops=20), seed=0
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
                sweep_of([Method.PCAPASS, Method.MESSAGE_PASSING], max_hops=10),
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
                    ds.graph, ds.X, ds.y, sweep_of([Method.MESSAGE_PASSING], max_hops=max_hops)
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40) < 1.5 * peak(2)

    def test_cell_seed_is_seed_xor_cell_index(self):
        ds = small_sbm(seed=3, n=120, classes=3)
        methods, max_hops, seed = [Method.PCAPASS, Method.SKIP_CONNECTIONS], 4, 11
        results = oversmoothing_sweep(ds.graph, ds.X, ds.y, sweep_of(methods, max_hops), seed=seed)
        mi = 1
        cfg = EmbedConfig(k=max_hops, d=ds.X.shape[1], method=methods[mi])
        for ki, (h, _) in enumerate(hop_states(ds.graph, ds.X, cfg)):
            assign = kmeans(standardize(h), 3, seed=seed ^ (mi * max_hops + ki))
            assert results[mi].v_measures[ki] == v_measure(ds.y, assign)

    def test_k_clusters_defaults_to_label_count(self):
        ds = small_sbm(seed=4, n=120, classes=3)
        (res,) = oversmoothing_sweep(
            ds.graph, ds.X, ds.y, sweep_of([Method.MESSAGE_PASSING], max_hops=3), seed=0
        )
        assert res.v_measures.shape == (3,)

    def test_rejects_a_negative_cluster_count(self):
        ds = small_sbm(seed=4, n=60)
        with pytest.raises(ValueError, match="k_clusters must be >= 0, got -3"):
            oversmoothing_sweep(
                ds.graph, ds.X, ds.y, sweep_of([Method.PCAPASS], max_hops=1, k_clusters=-3)
            )

    @pytest.mark.parametrize("k_clusters", [0, 1, 2])
    def test_rejects_labels_of_one_class(self, k_clusters):
        # one cluster against one class once scored every cell a v-measure of 1
        ds = small_sbm(seed=4, n=60)
        with pytest.raises(ValueError, match="need at least 2 classes, got 1"):
            oversmoothing_sweep(
                ds.graph, ds.X, np.zeros_like(ds.y),
                sweep_of([Method.MESSAGE_PASSING], max_hops=2, k_clusters=k_clusters),
            )

    def test_rejects_zero_hops(self):
        ds = small_sbm(seed=4, n=60)
        with pytest.raises(ValueError):
            oversmoothing_sweep(ds.graph, ds.X, ds.y, sweep_of([Method.PCAPASS], max_hops=0))


class TestRandomSearch:
    def test_single_run(self):
        ds = small_sbm(seed=5, n=150)
        records = random_search(tiny_space(1), seed=0, dataset=ds)
        assert len(records) == 1
        assert math.isfinite(records[0].valid_ce)
        assert 0.0 <= records[0].test_accuracy <= 1.0

    def test_fixed_seed_reproduces_records(self):
        ds = small_sbm(seed=5, n=150)
        a = random_search(tiny_space(4), seed=9, dataset=ds)
        b = random_search(tiny_space(4), seed=9, dataset=ds)
        assert [r.params for r in a] == [r.params for r in b]
        assert [r.valid_ce for r in a] == [r.valid_ce for r in b]
        assert [r.test_accuracy for r in a] == [r.test_accuracy for r in b]

    def test_failed_runs_recorded_with_infinite_loss(self, monkeypatch):
        ds = small_sbm(seed=5, n=150)

        def boom(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(analysis_module, "gbdt_train", boom)
        records = random_search(tiny_space(3), seed=0, dataset=ds)
        assert len(records) == 3
        assert all(math.isinf(r.valid_ce) for r in records)
        assert all(r.test_accuracy == 0.0 for r in records)

    def test_sampled_params_respect_space(self):
        ds = small_sbm(seed=7, n=150)
        space = tiny_space(6)
        for rec in random_search(space, seed=1, dataset=ds):
            p = rec.params
            assert space.k[0] <= p["k"] <= space.k[1]
            assert space.d[0] <= p["d"] <= space.d[1]
            assert space.learning_rate[0] <= p["learning_rate"] <= space.learning_rate[1]
            assert space.max_depth[0] <= p["max_depth"] <= space.max_depth[1]
            assert p["aggregator"] in space.aggregators


class TestHpoSummary:
    def test_summary_matches_direct_pearson(self):
        ds = small_sbm(seed=8, n=150)
        records = random_search(tiny_space(6), seed=3, dataset=ds)
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


@pytest.fixture
def two_cores(monkeypatch):
    """Make the pool start two workers, whatever this machine's core count."""
    monkeypatch.setattr(parallel_module, "_usable_cores", lambda: 2)


class TestWorkers:
    @pytest.mark.parametrize("cores, expected", [(1, [1, 1, 1, 1]), (2, [1, 2, 2, 2]),
                                                 (8, [1, 2, 3, 3])])
    def test_worker_count_is_capped_by_cores_and_jobs(self, cores, expected, monkeypatch):
        # the count is computed, and no process is started, even for 2**31
        monkeypatch.setattr(parallel_module, "_usable_cores", lambda: cores)
        counts = [parallel_module._worker_count(t, 3) for t in (1, 2, 4, 2**31)]
        assert counts == expected
        assert multiprocessing.active_children() == []

    def test_usable_cores_bound_the_count(self):
        assert parallel_module._worker_count(2**31, 2**31) == parallel_module._usable_cores()

    def test_jobs_run_in_workers_and_return_in_job_order(self, two_cores):
        results = analysis_module._run_jobs(lambda i: (i * i, os.getpid()), 7, workers=2)
        assert [square for square, _ in results] == [i * i for i in range(7)]
        pids = {pid for _, pid in results}
        assert os.getpid() not in pids and len(pids) <= 2
        assert multiprocessing.active_children() == []

    def test_one_worker_runs_the_jobs_in_this_process(self):
        results = analysis_module._run_jobs(lambda i: os.getpid(), 3, workers=1)
        assert results == [os.getpid()] * 3

    def test_pooled_sweep_equals_in_process(self, two_cores):
        ds = small_sbm(seed=3, n=120, classes=3)
        methods = [Method.PCAPASS, Method.MESSAGE_PASSING, Method.SKIP_CONNECTIONS]
        serial, pooled = [
            oversmoothing_sweep(ds.graph, ds.X, ds.y, sweep_of(methods, 5), seed=11, workers=w)
            for w in (1, 2)
        ]
        assert [r.method for r in pooled] == methods
        for a, b in zip(serial, pooled):
            assert (a.method, a.argmax_k) == (b.method, b.argmax_k)
            np.testing.assert_array_equal(a.v_measures, b.v_measures)
            np.testing.assert_array_equal(a.normalized, b.normalized)

    def test_pooled_search_equals_in_process_with_a_failed_run(self, two_cores, monkeypatch):
        ds = small_sbm(seed=5, n=150)
        rng = np.random.default_rng(9 ^ 2)  # run 2 of a search seeded 9
        failing_seed = analysis_module._sample_params(tiny_space(), rng)["seed"]
        train = analysis_module.gbdt_train

        def fail_run_2(*args):
            if args[4].seed == failing_seed:
                raise RuntimeError("injected failure")
            return train(*args)

        monkeypatch.setattr(analysis_module, "gbdt_train", fail_run_2)
        serial, pooled = [random_search(tiny_space(4), seed=9, dataset=ds, workers=w)
                          for w in (1, 2)]
        assert pooled == serial
        assert [math.isinf(r.valid_ce) for r in pooled] == [False, False, True, False]

    def test_a_worker_caps_openblas_threads(self, monkeypatch):
        get_threads = parallel_module._openblas_function(parallel_module._OPENBLAS_GET_THREADS)
        if get_threads is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread-count call")
        # 6 cores over 2 workers give each 3 BLAS threads, a count no
        # process here starts with
        monkeypatch.setattr(parallel_module, "_usable_cores", lambda: 6)
        assert analysis_module._run_jobs(lambda i: get_threads(), 2, workers=2) == [3, 3]

    def test_a_capped_worker_runs_its_row_blocks_serially(self, two_cores, rng, monkeypatch):
        # each of two workers on two cores gets 1 OpenBLAS thread, so its
        # hops run their row blocks on that one thread
        force_row_blocks(monkeypatch, 64)
        seen = []

        def spy(g, H, aggregator, threads):
            seen.append(threads)
            return aggregate(g, H, aggregator, threads)

        monkeypatch.setattr(embed_module, "aggregate", spy)
        g = prepare(EdgeList(300, random_edge_pairs(rng, 300, 900)))
        X = rng.standard_normal((300, 4))
        cfg = EmbedConfig(k=2, d=4)

        def job(i):  # a worker may run both jobs
            seen.clear()
            embed(g, X, cfg)
            return seen

        assert analysis_module._run_jobs(job, 2, workers=2) == [[1, 1], [1, 1]]

    def test_a_blas_without_the_symbols_is_left_alone(self, monkeypatch):
        monkeypatch.setattr(parallel_module, "_OPENBLAS_SET_THREADS", ("no_such_symbol",))
        monkeypatch.setattr(analysis_module, "_job", None)
        assert parallel_module._openblas_function(("no_such_symbol",)) is None
        analysis_module._start_worker(abs, 1)  # keeps the job, sets no thread count
        assert analysis_module._call_job(-4) == 4


def test_threads_below_one_still_exits_2(tmp_path, capsys):
    # threads sets the sweep's and the search's worker processes; a value
    # below 1 is a config error
    assert main(["sweep", "--threads", "0", "--out", str(tmp_path)]) == 2
    assert "threads must be >= 1" in capsys.readouterr().err
