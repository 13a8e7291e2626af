"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import blob_data, random_edge_pairs, xor_data
from oracles import (
    best_depth2_tree_accuracy,
    dense_operator,
    dense_prepared_adjacency,
    embed_reference,
    jacobi_eigendecomposition,
    v_measure_reference,
)
from pcapass import (
    Aggregator,
    EdgeList,
    EmbedConfig,
    GbdtParams,
    Method,
    SbmParams,
    SearchSpace,
    SweepConfig,
    accuracy,
    aggregate,
    cross_entropy,
    embed,
    explained_variance_ratio,
    gbdt_predict,
    gbdt_predict_proba,
    gbdt_train,
    generate_sbm,
    hop_states,
    oversmoothing_sweep,
    pca_fit,
    pca_transform,
    pearson_correlation,
    prepare,
    random_search,
    v_measure,
)
from pcapass.cli import main
from pcapass.datasets import TEST, TRAIN, VALID


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its budget: {elapsed:.1f}s >= {budget_seconds}s"
    )
    print(f"PASS criterion {number}: {description} ({elapsed:.1f}s)")


def fixture_sbm(seed):
    return generate_sbm(
        SbmParams(
            n_nodes=2000,
            n_classes=4,
            p_in=0.05,
            p_out=0.005,
            n_features=16,
            feature_signal=1.0,
            seed=seed,
        )
    )


@pytest.fixture(scope="module")
def fixture_seed7():
    return fixture_sbm(7)


def test_criterion_01_pipeline_oracle_equivalence():
    with criterion(1, "pcapass matches the dense recurrence oracle hop-by-hop", 10):
        rng = np.random.default_rng(101)
        for i in range(100):
            n = int(rng.integers(20, 31))
            f = int(rng.integers(2, 9))
            d = int(rng.integers(1, f + 1))
            k = int(rng.integers(0, 5))
            kind = ("mean", "symnorm")[i % 2]
            pairs = random_edge_pairs(rng, n, int(rng.integers(0, 3 * n)))
            g = prepare(EdgeList(n, pairs))
            X = rng.standard_normal((n, f))
            cfg = EmbedConfig(k=k, d=d, aggregator=Aggregator(kind), method=Method.PCAPASS)
            states = [h for h, _ in hop_states(g, X, cfg)]
            reference = embed_reference(n, pairs, X, "pcapass", kind, k=k, d=d)
            assert len(states) == len(reference) == k
            for mine, theirs in zip(states, reference):
                np.testing.assert_allclose(mine, theirs, atol=1e-8)


def test_criterion_02_aggregator_oracle_equivalence():
    with criterion(2, "both aggregators match dense normalized matrix products", 5):
        rng = np.random.default_rng(202)
        for i in range(100):
            n = int(rng.integers(2, 51))
            pairs = random_edge_pairs(rng, n, int(rng.integers(0, 3 * n)))
            g = prepare(EdgeList(n, pairs))
            H = rng.standard_normal((n, int(rng.integers(1, 7))))
            kind = ("mean", "symnorm")[i % 2]
            dense = dense_operator(dense_prepared_adjacency(n, pairs), kind) @ H
            np.testing.assert_allclose(aggregate(g, H, Aggregator(kind)), dense, atol=1e-10)


def test_criterion_03_pca_spectral_suite():
    with criterion(3, "PCA orthonormality, eigensolve match, reconstruction, EVR", 5):
        rng = np.random.default_rng(303)
        for _ in range(20):
            n = int(rng.integers(10, 40))
            f = int(rng.integers(2, 9))
            X = rng.standard_normal((n, f)) * rng.uniform(0.5, 3.0, size=f)
            model = pca_fit(X, d=f)

            gram = model.components @ model.components.T
            np.testing.assert_allclose(gram, np.eye(model.n_components), atol=1e-8)

            cov = np.cov(X, rowvar=False, ddof=1).reshape(f, f)
            ref_evals, _ = jacobi_eigendecomposition(cov)
            np.testing.assert_allclose(
                model.eigenvalues, ref_evals[: model.n_components], atol=1e-8
            )

            if model.n_components == f:
                Y = pca_transform(model, X)
                np.testing.assert_allclose(
                    Y @ model.components + model.mean, X, atol=1e-8
                )

        diagonal = np.array([[1.0, 1.0], [-1.0, -1.0], [2.0, 2.0], [-2.0, -2.0]])
        ratios = explained_variance_ratio(pca_fit(diagonal, d=1))
        np.testing.assert_allclose(ratios, [1.0], atol=1e-12)


def test_criterion_04_end_to_end_lift():
    with criterion(4, "pcapass embeddings lift GBDT accuracy by >= 10 points", 180):
        wins = 0
        for seed in (7, 8, 9, 10, 11):
            ds = fixture_sbm(seed)
            tr, va, te = ds.indices(TRAIN), ds.indices(VALID), ds.indices(TEST)
            params = GbdtParams(seed=seed)

            raw_model = gbdt_train(ds.X[tr], ds.y[tr], ds.X[va], ds.y[va], params)
            raw_acc = accuracy(gbdt_predict(raw_model, ds.X[te]), ds.y[te])

            cfg = EmbedConfig(k=8, d=16, aggregator=Aggregator.MEAN, method=Method.PCAPASS)
            emb = embed(ds.graph, ds.X, cfg).embeddings
            emb_model = gbdt_train(emb[tr], ds.y[tr], emb[va], ds.y[va], params)
            emb_acc = accuracy(gbdt_predict(emb_model, emb[te]), ds.y[te])

            if emb_acc - raw_acc >= 0.10:
                wins += 1
        assert wins >= 3, f"lift held on only {wins}/5 seeds"


def test_criterion_05_oversmoothing_analog(fixture_seed7):
    with criterion(5, "pcapass resists over-smoothing at least as long as message passing", 300):
        ds = fixture_seed7
        wins = 0
        for sweep_seed in range(5):
            pca_res, mp_res = oversmoothing_sweep(
                ds.graph,
                ds.X,
                ds.y,
                SweepConfig(max_hops=30, methods=("pcapass", "message_passing")),
                seed=sweep_seed,
            )
            assert pca_res.normalized.max() == 1.0 and mp_res.normalized.max() == 1.0
            argmax_ok = pca_res.argmax_k >= mp_res.argmax_k
            tail_ok = pca_res.v_measures[-1] >= mp_res.v_measures[-1]
            if argmax_ok and tail_ok:
                wins += 1
        assert wins >= 3, f"over-smoothing comparison held on only {wins}/5 seeds"


@pytest.fixture(scope="module")
def hpo_records(fixture_seed7):
    # one worker process per core; the records are the same at any count
    return random_search(
        SearchSpace(n_runs=50, method=Method.PCAPASS), seed=7, dataset=fixture_seed7,
        workers=os.cpu_count() or 1,
    )


def test_criterion_06_generalization_analog(hpo_records):
    with criterion(6, "validation CE anti-correlates with test accuracy (r <= -0.5)", 900):
        finite = [r for r in hpo_records if np.isfinite(r.valid_ce)]
        assert len(finite) == 50, "some search runs failed"
        r = pearson_correlation(
            [rec.valid_ce for rec in finite], [rec.test_accuracy for rec in finite]
        )
        assert r <= -0.5, f"pearson r = {r:.3f}"


def test_selecting_by_validation_loss_nearly_selects_best_test_accuracy(hpo_records):
    # picking the run with the lowest validation loss costs at most 2
    # accuracy points versus the best run in hindsight
    by_loss = min(hpo_records, key=lambda r: r.valid_ce)
    best_acc = max(r.test_accuracy for r in hpo_records)
    assert by_loss.test_accuracy >= best_acc - 0.02


def test_criterion_07_gbdt_contracts():
    with criterion(7, "GBDT probability, bookkeeping, early-stop, XOR and blob contracts", 60):
        # probability rows sum to 1
        (X_tr, y_tr), (X_val, y_val), (X_te, y_te) = blob_data(seed=3)
        params = GbdtParams(learning_rate=0.3, max_depth=3, n_rounds=60, seed=0)
        blob_model = gbdt_train(X_tr, y_tr, X_val, y_val, params)
        proba = gbdt_predict_proba(blob_model, X_te)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

        # blob validation accuracy
        val_acc = accuracy(gbdt_predict(blob_model, X_val), y_val)
        assert val_acc >= 0.98, f"blob validation accuracy {val_acc:.3f}"

        # XOR training accuracy (depth-2 separable per the exhaustive oracle)
        X_xor, y_xor = xor_data(seed=1)
        assert best_depth2_tree_accuracy(X_xor, y_xor) >= 0.95
        xor_model = gbdt_train(
            X_xor, y_xor, X_xor, y_xor,
            GbdtParams(learning_rate=0.3, max_depth=2, n_rounds=150, seed=0),
        )
        xor_acc = accuracy(gbdt_predict(xor_model, X_xor), y_xor)
        assert xor_acc >= 0.95, f"xor training accuracy {xor_acc:.3f}"

        # early stopping fires after exactly `patience` stale rounds, and the
        # recorded best is the exact minimum over everything evaluated
        flip = np.random.default_rng(4).random(len(y_val)) < 0.3
        y_noisy = np.where(flip, 1 - y_val, y_val)
        stop_params = GbdtParams(
            learning_rate=0.3, max_depth=3, n_rounds=400, patience=7, seed=0
        )
        noisy_model = gbdt_train(X_tr, y_tr, X_val, y_noisy, stop_params)
        assert len(noisy_model.rounds) < stop_params.n_rounds
        assert len(noisy_model.rounds) == noisy_model.best_round + 1 + stop_params.patience
        candidates = [noisy_model.prior_valid_ce] + noisy_model.valid_ce_history
        assert noisy_model.best_valid_ce == min(candidates)


ACCEPTANCE_CONFIG = """
n_nodes = 300
n_classes = 3
p_in = 0.08
p_out = 0.01
n_features = 8
k = 3
d = 8
n_rounds = 40
max_depth = 3
sweep_hops = 5
hpo_runs = 3
hpo_k_max = 3
hpo_d_min = 4
hpo_d_max = 8
hpo_rounds = 20
"""


def _run_all_commands(config_path, out_dir, threads):
    for command in ("gen", "embed", "train", "eval", "sweep", "hpo"):
        code = main(
            [
                command,
                "--config",
                str(config_path),
                "--out",
                str(out_dir),
                "--seed",
                "3",
                "--threads",
                str(threads),
            ]
        )
        assert code == 0, f"{command} exited {code}"


def _collect_files(out_dir):
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(Path(out_dir).rglob("*"))
        if p.is_file()
    }


def _numeric_rows(text):
    rows = []
    for line in text.splitlines():
        row = []
        for token in line.replace(",", " ").split():
            try:
                row.append(float(token))
            except ValueError:
                row.append(token)
        rows.append(row)
    return rows


def test_criterion_08_cli_determinism(tmp_path, capsys):
    with criterion(8, "CLI runs are byte-identical (threads=1) and 1e-8-stable (threads=4)", 120):
        config = tmp_path / "run.cfg"
        config.write_text(ACCEPTANCE_CONFIG)
        dirs = [tmp_path / name for name in ("a", "b", "t4")]
        for out_dir, threads in zip(dirs, (1, 1, 4)):
            _run_all_commands(config, out_dir, threads)
        capsys.readouterr()  # swallow the per-file "wrote" lines

        first, second, threaded = (_collect_files(d) for d in dirs)
        assert first.keys() == second.keys() == threaded.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between identical runs"

        for name, blob in first.items():
            if name.endswith((".csv", ".json", ".tsv", ".txt")):
                a_rows = _numeric_rows(blob.decode())
                b_rows = _numeric_rows(threaded[name].decode())
                assert len(a_rows) == len(b_rows), name
                for ra, rb in zip(a_rows, b_rows):
                    assert len(ra) == len(rb), name
                    for va, vb in zip(ra, rb):
                        if isinstance(va, float) and isinstance(vb, float):
                            assert va == pytest.approx(vb, rel=1e-8), name
                        else:
                            assert va == vb, name
            else:
                assert blob == threaded[name], f"{name} differs under threads=4"


def test_criterion_09_metric_unit_suite():
    with criterion(9, "metric unit cases: v-measure, cross-entropy, Pearson", 1):
        assert v_measure([0, 0, 1, 1], [5, 5, 2, 2]) == pytest.approx(1.0)
        assert v_measure([0, 0, 1, 1], [0, 0, 0, 0]) == 0.0
        independent = v_measure([0, 0, 1, 1], [0, 1, 0, 1])
        assert independent == pytest.approx(0.0, abs=1e-12)
        assert independent == pytest.approx(
            v_measure_reference([0, 0, 1, 1], [0, 1, 0, 1]), abs=1e-12
        )

        proba = np.full((12, 4), 0.25)
        assert cross_entropy(proba, np.arange(12) % 4) == pytest.approx(
            np.log(4.0), abs=1e-12
        )

        xs = np.array([0.3, 1.8, -2.2, 4.0, 0.9])
        ys = np.array([1.0, -0.4, 2.2, 3.1, -1.5])
        base = pearson_correlation(xs, ys)
        assert pearson_correlation(3.7 * xs + 11.0, ys) == pytest.approx(base, abs=1e-12)
        assert pearson_correlation(xs, 0.02 * ys - 5.0) == pytest.approx(base, abs=1e-12)


ARXIV_DIR = os.environ.get("PCAPASS_ARXIV_DIR", "data/ogbn-arxiv")


@pytest.mark.skipif(
    not Path(ARXIV_DIR).is_dir(),
    reason="stretch criterion: supply an ogbn-arxiv export in the dataset "
    "directory layout via PCAPASS_ARXIV_DIR (not CI-gating)",
)
def test_criterion_10_stretch_ogbn_arxiv():
    from pcapass import load_dataset

    with criterion(10, "user-supplied ogbn-arxiv export reaches test accuracy >= 0.69", 7200):
        ds = load_dataset(ARXIV_DIR)
        cfg = EmbedConfig(
            k=13,
            d=min(128, ds.X.shape[1]),
            aggregator=Aggregator.MEAN,
            method=Method.PCAPASS,
        )
        emb = embed(ds.graph, ds.X, cfg).embeddings
        tr, va, te = ds.indices(TRAIN), ds.indices(VALID), ds.indices(TEST)
        model = gbdt_train(
            emb[tr],
            ds.y[tr],
            emb[va],
            ds.y[va],
            GbdtParams(learning_rate=0.1, max_depth=6, n_rounds=500, seed=0),
        )
        acc = accuracy(gbdt_predict(model, emb[te]), ds.y[te])
        assert acc >= 0.69, f"test accuracy {acc:.4f}"
