import numpy as np
import pytest
from oracles import save_dataset_reference

from pcapass import (
    DataError,
    GbdtParams,
    SbmParams,
    gbdt_predict,
    gbdt_train,
    generate_sbm,
    load_dataset,
    save_dataset,
)
from pcapass import fileio
from pcapass.datasets import TEST, TRAIN, VALID, datasets_equal


class TestParams:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(p_in=0.1, p_out=0.2),  # p_out > p_in
            dict(p_in=1.5),
            dict(train_frac=0.0, valid_frac=0.5, test_frac=0.5),
            dict(train_frac=0.5, valid_frac=0.5, test_frac=0.5),
            dict(n_classes=0),
            dict(feature_signal=1.0, n_classes=5, n_features=3),
        ],
    )
    def test_invalid_params_rejected(self, kw):
        with pytest.raises(ValueError):
            SbmParams(**kw)


class TestGenerate:
    def test_extreme_probabilities_give_two_cliques(self):
        ds = generate_sbm(
            SbmParams(n_nodes=12, n_classes=2, p_in=1.0, p_out=0.0, n_features=4, seed=0)
        )
        for v in range(12):
            same_class = set(np.flatnonzero(ds.y == ds.y[v]).tolist())
            assert set(ds.graph.neighbors(v).tolist()) == same_class

    def test_no_feature_signal_means_chance_level_classifier(self):
        ds = generate_sbm(
            SbmParams(
                n_nodes=400,
                n_classes=4,
                p_in=0.05,
                p_out=0.01,
                n_features=8,
                feature_signal=0.0,
                seed=1,
            )
        )
        tr, va, te = ds.indices(TRAIN), ds.indices(VALID), ds.indices(TEST)
        model = gbdt_train(
            ds.X[tr],
            ds.y[tr],
            ds.X[va],
            ds.y[va],
            GbdtParams(n_rounds=20, max_depth=3, seed=0),
        )
        acc = float((gbdt_predict(model, ds.X[te]) == ds.y[te]).mean())
        assert abs(acc - 0.25) <= 0.1

    def test_fixed_seed_is_bitwise_reproducible(self):
        params = SbmParams(n_nodes=150, n_classes=3, seed=42, n_features=6)
        a, b = generate_sbm(params), generate_sbm(params)
        assert datasets_equal(a, b)
        assert a.X.tobytes() == b.X.tobytes()

    def test_stratified_splits_within_one_node(self):
        params = SbmParams(n_nodes=333, n_classes=3, seed=5, n_features=4)
        ds = generate_sbm(params)
        for c in range(3):
            members = ds.y == c
            expected = params.train_frac * members.sum()
            got = (members & (ds.split == TRAIN)).sum()
            assert abs(got - expected) <= 1.0

    def test_every_class_present_in_train(self):
        ds = generate_sbm(SbmParams(n_nodes=40, n_classes=4, seed=3, n_features=4))
        train_classes = set(ds.y[ds.split == TRAIN].tolist())
        assert train_classes == {0, 1, 2, 3}

    def test_tiny_classes_rejected(self):
        # The smallest of 4 classes has n_nodes // 4 nodes; a train_frac that
        # rounds its train count to 0 is a settings error, raised before any
        # sampling. round(0.5) is 0, as in generate_sbm.
        for n_nodes, train_frac in ((4, 0.1), (3, 0.6), (40, 0.04), (40, 0.05)):
            rest = (1.0 - train_frac) / 2
            with pytest.raises(ValueError, match="train_frac"):
                SbmParams(
                    n_nodes=n_nodes,
                    n_classes=4,
                    n_features=4,
                    train_frac=train_frac,
                    valid_frac=rest,
                    test_frac=rest,
                )

    def test_one_train_node_in_the_smallest_class_is_enough(self):
        params = SbmParams(
            n_nodes=42, n_classes=4, n_features=4, train_frac=0.06, valid_frac=0.47, test_frac=0.47
        )
        ds = generate_sbm(params)
        train_counts = np.bincount(ds.y[ds.split == TRAIN], minlength=4)
        assert train_counts.tolist() == [1, 1, 1, 1]

    def test_centroid_distances_equal_signal(self):
        params = SbmParams(
            n_nodes=3000, n_classes=3, n_features=6, feature_signal=2.5, seed=9
        )
        ds = generate_sbm(params)
        centroids = np.stack([ds.X[ds.y == c].mean(axis=0) for c in range(3)])
        for a in range(3):
            for b in range(a + 1, 3):
                dist = np.linalg.norm(centroids[a] - centroids[b])
                assert abs(dist - 2.5) < 0.2  # sample noise only

    def test_block_densities_within_three_sigma(self):
        params = SbmParams(n_nodes=600, n_classes=2, p_in=0.06, p_out=0.01, seed=11,
                           n_features=4)
        ds = generate_sbm(params)
        members = [np.flatnonzero(ds.y == c) for c in range(2)]
        adj = np.zeros((600, 600), dtype=bool)
        for v in range(600):
            adj[v, ds.graph.neighbors(v)] = True
        np.fill_diagonal(adj, False)

        within = members[0]
        n_pairs = len(within) * (len(within) - 1) / 2
        hits = adj[np.ix_(within, within)].sum() / 2
        sigma = np.sqrt(n_pairs * params.p_in * (1 - params.p_in))
        assert abs(hits - n_pairs * params.p_in) <= 3 * sigma

        cross_pairs = len(members[0]) * len(members[1])
        cross_hits = adj[np.ix_(members[0], members[1])].sum()
        sigma = np.sqrt(cross_pairs * params.p_out * (1 - params.p_out))
        assert abs(cross_hits - cross_pairs * params.p_out) <= 3 * sigma


class TestSaveLoad:
    @pytest.mark.parametrize(
        "params",
        [
            *(SbmParams(n_nodes=90, n_classes=3, n_features=4, seed=s) for s in (0, 1, 2)),
            SbmParams(n_nodes=40, n_classes=1, n_features=1, seed=3),
            SbmParams(n_nodes=40, n_classes=2, n_features=3, p_in=0.0, p_out=0.0, seed=4),
        ],
        ids=["seed0", "seed1", "seed2", "one_feature", "no_edges"],
    )
    @pytest.mark.parametrize("chunk", [7, fileio._CHUNK])
    def test_files_match_the_line_by_line_writer(self, params, chunk, tmp_path, monkeypatch):
        monkeypatch.setattr(fileio, "_CHUNK", chunk)
        ds = generate_sbm(params)
        save_dataset(ds, tmp_path / "data")
        save_dataset_reference(ds, tmp_path / "ref")
        for name in ("edges.tsv", "features.csv", "labels.csv", "splits.csv"):
            got = (tmp_path / "data" / name).read_bytes()
            assert got == (tmp_path / "ref" / name).read_bytes(), name

    def test_roundtrip_is_exact(self, tmp_path):
        ds = generate_sbm(SbmParams(n_nodes=80, n_classes=3, seed=7, n_features=5))
        save_dataset(ds, tmp_path / "data")
        restored = load_dataset(tmp_path / "data")
        assert datasets_equal(ds, restored)

    def test_missing_file(self, tmp_path):
        ds = generate_sbm(SbmParams(n_nodes=30, n_classes=2, seed=0, n_features=3))
        save_dataset(ds, tmp_path / "data")
        (tmp_path / "data" / "labels.csv").unlink()
        with pytest.raises(DataError, match="missing dataset file"):
            load_dataset(tmp_path / "data")

    def test_row_count_mismatch(self, tmp_path):
        ds = generate_sbm(SbmParams(n_nodes=30, n_classes=2, seed=0, n_features=3))
        save_dataset(ds, tmp_path / "data")
        feats = (tmp_path / "data" / "features.csv").read_text().splitlines()
        (tmp_path / "data" / "features.csv").write_text("\n".join(feats[:-1]) + "\n")
        with pytest.raises(DataError, match="rows"):
            load_dataset(tmp_path / "data")

    def test_label_gap(self, tmp_path):
        ds = generate_sbm(SbmParams(n_nodes=30, n_classes=2, seed=0, n_features=3))
        save_dataset(ds, tmp_path / "data")
        text = (tmp_path / "data" / "labels.csv").read_text().replace(",1", ",2")
        (tmp_path / "data" / "labels.csv").write_text(text)
        with pytest.raises(DataError, match="label gap"):
            load_dataset(tmp_path / "data")

    def test_unknown_split_token(self, tmp_path):
        ds = generate_sbm(SbmParams(n_nodes=30, n_classes=2, seed=0, n_features=3))
        save_dataset(ds, tmp_path / "data")
        text = (tmp_path / "data" / "splits.csv").read_text().replace("test", "holdout")
        (tmp_path / "data" / "splits.csv").write_text(text)
        with pytest.raises(DataError, match="unknown split token"):
            load_dataset(tmp_path / "data")

    def test_empty_features_file_names_the_file(self, tmp_path):
        ds = generate_sbm(SbmParams(n_nodes=30, n_classes=2, seed=0, n_features=3))
        save_dataset(ds, tmp_path / "data")
        path = tmp_path / "data" / "features.csv"
        path.write_text("# no rows\n")
        with pytest.raises(DataError) as info:
            load_dataset(tmp_path / "data")
        assert str(info.value) == f'{path}: loadtxt: input contained no data: "{path}"'

    def test_missing_header_rejected(self, tmp_path):
        ds = generate_sbm(SbmParams(n_nodes=30, n_classes=2, seed=0, n_features=3))
        save_dataset(ds, tmp_path / "data")
        lines = (tmp_path / "data" / "labels.csv").read_text().splitlines()
        (tmp_path / "data" / "labels.csv").write_text("\n".join(lines[1:]) + "\n")
        with pytest.raises(DataError, match="header"):
            load_dataset(tmp_path / "data")

    @pytest.mark.parametrize("label", [30, 10**15, 2**63])
    def test_label_not_below_the_node_count(self, label, tmp_path):
        ds = generate_sbm(SbmParams(n_nodes=30, n_classes=2, seed=0, n_features=3))
        save_dataset(ds, tmp_path / "data")
        path = tmp_path / "data" / "labels.csv"
        lines = path.read_text().splitlines()
        lines[4] = f"3,{label}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"labels.csv: label {label} is not below"):
            load_dataset(tmp_path / "data")
