import contextlib
import dataclasses
import io
import json
import multiprocessing
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcapass.analysis as analysis_module
from pcapass import (
    ConfigError,
    DataError,
    SbmParams,
    gbdt_from_bytes,
    gbdt_predict,
    gbdt_predict_proba,
    generate_sbm,
    load_dataset,
    save_dataset,
)
from pcapass.cli import main, run_script
from pcapass.config import RunConfig
from pcapass.datasets import TEST, TRAIN, VALID
from pcapass.embed import embeddings_from_csv
from pcapass.metrics import accuracy, cross_entropy
from pcapass.gbdt import _HEADER, PARAMS_FORMAT

SIX_METRIC_KEYS = {
    "train_accuracy",
    "valid_accuracy",
    "test_accuracy",
    "valid_cross_entropy",
    "best_round",
    "n_rounds",
}


def write_config(path, **keys):
    lines = [f"{k} = {v}" for k, v in keys.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def tiny_config(tmp_path):
    return write_config(
        tmp_path / "run.cfg",
        n_nodes=200,
        n_classes=2,
        p_in=0.08,
        p_out=0.01,
        n_features=6,
        k=2,
        d=6,
        n_rounds=30,
        max_depth=3,
        sweep_hops=4,
        hpo_runs=2,
        hpo_k_max=2,
        hpo_d_min=2,
        hpo_d_max=6,
        hpo_rounds=15,
    )


def run_cmd(command, config, out, seed=0, extra=()):
    return main([command, "--config", config, "--out", str(out), "--seed", str(seed), *extra])


class TestPipelineSmoke:
    def test_gen_embed_train_eval(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert run_cmd("gen", tiny_config, out) == 0
        assert run_cmd("embed", tiny_config, out) == 0
        assert run_cmd("train", tiny_config, out) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == SIX_METRIC_KEYS

        train_metrics = (out / "metrics.json").read_bytes()
        assert run_cmd("eval", tiny_config, out) == 0
        assert (out / "metrics.json").read_bytes() == train_metrics
        # Exactly these files, so that no write-only output creeps back in.
        written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert written == {
            "dataset/edges.tsv",
            "dataset/features.csv",
            "dataset/labels.csv",
            "dataset/splits.csv",
            "embeddings.csv",
            "model.bin",
            "model.txt",
            "metrics.json",
        }

    def test_metrics_match_scoring_each_split_on_its_own(self, tiny_config, tmp_path):
        # metrics.json scores every row in one pass; the numbers are those of
        # scoring the train, valid and test rows one split at a time.
        out = tmp_path / "run"
        for command in ("gen", "embed", "train"):
            assert run_cmd(command, tiny_config, out) == 0
        ds = load_dataset(out / "dataset")
        H = embeddings_from_csv((out / "embeddings.csv").read_text())
        model = gbdt_from_bytes((out / "model.bin").read_bytes())
        metrics = json.loads((out / "metrics.json").read_text())
        for name, which in (("train", TRAIN), ("valid", VALID), ("test", TEST)):
            idx = ds.indices(which)
            expected = accuracy(gbdt_predict(model, H[idx]), ds.y[idx])
            assert metrics[f"{name}_accuracy"] == expected
        valid = ds.indices(VALID)
        proba = gbdt_predict_proba(model, H[valid])
        assert metrics["valid_cross_entropy"] == cross_entropy(proba, ds.y[valid])

    def test_embed_with_zero_hops_reproduces_features(self, tmp_path):
        config = write_config(
            tmp_path / "run.cfg", n_nodes=60, n_classes=2, n_features=4, k=0
        )
        out = tmp_path / "run"
        assert run_cmd("gen", config, out) == 0
        assert run_cmd("embed", config, out) == 0
        features = np.loadtxt(out / "dataset" / "features.csv", delimiter=",")
        embeddings = np.loadtxt(out / "embeddings.csv", delimiter=",")
        np.testing.assert_array_equal(embeddings, features)

    def test_train_twice_same_seed_byte_identical_metrics(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        run_cmd("gen", tiny_config, out)
        run_cmd("embed", tiny_config, out)
        assert run_cmd("train", tiny_config, out, seed=5) == 0
        first = (out / "metrics.json").read_bytes()
        assert run_cmd("train", tiny_config, out, seed=5) == 0
        assert (out / "metrics.json").read_bytes() == first

    def test_zero_lambda_and_min_child_hessian_train_and_eval(self, tmp_path):
        # A split can leave a child whose hessian sums to 0: its leaf weight
        # once divided by zero and train exited 4.
        config = write_config(
            tmp_path / "run.cfg", n_nodes=300, reg_lambda=0, min_child_hessian=0
        )
        out = tmp_path / "run"
        for command in ("gen", "embed", "train", "eval"):
            assert run_cmd(command, config, out) == 0, command
        model = gbdt_from_bytes((out / "model.bin").read_bytes())
        assert model.params.reg_lambda == model.params.min_child_hessian == 0.0

    def test_sweep_and_hpo_outputs(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        run_cmd("gen", tiny_config, out)
        assert run_cmd("sweep", tiny_config, out) == 0
        sweep_lines = (out / "sweep.csv").read_text().splitlines()
        assert sweep_lines[0] == "method,k,v_measure,normalized_v_measure"
        assert len(sweep_lines) == 1 + 3 * 4  # three methods, four hops

        assert run_cmd("hpo", tiny_config, out) == 0
        hpo_lines = (out / "hpo.csv").read_text().splitlines()
        assert hpo_lines[0].startswith("run,k,d,aggregator,learning_rate")
        assert len(hpo_lines) == 1 + 2
        summary = json.loads((out / "hpo_summary.json").read_text())
        assert summary["n_runs"] == 2 and summary["n_failed"] == 0

    @pytest.mark.parametrize("command", ["sweep", "hpo"])
    def test_no_worker_outlives_a_pooled_command(self, command, tiny_config, tmp_path,
                                                 monkeypatch):
        # three sweep methods and two hpo runs start two workers at --threads 2
        monkeypatch.setattr(analysis_module, "_usable_cores", lambda: 2)
        out = tmp_path / "run"
        assert run_cmd("gen", tiny_config, out) == 0
        assert run_cmd(command, tiny_config, out, extra=("--threads", "2")) == 0
        assert multiprocessing.active_children() == []

    def test_hpo_trains_with_the_n_bins_and_min_child_hessian_keys(self, tiny_config, tmp_path):
        # hpo once trained every run with these keys' defaults, whatever the config said
        out = tmp_path / "run"
        run_cmd("gen", tiny_config, out)
        tables = []
        for extra in ("", "n_bins = 2\nmin_child_hessian = 50\n"):
            config = tmp_path / "hpo.cfg"
            config.write_text(Path(tiny_config).read_text() + extra)
            assert run_cmd("hpo", str(config), out) == 0
            tables.append((out / "hpo.csv").read_text())
        assert tables[0] != tables[1]


class TestErrors:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("not_a_key = 5\n")
        assert main(["gen", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "not_a_key" in err

    @pytest.mark.parametrize("command", ["gen", "train", "sweep", "hpo"])
    def test_a_negative_seed_exits_2(self, command, tiny_config, tmp_path, capsys):
        # gen and hpo once exited 4, and train and sweep 3 naming the dataset
        assert run_cmd(command, tiny_config, tmp_path / "run", seed=-1) == 2
        assert capsys.readouterr().err == "error: config: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("command", ["gen", "embed", "train", "eval", "sweep", "hpo"])
    def test_every_command_checks_every_key_bound(self, command, tmp_path, capsys):
        # gen once wrote a dataset with n_bins = 1, which only train checked
        config = write_config(tmp_path / "bins.cfg", n_bins=1)
        assert main([command, "--config", config, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == "error: config: n_bins must be >= 2, got 1\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "key, value, top",
        [
            ("n_bins", 2**32, 2**32 - 1),
            ("max_depth", 2**32, 2**32 - 1),
            ("seed", 2**63, 2**63 - 1),
        ],
    )
    def test_a_value_the_model_file_cannot_store_exits_2_before_training(
        self, key, value, top, tiny_config, tmp_path, capsys
    ):
        # each once trained in full, then exited 4 packing the model header
        out = tmp_path / "run"
        assert run_cmd("gen", tiny_config, out) == 0
        assert run_cmd("embed", tiny_config, out) == 0
        config = write_config(tmp_path / "big.cfg", **{key: value})
        capsys.readouterr()
        assert main(["train", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: config: {key} must be <= {top}, got {value}\n"
        assert not (out / "model.bin").exists()

    def test_a_learning_rate_that_overflows_a_leaf_exits_2(self, tiny_config, tmp_path, capsys):
        # learning_rate = 1e308 once warned of overflow and wrote a model.bin
        # that eval rejected, then was a data error naming the dataset (exit
        # 3), though no dataset causes it; 1e200 trains a model that eval reads
        out = tmp_path / "run"
        assert run_cmd("gen", tiny_config, out) == 0
        assert run_cmd("embed", tiny_config, out) == 0
        Path(tiny_config).write_text(Path(tiny_config).read_text() + "learning_rate = 1e308\n")
        capsys.readouterr()
        assert run_cmd("train", tiny_config, out) == 2
        err = capsys.readouterr().err
        assert err == "error: config: round 1 grew a non-finite leaf; lower learning_rate\n"
        assert not (out / "model.bin").exists()
        Path(tiny_config).write_text(Path(tiny_config).read_text() + "learning_rate = 1e200\n")
        assert run_cmd("train", tiny_config, out) == 0
        assert run_cmd("eval", tiny_config, out) == 0

    @pytest.mark.parametrize("signal", ["1e39", "1e300"])
    def test_a_feature_signal_beyond_float32_exits_2(self, signal, tmp_path, capsys):
        # gen once warned of overflow and wrote inf into features.csv
        config = write_config(tmp_path / "fs.cfg", feature_signal=signal)
        assert main(["gen", "--config", config, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: config: feature_signal = {float(signal)} "
            "puts the class centroids beyond float32 range\n"
        )
        assert not (tmp_path / "run").exists()

    def test_a_feature_signal_near_the_float32_limit_runs(self, tiny_config, tmp_path):
        Path(tiny_config).write_text(Path(tiny_config).read_text() + "feature_signal = 3e38\n")
        for command in ("gen", "embed", "train", "eval"):
            assert run_cmd(command, tiny_config, tmp_path / "run") == 0

    def test_bad_config_value_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("k = banana\n")
        assert main(["embed", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "error: config:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("learning_rate", "nan"),
            ("learning_rate", "inf"),
            ("reg_lambda", "nan"),
            ("min_child_hessian", "nan"),
            ("subsample", "-inf"),
            ("p_in", "nan"),
            ("hpo_lr_max", "1e999"),
        ],
    )
    def test_non_finite_float_exits_2_naming_the_key(self, key, value, tmp_path, capsys):
        # Before, train accepted learning_rate = nan and wrote a model that
        # eval rejected, and min_child_hessian = nan disabled every split.
        config = write_config(tmp_path / "bad.cfg", **{key: value})
        assert main(["train", "--config", config, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and repr(key) in err

    def test_missing_dataset_exits_3(self, tmp_path, capsys):
        assert main(["embed", "--out", str(tmp_path / "nope")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "\n" not in err.rstrip("\n")

    def test_bad_method_exits_2(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("method = transformer\n")
        out = tmp_path / "o"
        assert main(["gen", "--out", str(out)]) == 0
        assert main(["embed", "--config", str(config), "--out", str(out)]) == 2

    def test_invalid_probability_exits_2(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("p_in = 0.001\np_out = 0.5\n")
        assert main(["gen", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    def test_eval_with_mismatched_embeddings_exits_3(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        run_cmd("gen", tiny_config, out)
        run_cmd("embed", tiny_config, out)
        run_cmd("train", tiny_config, out)
        # re-embed narrower than the trained model expects
        narrow = write_config(tmp_path / "narrow.cfg", k=1, d=2, n_features=6)
        assert run_cmd("embed", narrow, out) == 0
        capsys.readouterr()
        assert run_cmd("eval", tiny_config, out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "expects 6 features" in err
        assert str(out / "model.bin") in err and str(out / "embeddings.csv") in err

    def test_eval_of_a_model_with_fewer_classes_than_the_labels_exits_3(
        self, tiny_config, tmp_path, capsys
    ):
        # a 2-class model scored on 3-class labels once exited 4 from numpy
        out = tmp_path / "run"
        for command in ("gen", "embed", "train"):
            assert run_cmd(command, tiny_config, out) == 0
        three = write_config(tmp_path / "three.cfg", n_nodes=200, n_classes=3, n_features=6,
                             k=2, d=6)
        for command in ("gen", "embed"):
            assert run_cmd(command, three, out) == 0
        capsys.readouterr()
        assert run_cmd("eval", three, out) == 3
        assert capsys.readouterr().err == (
            f"error: data: {out / 'model.bin'}: model has 2 classes, "
            f"{out / 'dataset' / 'labels.csv'} has label 2\n"
        )

    def test_truncated_model_exits_3_naming_the_file(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        run_cmd("gen", tiny_config, out)
        run_cmd("embed", tiny_config, out)
        run_cmd("train", tiny_config, out)
        model = out / "model.bin"
        model.write_bytes(model.read_bytes()[:60])
        capsys.readouterr()
        assert run_cmd("eval", tiny_config, out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "model.bin" in err

    def test_model_split_on_missing_feature_exits_3(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        run_cmd("gen", tiny_config, out)
        run_cmd("embed", tiny_config, out)
        run_cmd("train", tiny_config, out)
        model = out / "model.bin"
        blob = bytearray(model.read_bytes())
        n_classes = gbdt_from_bytes(bytes(blob)).n_classes
        # the first tree's node count, then its root's split feature
        root_feature = 4 + _HEADER.size + 8 * n_classes + 4
        assert struct.unpack_from("<i", blob, root_feature)[0] >= 0
        struct.pack_into("<i", blob, root_feature, 999)
        model.write_bytes(bytes(blob))
        capsys.readouterr()
        assert run_cmd("eval", tiny_config, out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "model.bin" in err
        assert "feature 999" in err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_base_score_exits_3_naming_the_file(
        self, value, tiny_config, tmp_path, capsys
    ):
        # A NaN base score used to reach metrics.json as `NaN`, which is not JSON.
        out = tmp_path / "run"
        for command in ("gen", "embed", "train"):
            run_cmd(command, tiny_config, out)
        model = out / "model.bin"
        blob = bytearray(model.read_bytes())
        struct.pack_into("<d", blob, 4 + _HEADER.size, value)
        model.write_bytes(bytes(blob))
        capsys.readouterr()
        assert run_cmd("eval", tiny_config, out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "model.bin" in err
        assert "non-finite base score" in err

    @pytest.mark.parametrize(
        "keys, message",
        [
            ({"hpo_k_min": 5, "hpo_k_max": 3}, "k range is inverted"),
            ({"hpo_k_min": -1}, "hpo_k_min must be >= 0, got -1"),
            ({"hpo_lr_min": 0}, "learning_rate lower bound must be > 0"),
            ({"hpo_aggregators": "mean,max"}, "unknown aggregator 'max'"),
            # once every run failed and hpo exited 0; GbdtParams' own messages
            ({"hpo_rounds": -1}, "n_rounds must be >= 0, got -1"),
            ({"patience": 0}, "patience must be >= 1, got 0"),
            ({"hpo_depth_max": 2**32}, "max_depth must be <= 4294967295, got 4294967296"),
            # once ignored by hpo
            ({"n_bins": 2**32}, "n_bins must be <= 4294967295, got 4294967296"),
            # once exit 4 from rng.integers: high is out of bounds for int64
            ({"hpo_d_max": 10**19}, f"hpo_d_max must be <= {2**63 - 1}, got {10**19}"),
            ({"hpo_k_max": 10**19}, f"hpo_k_max must be <= {2**63 - 1}, got {10**19}"),
        ],
    )
    def test_bad_hpo_range_exits_2(self, keys, message, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["gen", "--out", str(out)]) == 0
        config = write_config(tmp_path / "hpo.cfg", hpo_runs=1, **keys)
        capsys.readouterr()
        assert main(["hpo", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and message in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e39"])
    def test_non_finite_feature_exits_3_naming_the_file(self, cell, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["gen", "--out", str(out)]) == 0
        features = out / "dataset" / "features.csv"
        rows = features.read_text().splitlines()
        rows[5] = ",".join([cell] + rows[5].split(",")[1:])
        features.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert main(["embed", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "features.csv" in err
        assert "row 6, column 1" in err

    @pytest.mark.parametrize(
        "label, message",
        [
            (10**15, f"labels.csv: label {10**15} is not below the node count 200"),
            (2**63, f"labels.csv: label {2**63} is not below the node count 200"),
            ("one", "labels.csv: line 6: invalid literal for int() with base 10: 'one'"),
            ("-1", "labels.csv: line 6: negative label -1"),
        ],
        ids=["oversized", "past_int64", "non_integer", "negative"],
    )
    def test_bad_label_exits_3_naming_the_file(
        self, label, message, tiny_config, tmp_path, capsys
    ):
        out = tmp_path / "run"
        assert run_cmd("gen", tiny_config, out) == 0
        labels = out / "dataset" / "labels.csv"
        rows = labels.read_text().splitlines()
        rows[5] = f"4,{label}"
        labels.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert run_cmd("embed", tiny_config, out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and message in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda cells: cells[:-1], "line 6: 5 values, expected 6"),
            (lambda cells: ["0x1"] + cells[1:], "line 6: could not convert string to float"),
            (lambda cells: cells[:2] + ["nan"] + cells[3:], "line 6: non-finite value"),
        ],
        ids=["ragged", "token", "nan"],
    )
    def test_malformed_embeddings_exit_3_naming_the_file(
        self, edit, message, tiny_config, tmp_path, capsys
    ):
        out = tmp_path / "run"
        for command in ("gen", "embed", "train"):
            assert run_cmd(command, tiny_config, out) == 0
        embeddings = out / "embeddings.csv"
        rows = embeddings.read_text().splitlines()
        rows[5] = ",".join(edit(rows[5].split(",")))
        embeddings.write_text("\n".join(rows) + "\n")
        for command in ("train", "eval"):
            capsys.readouterr()
            assert run_cmd(command, tiny_config, out) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: data:") and "embeddings.csv" in err
            assert message in err


    @pytest.mark.parametrize(
        "name", ["edges.tsv", "features.csv", "labels.csv", "splits.csv", "embeddings.csv", "run.cfg"]
    )
    def test_non_utf8_file_exits_naming_it(self, name, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        for command in ("gen", "embed"):
            assert run_cmd(command, tiny_config, out) == 0
        path = {"embeddings.csv": out / "embeddings.csv", "run.cfg": Path(tiny_config)}.get(
            name, out / "dataset" / name
        )
        path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
        capsys.readouterr()
        if name == "run.cfg":
            assert run_cmd("gen", tiny_config, out) == 2
        else:
            assert run_cmd("train" if name == "embeddings.csv" else "embed", tiny_config, out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: config:" if name == "run.cfg" else "error: data:")
        assert f"{path}: 'utf-8' codec can't decode byte 0xff" in err

    @pytest.mark.parametrize(
        "command, methods, message",
        [
            ("embed", "pcapass", "pca_fit needs at least 2 rows, got 1"),
            ("sweep", "pcapass", "need at least 2 classes, got 1"),
            ("sweep", "message_passing", "need at least 2 classes, got 1"),
        ],
    )
    def test_one_node_dataset_exits_3_naming_the_directory(
        self, command, methods, message, tmp_path, capsys
    ):
        # gen makes no 1-node dataset, whose node leaves two splits empty, so
        # the dataset is written as converted external data would be
        out = tmp_path / "run"
        (out / "dataset").mkdir(parents=True)
        for name, text in [
            ("edges.tsv", "\n"),
            ("features.csv", "0.5,-0.5\n"),
            ("labels.csv", "node_id,label\n0,0\n"),
            ("splits.csv", "node_id,split\n0,train\n"),
        ]:
            (out / "dataset" / name).write_text(text)
        config = write_config(tmp_path / "one.cfg", sweep_methods=methods)
        assert main([command, "--config", config, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: {out / 'dataset'}: ") and message in err

    def test_a_sweep_worker_error_exits_3_with_the_in_process_line(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(analysis_module, "_usable_cores", lambda: 2)
        config = write_config(tmp_path / "c.cfg", n_nodes=60, k_clusters=100, sweep_hops=2)
        out = tmp_path / "run"
        assert run_cmd("gen", config, out) == 0
        capsys.readouterr()
        errors = []
        for threads in ("1", "2"):
            assert run_cmd("sweep", config, out, extra=("--threads", threads)) == 3
            errors.append(capsys.readouterr().err)
        expected = f"error: data: {out / 'dataset'}: cluster count 100 exceeds 60 points\n"
        assert errors == [expected, expected]

    @pytest.mark.parametrize("key", ["sweep_hops", "kmeans_restarts"])
    def test_sweep_count_below_one_exits_2(self, key, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["gen", "--out", str(out)]) == 0
        config = write_config(tmp_path / "sweep.cfg", **{key: 0})
        capsys.readouterr()
        assert main(["sweep", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: config: {key} must be >= 1, got 0\n"

    @pytest.mark.parametrize(
        "keys, key",
        [
            (dict(n_nodes=3, n_classes=4), "train_frac"),
            (
                dict(n_nodes=40, n_classes=4, train_frac=0.04, valid_frac=0.48, test_frac=0.48),
                "train_frac",
            ),
            (
                dict(n_nodes=40, n_classes=4, train_frac=0.5, valid_frac=0.01, test_frac=0.49),
                "valid_frac",
            ),
            (
                dict(n_nodes=40, n_classes=4, train_frac=0.5, valid_frac=0.49, test_frac=0.01),
                "test_frac",
            ),
        ],
    )
    def test_gen_leaving_a_class_no_train_node_exits_2(self, keys, key, tmp_path, capsys):
        # The train cases once exited 3 (data) from generate_sbm, though no
        # file is read; the others wrote a dataset with an empty split.
        config = write_config(tmp_path / "gen.cfg", n_features=4, **keys)
        out = tmp_path / "run"
        assert main(["gen", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {key} = ")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["n_nodes", "n_features", "seed"])
    def test_gen_with_an_int_past_int64_exits_2(self, key, tmp_path, capsys):
        # n_nodes and n_features there once exited 4 from numpy
        config = write_config(tmp_path / "gen.cfg", **{key: 10**19})
        out = tmp_path / "run"
        assert main(["gen", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: config: {key} must be <= {2**63 - 1}, got {10**19}\n"
        )
        assert not out.exists()

    def test_gen_with_one_class_exits_2(self, tmp_path, capsys):
        # gen once wrote a one-class dataset: train then exited 3, and hpo
        # exited 0 with every run failed
        config = write_config(tmp_path / "gen.cfg", n_nodes=60, n_classes=1, n_features=4)
        out = tmp_path / "run"
        assert main(["gen", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: config: n_classes must be >= 2 to train a classifier, got 1\n"
        )
        assert not out.exists()

    def test_loaded_dataset_with_one_class_exits_3(self, tiny_config, tmp_path, capsys):
        # eval once scored a two-class model on it and exited 0
        out = tmp_path / "run"
        for command in ("gen", "embed", "train"):
            assert run_cmd(command, tiny_config, out) == 0
        (out / "metrics.json").unlink()
        labels = out / "dataset" / "labels.csv"
        labels.write_text(labels.read_text().replace(",1\n", ",0\n"))
        for command in ("train", "eval", "hpo"):
            capsys.readouterr()
            assert run_cmd(command, tiny_config, out) == 3
            assert capsys.readouterr().err == (
                f"error: data: {labels}: need at least 2 classes, got 1\n"
            )
        assert not (out / "metrics.json").exists()
        assert not (out / "hpo.csv").exists()

    def test_train_and_eval_read_only_labels_splits_and_embeddings(self, tiny_config, tmp_path):
        full, bare = tmp_path / "full", tmp_path / "bare"
        for command in ("gen", "embed"):
            assert run_cmd(command, tiny_config, full) == 0
        shutil.copytree(full, bare)
        for name in ("edges.tsv", "features.csv"):
            (bare / "dataset" / name).unlink()
        for command in ("train", "eval"):
            for out in (full, bare):
                assert run_cmd(command, tiny_config, out) == 0
            for name in ("model.bin", "model.txt", "metrics.json"):
                assert (bare / name).read_bytes() == (full / name).read_bytes(), name

    @pytest.mark.parametrize(
        "name, keep, message",
        [
            ("labels.csv", 1, "expected at least 1 row, found 0"),
            ("splits.csv", 200, "expected 200 rows, found 199"),
        ],
        ids=["header_only_labels", "splits_a_row_short"],
    )
    def test_labels_and_splits_of_another_size_exit_3_naming_the_file(
        self, name, keep, message, tiny_config, tmp_path, capsys
    ):
        # train and eval take the node count from labels.csv
        out = tmp_path / "run"
        for command in ("gen", "embed", "train"):
            assert run_cmd(command, tiny_config, out) == 0
        (out / "metrics.json").unlink()
        path = out / "dataset" / name
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:keep]))
        for command in ("train", "eval"):
            capsys.readouterr()
            assert run_cmd(command, tiny_config, out) == 3
            assert capsys.readouterr().err == f"error: data: {path}: {message}\n"
        assert not (out / "metrics.json").exists()

    def test_sweep_of_a_one_label_dataset_exits_3(self, tiny_config, tmp_path, capsys):
        # it once wrote a sweep.csv whose every v-measure read 1
        out = tmp_path / "run"
        assert run_cmd("gen", tiny_config, out) == 0
        labels = out / "dataset" / "labels.csv"
        labels.write_text(labels.read_text().replace(",1\n", ",0\n"))
        for k_clusters in (0, 2):
            config = write_config(tmp_path / "one.cfg", sweep_hops=2, k_clusters=k_clusters)
            capsys.readouterr()
            assert run_cmd("sweep", config, out) == 3
            assert capsys.readouterr().err == (
                f"error: data: {out / 'dataset'}: need at least 2 classes, got 1\n"
            )
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("split", ["valid", "test"])
    def test_loaded_dataset_with_an_empty_split_exits_3(
        self, split, tiny_config, tmp_path, capsys
    ):
        # Once train exited 3 with numpy's "zero-size array" on an empty valid
        # split and wrote "test_accuracy": NaN on an empty test split, and hpo
        # exited 0 after every run failed.
        out = tmp_path / "run"
        for command in ("gen", "embed", "train"):
            assert run_cmd(command, tiny_config, out) == 0
        (out / "metrics.json").unlink()
        splits = out / "dataset" / "splits.csv"
        splits.write_text(splits.read_text().replace(f",{split}\n", ",train\n"))
        for command in ("train", "eval", "hpo"):
            capsys.readouterr()
            assert run_cmd(command, tiny_config, out) == 3
            assert capsys.readouterr().err == f"error: data: {splits}: no {split} node\n"
        assert not (out / "metrics.json").exists()
        assert not (out / "hpo.csv").exists()

    def test_negative_k_clusters_exits_2(self, tmp_path, capsys):
        # k_clusters = -3 once meant "the label count" and exited 0.
        out = tmp_path / "run"
        assert main(["gen", "--out", str(out)]) == 0
        config = write_config(tmp_path / "sweep.cfg", k_clusters=-3, sweep_hops=1)
        capsys.readouterr()
        assert main(["sweep", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: config: k_clusters must be >= 0, got -3\n"
        assert not (out / "sweep.csv").exists()

    def test_class_missing_from_train_exits_3_naming_the_directory(
        self, tiny_config, tmp_path, capsys
    ):
        out = tmp_path / "run"
        assert run_cmd("gen", tiny_config, out) == 0
        assert run_cmd("embed", tiny_config, out) == 0
        ds = load_dataset(out / "dataset")
        split = ds.split.copy()
        split[(ds.y == 1) & (split == TRAIN)] = TEST
        save_dataset(dataclasses.replace(ds, split=split), out / "dataset")
        capsys.readouterr()
        assert run_cmd("train", tiny_config, out) == 3
        err = capsys.readouterr().err
        assert err == f"error: data: {out / 'dataset'}: class 1 missing from training labels\n"

    @pytest.mark.parametrize(
        "command, keys, message",
        [
            ("sweep", dict(sweep_methods="pcapass,nope"), "unknown method 'nope'"),
            ("hpo", dict(hpo_k_min=5, hpo_k_max=3), "k range is inverted"),
            ("hpo", dict(method="nope"), "unknown method 'nope'"),
            ("embed", dict(method="nope"), "unknown method 'nope'"),
            ("train", dict(learning_rate=0), "learning_rate must be > 0, got 0.0"),
        ],
    )
    def test_analysis_keys_are_checked_before_the_dataset_loads(
        self, command, keys, message, tmp_path, capsys
    ):
        # there is no dataset: hpo, embed and train once loaded it first and
        # exited 3
        config = write_config(tmp_path / "a.cfg", **keys)
        assert main([command, "--config", config, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and message in err

    @pytest.mark.parametrize("runs", [0, -1])
    def test_hpo_runs_below_one_exits_2(self, runs, tmp_path, capsys):
        # hpo_runs = 0 once exited 4 with random_search's "n_runs must be >= 1"
        out = tmp_path / "run"
        assert main(["gen", "--out", str(out)]) == 0
        config = write_config(tmp_path / "hpo.cfg", hpo_runs=runs)
        capsys.readouterr()
        assert main(["hpo", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: config: hpo_runs must be >= 1, got {runs}\n"


    def test_config_line_without_equals_exits_2_naming_the_line(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("seed 3\n")
        assert main(["gen", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config: {config}: line 1: expected 'key = value'\n"

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        config = tmp_path / "absent.cfg"
        assert main(["gen", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: config: config file not found: {config}\n"

    def test_train_without_embeddings_exits_3_naming_the_file(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cmd("gen", tiny_config, out) == 0
        capsys.readouterr()
        assert run_cmd("train", tiny_config, out) == 3
        err = capsys.readouterr().err
        assert err == f"error: data: missing embeddings file: {out / 'embeddings.csv'}\n"

    def test_embeddings_a_row_short_exit_3_naming_the_file(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        for command in ("gen", "embed"):
            assert run_cmd(command, tiny_config, out) == 0
        embeddings = out / "embeddings.csv"
        embeddings.write_text("".join(embeddings.read_text().splitlines(keepends=True)[:-1]))
        capsys.readouterr()
        assert run_cmd("train", tiny_config, out) == 3
        err = capsys.readouterr().err
        assert err == f"error: data: {embeddings}: 199 rows but the dataset has 200 nodes\n"

    def test_eval_without_a_model_exits_3_naming_the_file(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        for command in ("gen", "embed"):
            assert run_cmd(command, tiny_config, out) == 0
        capsys.readouterr()
        assert run_cmd("eval", tiny_config, out) == 3
        assert capsys.readouterr().err == f"error: data: missing model file: {out / 'model.bin'}\n"


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """A saved 30-node dataset as {file name: lines}, and an embed config."""
    root = tmp_path_factory.mktemp("tiny")
    ds = generate_sbm(SbmParams(n_nodes=30, n_classes=2, n_features=3, p_in=0.2, seed=0))
    save_dataset(ds, root)
    names = ("edges.tsv", "features.csv", "labels.csv", "splits.csv")
    files = {name: (root / name).read_text().splitlines() for name in names}
    return files, write_config(root / "embed.cfg", k=2, d=4)


_DATASET_LINES = st.one_of(
    st.sampled_from(
        [
            "", " ", "#", "node_id,label", "node_id,split", "0\t29", "0\t30", "-1\t2",
            "3\t1_0", "3,1", "3,2", "3,29", "3,30", "3,-1", "3,1000000000000000",
            f"3,{2**63}", "3,99999999999999999999", "3,valid", "3,holdout", "30,1",
            "3,1,1", "nan,0,0", "1e39,0,0", "0.5,0.5", "0.5,0.5,0.5,0.5", "x,y,z",
        ]
    ),
    st.text(alphabet="0123456789,.-+e\t #_xn", max_size=12),
)


@given(
    name=st.sampled_from(["edges.tsv", "features.csv", "labels.csv", "splits.csv"]),
    edit=st.sampled_from(["replace", "drop", "duplicate"]),
    index=st.integers(0, 10**6),
    line=_DATASET_LINES,
)
@example(name="labels.csv", edit="replace", index=4, line="3,99999999999999999999")
@settings(max_examples=120, deadline=None)
def test_one_edited_dataset_line_loads_or_exits_3(
    tiny_dataset, tmp_path_factory, name, edit, index, line
):
    files, config = tiny_dataset
    out = tmp_path_factory.mktemp("fuzz")
    (out / "dataset").mkdir()
    for file_name, lines in files.items():
        lines = list(lines)
        if file_name == name:
            i = index % len(lines)
            if edit == "replace":
                lines[i] = line
            elif edit == "drop":
                del lines[i]
            else:
                lines.insert(i, lines[i])
        (out / "dataset" / file_name).write_text("\n".join(lines) + "\n")
    try:
        load_dataset(out / "dataset")
    except DataError:
        pass
    assert main(["embed", "--config", config, "--out", str(out)]) in (0, 3)


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    """A config whose dataset and embeddings live outside `--out`, and a
    small 4-class `model.bin` trained on them."""
    root = tmp_path_factory.mktemp("trained")
    config = write_config(
        root / "run.cfg",
        n_nodes=60,
        n_classes=4,
        n_features=4,
        p_in=0.2,
        k=2,
        d=4,
        n_rounds=4,
        max_depth=2,
        dataset_dir=root / "dataset",
        embeddings_path=root / "embeddings.csv",
    )
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("gen", "embed", "train"):
            assert main([command, "--config", config, "--out", str(root)]) == 0
    return config, root / "model.bin"


def _reject_constant(name):
    raise ValueError(f"metrics.json holds {name}, which is not JSON")


# Bit 6 of the high byte of the first base score. Base scores are log class
# priors; at a prior of 1/4 the exponent is 0x3ff, and this flip makes it
# 0x7ff: a NaN.
_BASE_SCORE_FLIP = 8 * (4 + _HEADER.size + 7) + 6
# The sign bit of the best round, which follows the magic, the version, the
# GbdtParams fields and the class and feature counts. The flip makes the best
# round negative, far below -1, which once scored with no stored round at all.
_BEST_ROUND_SIGN_FLIP = 8 * (4 + struct.calcsize("<I" + PARAMS_FORMAT + "II") + 3) + 7


@given(
    edit=st.sampled_from(["cut", "pad", "flip"]),
    index=st.integers(0, 10**6),
    pad=st.binary(min_size=1, max_size=16),
)
@example(edit="flip", index=_BASE_SCORE_FLIP, pad=b"\0")
@example(edit="flip", index=_BEST_ROUND_SIGN_FLIP, pad=b"\0")
@settings(max_examples=150, deadline=None)
def test_edited_model_file_evaluates_or_exits_3(
    trained_model, tmp_path_factory, edit, index, pad
):
    config, model = trained_model
    blob = model.read_bytes()
    if edit == "cut":
        data = blob[: index % len(blob)]
    elif edit == "pad":
        data = blob + pad
    else:
        bit = index % (8 * len(blob))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << bit % 8
        data = bytes(flipped)
    out = tmp_path_factory.mktemp("model_fuzz")
    (out / "model.bin").write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["eval", "--config", config, "--out", str(out)])
    if edit == "flip":
        assert code in (0, 3), err.getvalue()
    else:
        assert code == 3 and "model.bin" in err.getvalue()
    if code == 0:
        metrics = json.loads((out / "metrics.json").read_text(), parse_constant=_reject_constant)
        assert -1 <= metrics["best_round"] < metrics["n_rounds"]


class TestConfigPrecedence:
    def test_flag_overrides_file(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        config = write_config(
            tmp_path / "c.cfg", n_nodes=60, n_classes=2, n_features=4, seed=1
        )
        assert main(["gen", "--config", config, "--out", str(out_a)]) == 0
        assert main(["gen", "--config", config, "--out", str(out_b), "--seed", "1"]) == 0
        a = (out_a / "dataset" / "features.csv").read_bytes()
        b = (out_b / "dataset" / "features.csv").read_bytes()
        assert a == b  # file seed and flag seed agree

        out_c = tmp_path / "c"
        assert main(["gen", "--config", config, "--out", str(out_c), "--seed", "2"]) == 0
        assert (out_c / "dataset" / "features.csv").read_bytes() != a

    def test_file_overrides_default(self, tmp_path):
        config = write_config(tmp_path / "c.cfg", n_nodes=33, n_classes=3, n_features=4)
        out = tmp_path / "o"
        assert main(["gen", "--config", config, "--out", str(out)]) == 0
        labels = (out / "dataset" / "labels.csv").read_text().splitlines()
        assert len(labels) == 1 + 33


class TestHelp:
    def test_help_lists_every_config_key_with_default(self, capsys):
        assert main(["gen", "--help"]) == 0
        text = capsys.readouterr().out
        for field in dataclasses.fields(RunConfig):
            entry = f"{field.name} = {field.default!r}"
            assert entry in text, f"{entry!r} missing from --help"

    @pytest.mark.parametrize("command", [[], ["gen"], ["train"], ["hpo"]])
    def test_no_help_line_passes_100_columns(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")  # argparse wraps its own text to this
        assert main([*command, "--help"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert max(len(line) for line in lines) <= 100

    def test_top_level_help(self, capsys):
        assert main(["--help"]) == 0
        text = capsys.readouterr().out
        for command in ("gen", "embed", "train", "eval", "sweep", "hpo"):
            assert command in text


@pytest.mark.parametrize(
    "exc, code, kind",
    [
        (ConfigError("bad\nkey"), 2, "config"),
        (DataError("bad file"), 3, "data"),
        (ZeroDivisionError("division by zero"), 4, "runtime"),
    ],
)
def test_script_entry_maps_errors_like_main(exc, code, kind, capsys):
    def run(cfg):
        raise exc

    assert run_script(run, "a script", []) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {kind}: ") and err.count("\n") == 1


def test_script_entry_passes_the_seed_flag(tmp_path):
    config = write_config(tmp_path / "c.cfg", seed=3, n_nodes=50)
    seen = []

    def run(cfg):
        seen.append((cfg.seed, cfg.n_nodes))

    assert run_script(run, "a script", ["--config", config]) == 0
    assert run_script(run, "a script", ["--config", config, "--seed", "8"]) == 0
    assert seen == [(3, 50), (8, 50)]


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pcapass", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "configuration keys" in proc.stdout


MODULE_PROBE = """
import sys
import pcapass.cli
modules, config, out, *commands = sys.argv[1:]
def loaded():
    return [name for name in modules.split(",") if name in sys.modules]
seen = {"import": loaded()}
for command in commands:
    assert pcapass.cli.main([command, "--config", config, "--out", out]) == 0
    seen[command] = loaded()
print(seen)
"""


def modules_loaded(modules, config, out, commands):
    """Which of `modules` a fresh interpreter holds after `import pcapass.cli`
    and after each of `commands`, run in-process in order."""
    proc = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, ",".join(modules), config, str(out), *commands],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_scipy_sparse_loads_only_when_a_hop_aggregates(tiny_config, tmp_path):
    # Only aggregation uses scipy.sparse, and its import once cost every
    # command about 0.3 s of start-up.
    out = tmp_path / "run"
    for command in ("gen", "embed"):
        assert run_cmd(command, tiny_config, out) == 0
    seen = modules_loaded(["scipy.sparse"], tiny_config, out, ["gen", "train", "eval", "embed"])
    assert seen == str(
        {"import": [], "gen": [], "train": [], "eval": [], "embed": ["scipy.sparse"]}
    )


def test_process_modules_load_only_when_a_pool_starts(tmp_path):
    # multiprocessing and concurrent.futures cost about 8-10 ms of import,
    # so only a pool of more than one worker imports them, even at
    # threads = 2. scipy.sparse imports concurrent.futures itself, so embed
    # loads it through aggregation. hpo at the end shows the probe sees them.
    config = write_config(tmp_path / "run.cfg", n_nodes=200, n_features=6, k=2, d=6,
                          n_rounds=10, hpo_runs=2, hpo_rounds=5, threads=2)
    out = tmp_path / "run"
    for command in ("gen", "embed"):
        assert run_cmd(command, config, out) == 0
    pool = analysis_module._usable_cores() >= 2
    seen = modules_loaded(["multiprocessing", "concurrent.futures"], config, out,
                          ["gen", "train", "eval", "embed", "hpo"])
    assert seen == str({
        "import": [], "gen": [], "train": [], "eval": [], "embed": ["concurrent.futures"],
        "hpo": ["multiprocessing", "concurrent.futures"] if pool else ["concurrent.futures"],
    })
