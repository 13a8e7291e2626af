import dataclasses
import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from pcapass import gbdt_from_bytes
from pcapass.cli import main
from pcapass.config import RunConfig
from pcapass.gbdt import _HEADER

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
        assert (out / "model.bin").is_file() and (out / "model.txt").is_file()
        assert (out / "pca_models.bin").is_file()

        train_metrics = (out / "metrics.json").read_bytes()
        assert run_cmd("eval", tiny_config, out) == 0
        assert (out / "metrics.json").read_bytes() == train_metrics

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


class TestErrors:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("not_a_key = 5\n")
        assert main(["gen", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "not_a_key" in err

    def test_bad_config_value_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("k = banana\n")
        assert main(["embed", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "error: config:" in capsys.readouterr().err

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

    def test_eval_with_mismatched_embeddings_exits_3(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        run_cmd("gen", tiny_config, out)
        run_cmd("embed", tiny_config, out)
        run_cmd("train", tiny_config, out)
        # re-embed narrower than the trained model expects
        narrow = write_config(tmp_path / "narrow.cfg", k=1, d=2, n_features=6)
        assert run_cmd("embed", narrow, out) == 0
        assert run_cmd("eval", tiny_config, out) == 3

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

    @pytest.mark.parametrize(
        "keys, message",
        [
            ({"hpo_k_min": 5, "hpo_k_max": 3}, "k range is inverted"),
            ({"hpo_lr_min": 0}, "learning_rate lower bound must be > 0"),
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

    def test_top_level_help(self, capsys):
        assert main(["--help"]) == 0
        text = capsys.readouterr().out
        for command in ("gen", "embed", "train", "eval", "sweep", "hpo"):
            assert command in text


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pcapass", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "configuration keys" in proc.stdout
