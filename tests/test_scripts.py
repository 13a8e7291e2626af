"""Smoke test: each experiment script runs at a tiny size and prints its
final summary line."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ["run_pipeline.py", "run_oversmoothing.py", "run_generalization.py"]
TINY = dict(n_nodes=200, n_classes=2, n_features=4)


@pytest.mark.parametrize(
    "script, extra, last_line",
    [
        ("run_pipeline.py", dict(k=2, d=4), "lift         : "),
        ("run_oversmoothing.py", dict(sweep_hops=3), "skip_connections: best v-measure"),
        ("run_generalization.py", dict(hpo_runs=2), "pearson(valid CE, test accuracy) = "),
    ],
)
def test_script_runs_at_tiny_size(script, extra, last_line, tmp_path):
    proc = run_script(script, write_config(tmp_path, **TINY, **extra))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(last_line)


def test_generalization_without_a_correlation_prints_n_a(tmp_path):
    # 20 nodes leave too few test rows for the accuracy to vary across runs,
    # so hpo_summary has no Pearson correlation to report.
    config = write_config(
        tmp_path, n_nodes=20, n_classes=2, n_features=2, hpo_runs=2, feature_signal=5
    )
    proc = run_script("run_generalization.py", config)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "pearson(valid CE, test accuracy) = n/a"


@pytest.mark.parametrize("script", SCRIPTS)
@pytest.mark.parametrize(
    "keys, message",
    [
        (dict(not_a_key=5), "unknown config key 'not_a_key'"),
        (dict(p_in=0.001, p_out=0.5), "need 0 <= p_out <= p_in <= 1"),
        # run_pipeline.py once exited 4 from gbdt_train, and
        # run_generalization.py exited 0 with every run failed
        (dict(n_nodes=60, n_classes=1), "n_classes must be >= 2"),
    ],
    ids=["unknown_key", "rejected_value", "one_class"],
)
def test_bad_config_exits_2_with_one_error_line(script, keys, message, tmp_path):
    proc = run_script(script, write_config(tmp_path, **keys))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: config: ") and message in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_a_learning_rate_that_overflows_a_leaf_exits_2_from_the_pipeline(tmp_path):
    # it once exited 4 here and 3 from `pcapass train`
    config = write_config(tmp_path, n_nodes=200, learning_rate=1e308, k=1, n_rounds=3)
    proc = run_script("run_pipeline.py", config)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: config: round 0 grew a non-finite leaf; lower learning_rate\n"


def test_sweep_that_cannot_cluster_exits_3_with_one_error_line(tmp_path):
    # 100 clusters of 40 nodes once died with a kmeans traceback
    proc = run_script("run_oversmoothing.py", write_config(tmp_path, n_nodes=40, k_clusters=100))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: data: generated dataset: cluster count 100 exceeds 40 points\n"
    )


def test_scripts_define_no_main_and_import_no_private_name():
    # each script is its `run(cfg)` and its printing; pcapass.cli.run_script
    # is the entry, so every script fails with the CLI's exit codes
    for script in SCRIPTS:
        tree = ast.parse((ROOT / "scripts" / script).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            assert getattr(node, "name", None) != "main", script
            if isinstance(node, ast.ImportFrom) and node.module.startswith("pcapass"):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, f"{script} imports {private} from {node.module}"


def write_config(directory, **keys):
    path = directory / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


def run_script(script, config):
    """Run `script` on `config` at the seed the scripts once defaulted to."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--config", str(config), "--seed", "7"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
