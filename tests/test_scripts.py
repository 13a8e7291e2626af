"""Smoke test: each experiment script runs at a tiny size and prints its
final summary line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TINY = ["--n-nodes", "200", "--n-classes", "2", "--n-features", "4"]


@pytest.mark.parametrize(
    "script, extra, last_line",
    [
        ("run_pipeline.py", ["--k", "2", "--d", "4"], "lift         : "),
        ("run_oversmoothing.py", ["--max-hops", "3"], "skip_connections: best v-measure"),
        ("run_generalization.py", ["--runs", "2"], "pearson(valid CE, test accuracy) = "),
    ],
)
def test_script_runs_at_tiny_size(script, extra, last_line):
    proc = run_script(script, *TINY, *extra)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(last_line)


def test_generalization_without_a_correlation_prints_n_a():
    # 20 nodes leave too few test rows for the accuracy to vary across runs,
    # so hpo_summary has no Pearson correlation to report.
    proc = run_script(
        "run_generalization.py",
        *("--n-nodes", "20", "--n-classes", "2", "--n-features", "2"),
        *("--runs", "2", "--feature-signal", "5"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "pearson(valid CE, test accuracy) = n/a"


def run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
