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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *TINY, *extra],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(last_line)
