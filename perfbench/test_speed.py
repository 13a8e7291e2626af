"""Tests for the calibration of step times by the speed probe.

    python3 -m pytest perfbench/test_speed.py
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402

import speed  # noqa: E402


def test_a_step_is_scaled_by_the_mean_of_the_probes_around_it(monkeypatch):
    probes = iter([2.0, 4.0, 1.0])
    monkeypatch.setattr(speed, "kernel_time", lambda: next(probes) * speed.REF_KERNEL_S)
    probe = speed.SpeedProbe()
    assert probe.calibrate(6.0) == pytest.approx(6.0 / 3.0)  # probes 2 and 4
    assert probe.calibrate(5.0) == pytest.approx(5.0 / 2.5)  # probes 4 and 1


def test_kernel_time_is_positive_and_restores_the_affinity():
    before = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    assert speed.kernel_time() > 0.0
    if before is not None:
        assert os.sched_getaffinity(0) == before
