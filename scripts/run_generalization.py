#!/usr/bin/env python3
"""Random hyperparameter search over embedding and classifier settings;
reports how strongly validation loss predicts test accuracy."""

import sys

from pcapass import SbmParams, generate_sbm, hpo_summary
from pcapass.cli import run_script, search
from pcapass.config import from_config


def run(cfg):
    records = search(cfg, lambda: generate_sbm(from_config(SbmParams, cfg)))
    for i, rec in enumerate(records):
        p = rec.params
        print(
            f"run {i:2d}: k={p['k']:2d} d={p['d']:2d} lr={p['learning_rate']:.3f} "
            f"depth={p['max_depth']} -> valid CE {rec.valid_ce:.4f}, "
            f"test accuracy {rec.test_accuracy:.4f}"
        )
    summary = hpo_summary(records)
    print(f"\nbest run by validation loss: {_fmt(summary['best_run'], 'd')} "
          f"(test accuracy {_fmt(summary['best_run_test_accuracy'])})")
    print("pearson(valid CE, test accuracy) = "
          f"{_fmt(summary['pearson_valid_ce_vs_test_accuracy'])}")


def _fmt(value, spec=".4f"):
    """`hpo_summary` gives None when every run failed or the correlation is
    undefined (constant test accuracy)."""
    return "n/a" if value is None else format(value, spec)


if __name__ == "__main__":
    sys.exit(run_script(run, __doc__))
