#!/usr/bin/env python3
"""Random hyperparameter search over embedding and classifier settings;
reports how strongly validation loss predicts test accuracy."""

import argparse
import sys

from pcapass import (
    ConfigError,
    Method,
    SbmParams,
    SearchSpace,
    generate_sbm,
    hpo_summary,
    random_search,
)
from pcapass.cli import EXIT_CONFIG, _check_counts, _choice, _params, _report
from pcapass.config import build_config


def run(cfg):
    _check_counts(cfg, "hpo_runs")
    space, method = _params(SearchSpace, cfg), _choice(Method, cfg.method)
    ds = generate_sbm(_params(SbmParams, cfg))
    records = random_search(space, n_runs=cfg.hpo_runs, seed=cfg.seed, dataset=ds, method=method)
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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", metavar="PATH", help="flat key = value config file")
    parser.add_argument("--seed", type=int, metavar="N", help="override the seed key")
    args = parser.parse_args()
    try:
        run(build_config(args.config, {} if args.seed is None else {"seed": args.seed}))
    except ConfigError as exc:
        _report("config", exc)
        sys.exit(EXIT_CONFIG)


if __name__ == "__main__":
    main()
