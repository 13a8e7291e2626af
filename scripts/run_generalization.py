#!/usr/bin/env python3
"""Random hyperparameter search over embedding and classifier settings;
reports how strongly validation loss predicts test accuracy."""

import argparse

from pcapass import Method, SbmParams, SearchSpace, generate_sbm, hpo_summary, random_search


def run(args):
    ds = generate_sbm(
        SbmParams(
            n_nodes=args.n_nodes,
            n_classes=args.n_classes,
            p_in=args.p_in,
            p_out=args.p_out,
            n_features=args.n_features,
            feature_signal=args.feature_signal,
            seed=args.seed,
        )
    )
    records = random_search(
        SearchSpace(),
        n_runs=args.runs,
        seed=args.seed,
        dataset=ds,
        method=Method(args.method),
        threads=args.threads,
    )
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
    parser.add_argument("--n-nodes", type=int, default=2000)
    parser.add_argument("--n-classes", type=int, default=4)
    parser.add_argument("--p-in", type=float, default=0.05)
    parser.add_argument("--p-out", type=float, default=0.005)
    parser.add_argument("--n-features", type=int, default=16)
    parser.add_argument("--feature-signal", type=float, default=1.0)
    parser.add_argument(
        "--method",
        choices=["pcapass", "message_passing", "skip_connections"],
        default="pcapass",
    )
    parser.add_argument("--runs", type=int, default=50)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
