#!/usr/bin/env python3
"""Hop sweep: cluster each method's embeddings at every hop count and track
how v-measure decays as the receptive field grows."""

import argparse
import sys

from pcapass import ConfigError, SbmParams, generate_sbm, oversmoothing_sweep
from pcapass.cli import EXIT_CONFIG, _params, _report, _sweep_methods
from pcapass.config import build_config


def run(cfg):
    methods = _sweep_methods(cfg)
    ds = generate_sbm(_params(SbmParams, cfg))
    results = oversmoothing_sweep(
        ds.graph, ds.X, ds.y, methods, max_hops=cfg.sweep_hops,
        k_clusters=cfg.k_clusters, seed=cfg.seed, kmeans_restarts=cfg.kmeans_restarts,
    )
    print(f"{'k':>3} " + " ".join(f"{r.method.value:>18}" for r in results))
    for i in range(cfg.sweep_hops):
        cells = " ".join(f"{r.v_measures[i]:>18.4f}" for r in results)
        print(f"{i + 1:>3} {cells}")
    for r in results:
        print(f"{r.method.value}: best v-measure {r.v_measures.max():.4f} at k={r.argmax_k}")


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
