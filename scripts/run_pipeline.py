#!/usr/bin/env python3
"""End-to-end experiment: synthesize a graph, embed, classify, and compare
against the same classifier on raw features."""

import argparse
import sys

from pcapass import (
    ConfigError,
    EmbedConfig,
    GbdtParams,
    SbmParams,
    accuracy,
    embed,
    gbdt_predict,
    gbdt_train,
    generate_sbm,
)
from pcapass.cli import EXIT_CONFIG, _params, _report
from pcapass.config import build_config
from pcapass.datasets import TEST, TRAIN, VALID


def run(cfg):
    sbm, embed_cfg, params = (_params(cls, cfg) for cls in (SbmParams, EmbedConfig, GbdtParams))
    ds = generate_sbm(sbm)
    tr, va, te = ds.indices(TRAIN), ds.indices(VALID), ds.indices(TEST)

    raw = gbdt_train(ds.X[tr], ds.y[tr], ds.X[va], ds.y[va], params)
    raw_acc = accuracy(gbdt_predict(raw, ds.X[te]), ds.y[te])
    print(f"raw features : test accuracy {raw_acc:.4f} "
          f"({raw.best_round + 1} rounds kept)")

    emb = embed(ds.graph, ds.X, embed_cfg).embeddings
    boosted = gbdt_train(emb[tr], ds.y[tr], emb[va], ds.y[va], params)
    emb_acc = accuracy(gbdt_predict(boosted, emb[te]), ds.y[te])
    print(f"embeddings   : test accuracy {emb_acc:.4f} "
          f"({boosted.best_round + 1} rounds kept, k={embed_cfg.k}, d={embed_cfg.d})")
    print(f"lift         : {100 * (emb_acc - raw_acc):+.1f} accuracy points")


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
