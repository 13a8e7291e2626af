#!/usr/bin/env python3
"""End-to-end experiment: synthesize a graph, embed, classify, and compare
against the same classifier on raw features."""

import sys

from pcapass import (
    EmbedConfig,
    GbdtParams,
    SbmParams,
    accuracy,
    embed,
    gbdt_predict,
    gbdt_train,
    generate_sbm,
)
from pcapass.cli import run_script
from pcapass.config import from_config
from pcapass.datasets import TEST, TRAIN, VALID


def run(cfg):
    sbm, embed_cfg, params = (from_config(cls, cfg) for cls in (SbmParams, EmbedConfig, GbdtParams))
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


if __name__ == "__main__":
    sys.exit(run_script(run, __doc__))
