#!/usr/bin/env python3
"""Hop sweep: cluster each method's embeddings at every hop count and track
how v-measure decays as the receptive field grows."""

import sys

from pcapass import SbmParams, generate_sbm
from pcapass.cli import run_script, sweep
from pcapass.config import from_config


def run(cfg):
    results = sweep(cfg, lambda: generate_sbm(from_config(SbmParams, cfg)), "generated dataset")
    print(f"{'k':>3} " + " ".join(f"{r.method.value:>18}" for r in results))
    for i in range(cfg.sweep_hops):
        cells = " ".join(f"{r.v_measures[i]:>18.4f}" for r in results)
        print(f"{i + 1:>3} {cells}")
    for r in results:
        print(f"{r.method.value}: best v-measure {r.v_measures.max():.4f} at k={r.argmax_k}")


if __name__ == "__main__":
    sys.exit(run_script(run, __doc__))
