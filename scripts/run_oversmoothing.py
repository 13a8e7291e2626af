#!/usr/bin/env python3
"""Hop sweep: cluster each method's embeddings at every hop count and track
how v-measure decays as the receptive field grows."""

import argparse

from pcapass import Method, SbmParams, generate_sbm, oversmoothing_sweep


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
    methods = [Method.PCAPASS, Method.MESSAGE_PASSING, Method.SKIP_CONNECTIONS]
    results = oversmoothing_sweep(
        ds.graph, ds.X, ds.y, methods, max_hops=args.max_hops,
        seed=args.seed,
    )
    print(f"{'k':>3} " + " ".join(f"{r.method.value:>18}" for r in results))
    for i in range(args.max_hops):
        cells = " ".join(f"{r.v_measures[i]:>18.4f}" for r in results)
        print(f"{i + 1:>3} {cells}")
    for r in results:
        print(f"{r.method.value}: best v-measure {r.v_measures.max():.4f} at k={r.argmax_k}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-nodes", type=int, default=2000)
    parser.add_argument("--n-classes", type=int, default=4)
    parser.add_argument("--p-in", type=float, default=0.05)
    parser.add_argument("--p-out", type=float, default=0.005)
    parser.add_argument("--n-features", type=int, default=16)
    parser.add_argument("--feature-signal", type=float, default=1.0)
    parser.add_argument("--max-hops", type=int, default=30)
    parser.add_argument("--seed", type=int, default=7)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
