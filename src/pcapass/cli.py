"""Command-line surface: gen, embed, train, eval, sweep, hpo.

Every command is a pure function of (config file, flags, input files) and
writes its outputs atomically, so re-running with the same inputs overwrites
outputs identically. Exit codes: 0 success, 2 config error, 3 data error,
4 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .aggregate import Aggregator
from .analysis import SearchSpace, hpo_summary, oversmoothing_sweep, random_search
from .config import RunConfig, build_config, config_help_text
from .datasets import TEST, TRAIN, VALID, Dataset, SbmParams, generate_sbm, load_dataset, save_dataset
from .embed import (
    EmbedConfig,
    Method,
    embed,
    embeddings_from_csv,
    embeddings_to_binary,
    embeddings_to_csv,
)
from .errors import ConfigError, DataError
from .fileio import write_bytes_atomic, write_text_atomic
from .gbdt import (
    GbdtModel,
    GbdtParams,
    gbdt_dump_text,
    gbdt_from_bytes,
    gbdt_predict,
    gbdt_predict_proba,
    gbdt_to_bytes,
    gbdt_train,
)
from .metrics import accuracy, cross_entropy
from .pca import models_to_bytes

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _dataset_dir(cfg: RunConfig) -> Path:
    return Path(cfg.dataset_dir) if cfg.dataset_dir else Path(cfg.out) / "dataset"


def _embeddings_path(cfg: RunConfig) -> Path:
    return Path(cfg.embeddings_path) if cfg.embeddings_path else Path(cfg.out) / "embeddings.csv"


def _model_path(cfg: RunConfig) -> Path:
    return Path(cfg.model_path) if cfg.model_path else Path(cfg.out) / "model.bin"


def _choice(enum, value: str):
    """The member of `enum` named by a config value."""
    try:
        return enum(value)
    except ValueError:
        raise ConfigError(f"unknown {enum.__name__.lower()} {value!r}") from None


def _params(cls, cfg: RunConfig, **converted):
    """Build dataclass `cls` from the config keys of the same names, with
    `converted` replacing the raw values of keys that need it."""
    values = {f.name: getattr(cfg, f.name) for f in fields(cls)}
    values.update(converted)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _embed_config(cfg: RunConfig) -> EmbedConfig:
    aggregator = _choice(Aggregator, cfg.aggregator)
    method = _choice(Method, cfg.method)
    return _params(EmbedConfig, cfg, aggregator=aggregator, method=method)


def _load_embeddings(cfg: RunConfig, n_nodes: int) -> np.ndarray:
    path = _embeddings_path(cfg)
    if not path.is_file():
        raise DataError(f"missing embeddings file: {path}")
    try:
        H = embeddings_from_csv(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    if H.shape[0] != n_nodes:
        raise DataError(f"{path}: {H.shape[0]} rows but the dataset has {n_nodes} nodes")
    return H


def _metrics(model: GbdtModel, H: np.ndarray, ds: Dataset) -> dict:
    out = {"best_round": model.best_round, "n_rounds": len(model.rounds)}
    for name, which in (("train", TRAIN), ("valid", VALID), ("test", TEST)):
        idx = ds.indices(which)
        out[f"{name}_accuracy"] = accuracy(gbdt_predict(model, H[idx]), ds.y[idx])
    valid = ds.indices(VALID)
    out["valid_cross_entropy"] = cross_entropy(
        gbdt_predict_proba(model, H[valid]), ds.y[valid]
    )
    return out


def _write_json(path: Path, payload: dict) -> None:
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def cmd_gen(cfg: RunConfig) -> None:
    ds = generate_sbm(_params(SbmParams, cfg))
    target = _dataset_dir(cfg)
    save_dataset(ds, target)
    print(f"wrote {target}")


def cmd_embed(cfg: RunConfig) -> None:
    ds = load_dataset(_dataset_dir(cfg))
    result = embed(ds.graph, ds.X, _embed_config(cfg))
    path = _embeddings_path(cfg)
    write_text_atomic(path, embeddings_to_csv(result.embeddings))
    print(f"wrote {path}")
    if cfg.embed_binary:
        bin_path = path.with_suffix(".bin")
        write_bytes_atomic(bin_path, embeddings_to_binary(result.embeddings))
        print(f"wrote {bin_path}")
    if result.per_hop_models:
        models_path = Path(cfg.out) / "pca_models.bin"
        write_bytes_atomic(models_path, models_to_bytes(result.per_hop_models))
        print(f"wrote {models_path}")


def cmd_train(cfg: RunConfig) -> None:
    ds = load_dataset(_dataset_dir(cfg))
    H = _load_embeddings(cfg, ds.n_nodes)
    params = _params(GbdtParams, cfg)
    tr, va = ds.indices(TRAIN), ds.indices(VALID)
    try:
        model = gbdt_train(H[tr], ds.y[tr], H[va], ds.y[va], params)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    model_file = _model_path(cfg)
    write_bytes_atomic(model_file, gbdt_to_bytes(model))
    print(f"wrote {model_file}")
    write_text_atomic(model_file.with_suffix(".txt"), gbdt_dump_text(model))
    _write_json(Path(cfg.out) / "metrics.json", _metrics(model, H, ds))


def cmd_eval(cfg: RunConfig) -> None:
    ds = load_dataset(_dataset_dir(cfg))
    H = _load_embeddings(cfg, ds.n_nodes)
    model_file = _model_path(cfg)
    if not model_file.is_file():
        raise DataError(f"missing model file: {model_file}")
    try:
        model = gbdt_from_bytes(model_file.read_bytes())
    except ValueError as exc:
        raise DataError(f"{model_file}: {exc}") from None
    if H.shape[1] != model.n_features:
        raise DataError(
            f"model expects {model.n_features} features, embeddings have {H.shape[1]}"
        )
    _write_json(Path(cfg.out) / "metrics.json", _metrics(model, H, ds))


def cmd_sweep(cfg: RunConfig) -> None:
    ds = load_dataset(_dataset_dir(cfg))
    methods = [_choice(Method, tok) for tok in _split_tokens(cfg.sweep_methods)]
    results = oversmoothing_sweep(
        ds.graph,
        ds.X,
        ds.y,
        methods,
        max_hops=cfg.sweep_hops,
        k_clusters=cfg.k_clusters if cfg.k_clusters > 0 else None,
        seed=cfg.seed,
        kmeans_restarts=cfg.kmeans_restarts,
    )
    lines = ["method,k,v_measure,normalized_v_measure"]
    for res in results:
        for i in range(res.v_measures.size):
            lines.append(
                f"{res.method.value},{i + 1},"
                f"{res.v_measures[i]:.9g},{res.normalized[i]:.9g}"
            )
    path = Path(cfg.out) / "sweep.csv"
    write_text_atomic(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")


def _search_space(cfg: RunConfig) -> SearchSpace:
    """The hpo_* keys, mapped by hand: their names differ from SearchSpace's."""
    aggregators = tuple(_split_tokens(cfg.hpo_aggregators))
    for name in aggregators:
        _choice(Aggregator, name)
    try:
        return SearchSpace(
            k=(cfg.hpo_k_min, cfg.hpo_k_max),
            d=(cfg.hpo_d_min, cfg.hpo_d_max),
            learning_rate=(cfg.hpo_lr_min, cfg.hpo_lr_max),
            max_depth=(cfg.hpo_depth_min, cfg.hpo_depth_max),
            reg_lambda=(cfg.hpo_lambda_min, cfg.hpo_lambda_max),
            subsample=(cfg.hpo_subsample_min, cfg.hpo_subsample_max),
            aggregators=aggregators,
            n_rounds=cfg.hpo_rounds,
            patience=cfg.patience,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_hpo(cfg: RunConfig) -> None:
    ds = load_dataset(_dataset_dir(cfg))
    space = _search_space(cfg)
    method = _choice(Method, cfg.method)
    records = random_search(space, cfg.hpo_runs, cfg.seed, ds, method=method)
    header = (
        "run,k,d,aggregator,learning_rate,max_depth,reg_lambda,subsample,"
        "n_rounds,patience,gbdt_seed,valid_ce,test_accuracy"
    )
    lines = [header]
    for i, rec in enumerate(records):
        p = rec.params
        lines.append(
            f"{i},{p['k']},{p['d']},{p['aggregator']},{p['learning_rate']:.9g},"
            f"{p['max_depth']},{p['reg_lambda']:.9g},{p['subsample']:.9g},"
            f"{p['n_rounds']},{p['patience']},{p['seed']},"
            f"{rec.valid_ce:.9g},{rec.test_accuracy:.9g}"
        )
    path = Path(cfg.out) / "hpo.csv"
    write_text_atomic(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")
    _write_json(Path(cfg.out) / "hpo_summary.json", hpo_summary(records))


def _split_tokens(raw: str) -> list[str]:
    tokens = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not tokens:
        raise ConfigError(f"empty list value {raw!r}")
    return tokens


_COMMANDS = {
    "gen": (cmd_gen, "generate a synthetic dataset directory"),
    "embed": (cmd_embed, "compute node embeddings for a dataset"),
    "train": (cmd_train, "train the classifier on embeddings"),
    "eval": (cmd_eval, "evaluate an existing model on embeddings"),
    "sweep": (cmd_sweep, "run the over-smoothing hop sweep"),
    "hpo": (cmd_hpo, "run the random-search generalization study"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcapass",
        description="Node embeddings from neighborhood aggregation with "
        "concatenation skip connections and per-hop PCA, plus a "
        "gradient-boosted-tree classifier and analyses.",
        epilog=config_help_text(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(
            name,
            help=help_text,
            epilog=config_help_text(),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        sub.add_argument("--config", metavar="PATH", help="flat key = value config file")
        sub.add_argument("--seed", type=int, metavar="N", help="override the seed key")
        sub.add_argument(
            "--threads", type=int, metavar="N", help="override the threads key"
        )
        sub.add_argument("--out", metavar="DIR", help="override the out key")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    overrides = {
        key: value
        for key, value in (("seed", args.seed), ("threads", args.threads), ("out", args.out))
        if value is not None
    }
    try:
        cfg = build_config(args.config, overrides)
        if cfg.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {cfg.threads}")
        _COMMANDS[args.command][0](cfg)
    except ConfigError as exc:
        _report("config", exc)
        return EXIT_CONFIG
    except DataError as exc:
        _report("data", exc)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _report("runtime", exc)
        return EXIT_RUNTIME
    return EXIT_OK


def _report(kind: str, exc: Exception) -> None:
    message = " ".join(str(exc).split())
    print(f"error: {kind}: {message}", file=sys.stderr)


def entrypoint() -> None:
    sys.exit(main())
