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
from enum import Enum
from pathlib import Path

import numpy as np

from .analysis import SearchSpace, hpo_summary, oversmoothing_sweep, random_search
from .config import RunConfig, build_config, config_help_text
from .datasets import TEST, TRAIN, VALID, Dataset, SbmParams, generate_sbm, load_dataset, save_dataset
from .embed import EmbedConfig, Method, embed, embeddings_from_csv, embeddings_to_csv
from .errors import ConfigError, DataError
from .fileio import _format_rows, _read_text, write_bytes_atomic, write_text_atomic
from .gbdt import (
    GbdtModel,
    GbdtParams,
    gbdt_dump_text,
    gbdt_from_bytes,
    gbdt_predict_proba,
    gbdt_to_bytes,
    gbdt_train,
)
from .metrics import accuracy, cross_entropy
from .schema import field_keys

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


def _params(cls, cfg: RunConfig):
    """Build dataclass `cls` from its fields' config keys: a range from its
    two bounds, an enum from its value, a tuple of strings from its commas."""
    values = {}
    for f in fields(cls):
        raw = [getattr(cfg, name) for name in field_keys(f)]
        if isinstance(f.default, Enum):
            values[f.name] = _choice(type(f.default), *raw)
        elif isinstance(f.default, tuple):  # a (low, high) range or a comma list
            values[f.name] = tuple(raw if len(raw) == 2 else _split_tokens(*raw))
        else:
            values[f.name] = raw[0]
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_counts(cfg: RunConfig, *keys: str) -> None:
    for key in keys:
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be >= 1, got {getattr(cfg, key)}")


def _load_embeddings(cfg: RunConfig, n_nodes: int) -> np.ndarray:
    path = _embeddings_path(cfg)
    if not path.is_file():
        raise DataError(f"missing embeddings file: {path}")
    text = _read_text(path)
    try:
        H = embeddings_from_csv(text)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    if H.shape[0] != n_nodes:
        raise DataError(f"{path}: {H.shape[0]} rows but the dataset has {n_nodes} nodes")
    return H


def _metrics(model: GbdtModel, H: np.ndarray, ds: Dataset) -> dict:
    proba = gbdt_predict_proba(model, H)
    pred = np.argmax(proba, axis=1)
    out = {"best_round": model.best_round, "n_rounds": len(model.rounds)}
    for name, which in (("train", TRAIN), ("valid", VALID), ("test", TEST)):
        idx = ds.indices(which)
        out[f"{name}_accuracy"] = accuracy(pred[idx], ds.y[idx])
    valid = ds.indices(VALID)
    out["valid_cross_entropy"] = cross_entropy(proba[valid], ds.y[valid])
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
    embed_cfg = _params(EmbedConfig, cfg)
    try:
        result = embed(ds.graph, ds.X, embed_cfg)
    except ValueError as exc:  # such as a PCA hop on a 1-node graph
        raise DataError(f"{_dataset_dir(cfg)}: {exc}") from None
    path = _embeddings_path(cfg)
    write_text_atomic(path, embeddings_to_csv(result.embeddings))
    print(f"wrote {path}")


def cmd_train(cfg: RunConfig) -> None:
    ds = load_dataset(_dataset_dir(cfg))
    H = _load_embeddings(cfg, ds.n_nodes)
    params = _params(GbdtParams, cfg)
    tr, va = ds.indices(TRAIN), ds.indices(VALID)
    try:
        model = gbdt_train(H[tr], ds.y[tr], H[va], ds.y[va], params)
    except ValueError as exc:  # such as a class with no train node
        raise DataError(f"{_dataset_dir(cfg)}: {exc}") from None
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
            f"{model_file}: model expects {model.n_features} features, "
            f"{_embeddings_path(cfg)} has {H.shape[1]}"
        )
    _write_json(Path(cfg.out) / "metrics.json", _metrics(model, H, ds))


def cmd_sweep(cfg: RunConfig) -> None:
    _check_counts(cfg, "sweep_hops", "kmeans_restarts")
    if cfg.k_clusters < 0:
        raise ConfigError(f"k_clusters must be >= 0, got {cfg.k_clusters}")
    ds = load_dataset(_dataset_dir(cfg))
    methods = [_choice(Method, tok) for tok in _split_tokens(cfg.sweep_methods)]
    try:
        results = oversmoothing_sweep(
            ds.graph,
            ds.X,
            ds.y,
            methods,
            max_hops=cfg.sweep_hops,
            k_clusters=cfg.k_clusters,
            seed=cfg.seed,
            kmeans_restarts=cfg.kmeans_restarts,
        )
    except ValueError as exc:  # such as a 1-node dataset, or more clusters than nodes
        raise DataError(f"{_dataset_dir(cfg)}: {exc}") from None
    rows = _format_rows(
        "{},{},{:.9g},{:.9g}\n",
        np.repeat([res.method.value for res in results], [res.v_measures.size for res in results]),
        np.concatenate([np.arange(1, res.v_measures.size + 1) for res in results]),
        np.concatenate([res.v_measures for res in results]),
        np.concatenate([res.normalized for res in results]),
    )
    path = Path(cfg.out) / "sweep.csv"
    write_text_atomic(path, "method,k,v_measure,normalized_v_measure\n" + rows)
    print(f"wrote {path}")


# hpo.csv: the run index, these `HpoRecord.params` entries, the loss and the accuracy.
_HPO_PARAMS = "k d aggregator learning_rate max_depth reg_lambda subsample n_rounds patience seed"


def cmd_hpo(cfg: RunConfig) -> None:
    _check_counts(cfg, "hpo_runs")
    ds = load_dataset(_dataset_dir(cfg))
    space = _params(SearchSpace, cfg)
    method = _choice(Method, cfg.method)
    records = random_search(space, cfg.hpo_runs, cfg.seed, ds, method=method)
    rows = _format_rows(
        "{},{},{},{},{:.9g},{},{:.9g},{:.9g},{},{},{},{:.9g},{:.9g}\n",
        np.arange(len(records)),
        *(np.array([rec.params[name] for rec in records]) for name in _HPO_PARAMS.split()),
        np.array([rec.valid_ce for rec in records]),
        np.array([rec.test_accuracy for rec in records]),
    )
    header = (
        "run,k,d,aggregator,learning_rate,max_depth,reg_lambda,subsample,"
        "n_rounds,patience,gbdt_seed,valid_ce,test_accuracy\n"
    )
    path = Path(cfg.out) / "hpo.csv"
    write_text_atomic(path, header + rows)
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
        "concatenation skip connections and per-hop PCA,\nplus a "
        "gradient-boosted-tree classifier and analyses.",
        epilog=config_help_text(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(
            name, help=help_text, epilog=parser.epilog, formatter_class=parser.formatter_class
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
        _check_counts(cfg, "threads")
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
