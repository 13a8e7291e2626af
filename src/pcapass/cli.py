"""Command-line surface: gen, embed, train, eval, sweep, hpo.

Every command is a pure function of (config file, flags, input files) and
writes its outputs atomically, so re-running with the same inputs overwrites
outputs identically. Exit codes: 0 success, 2 config error, 3 data error,
4 runtime error. `build_config` judges the whole config before any command
reads or writes a file, so every command refuses the same configs. The
experiment scripts enter through `run_script`, which maps errors to the same
codes; `run_oversmoothing.py` sweeps through `sweep`, as the `sweep` command
does.

`train` and `eval` read only the embeddings, labels.csv and splits.csv; they
never open edges.tsv or features.csv, so a malformed one is an error only for
`embed`, `sweep` and `hpo`, which read the whole dataset.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .analysis import (
    SearchSpace,
    SweepConfig,
    SweepResult,
    hpo_summary,
    oversmoothing_sweep,
    random_search,
)
from .config import RunConfig, build_config, config_help_text, from_config
from .datasets import (
    SPLITS,
    TRAIN,
    VALID,
    Dataset,
    SbmParams,
    _check_trainable,
    generate_sbm,
    load_dataset,
    load_labels_and_splits,
    save_dataset,
)
from .embed import EmbedConfig, embed, embeddings_from_csv
from .errors import ConfigError, DataError
from .fileio import _format_rows, write_atomic
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


def _check_files(cfg: RunConfig) -> None:
    """`train` and `eval` read the embeddings and write the model, its text dump
    and metrics.json: four distinct files, or a ConfigError naming two that are one."""
    model = _model_path(cfg)
    files = {
        "model_path": model,
        "the model's text dump": model.with_suffix(".txt"),
        "metrics.json": Path(cfg.out) / "metrics.json",
        "embeddings_path": _embeddings_path(cfg),
    }
    seen = {}
    for name, path in files.items():
        other, other_path = seen.setdefault(path.resolve(), (name, path))
        if other != name:
            raise ConfigError(f"{other} {other_path} and {name} {path} are the same file")


def _load_split_dataset(cfg: RunConfig) -> Dataset:
    """The whole dataset for `hpo`, which embeds and classifies it: it must
    hold two classes and a node of every split, as `load_labels_and_splits`
    requires of the labels and splits that `train` and `eval` read."""
    ds = load_dataset(_dataset_dir(cfg))
    _check_trainable(_dataset_dir(cfg), ds.y, ds.split)
    return ds


def _load_embeddings(cfg: RunConfig, n_nodes: int) -> np.ndarray:
    path = _embeddings_path(cfg)
    if not path.is_file():
        raise DataError(f"missing embeddings file: {path}")
    H = embeddings_from_csv(path)
    if H.shape[0] != n_nodes:
        raise DataError(f"{path}: {H.shape[0]} rows but the dataset has {n_nodes} nodes")
    return H


def _metrics(model: GbdtModel, H: np.ndarray, y: np.ndarray, split: np.ndarray) -> dict:
    proba = gbdt_predict_proba(model, H)
    pred = np.argmax(proba, axis=1)
    out = {"best_round": model.best_round, "n_rounds": len(model.rounds)}
    for which, name in enumerate(SPLITS):
        rows = split == which
        out[f"{name}_accuracy"] = accuracy(pred[rows], y[rows])
    valid = split == VALID
    out["valid_cross_entropy"] = cross_entropy(proba[valid], y[valid])
    return out


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    write_atomic(path, [text.encode("utf-8")])
    print(f"wrote {path}")


def cmd_gen(cfg: RunConfig) -> None:
    ds = generate_sbm(from_config(SbmParams, cfg))
    target = _dataset_dir(cfg)
    save_dataset(ds, target)
    print(f"wrote {target}")


def cmd_embed(cfg: RunConfig) -> None:
    embed_cfg = from_config(EmbedConfig, cfg)
    ds = load_dataset(_dataset_dir(cfg))
    try:
        result = embed(ds.graph, ds.X, embed_cfg)
    except ValueError as exc:  # such as a PCA hop on a 1-node graph
        raise DataError(f"{_dataset_dir(cfg)}: {exc}") from None
    path = _embeddings_path(cfg)
    write_atomic(path, _format_rows("", *result.embeddings.T))
    print(f"wrote {path}")


def cmd_train(cfg: RunConfig) -> None:
    _check_files(cfg)
    params = from_config(GbdtParams, cfg)
    y, split = load_labels_and_splits(_dataset_dir(cfg))
    H = _load_embeddings(cfg, y.size)
    tr, va = split == TRAIN, split == VALID
    try:
        model = gbdt_train(H[tr], y[tr], H[va], y[va], params)
    except ConfigError:  # a setting that overflows a leaf
        raise
    except ValueError as exc:  # such as a class with no train node
        raise DataError(f"{_dataset_dir(cfg)}: {exc}") from None
    model_file = _model_path(cfg)
    write_atomic(model_file, [gbdt_to_bytes(model)])
    print(f"wrote {model_file}")
    write_atomic(model_file.with_suffix(".txt"), [gbdt_dump_text(model).encode("utf-8")])
    _write_json(Path(cfg.out) / "metrics.json", _metrics(model, H, y, split))


def cmd_eval(cfg: RunConfig) -> None:
    _check_files(cfg)
    y, split = load_labels_and_splits(_dataset_dir(cfg))
    H = _load_embeddings(cfg, y.size)
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
    if y.max() >= model.n_classes:
        raise DataError(f"{model_file}: model has {model.n_classes} classes, "
                        f"{_dataset_dir(cfg) / 'labels.csv'} has label {y.max()}")
    _write_json(Path(cfg.out) / "metrics.json", _metrics(model, H, y, split))


def sweep(cfg: RunConfig, ds: Dataset, where: str | Path) -> list[SweepResult]:
    """The over-smoothing sweep of `cfg`'s sweep keys on `ds`, in up to
    `cfg.threads` processes. A dataset the sweep cannot score, such as a
    1-node one or one with fewer nodes than clusters, is a data error at
    `where`."""
    settings = from_config(SweepConfig, cfg)
    try:
        return oversmoothing_sweep(ds.graph, ds.X, ds.y, settings, cfg.seed, cfg.threads)
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from None


def cmd_sweep(cfg: RunConfig) -> None:
    directory = _dataset_dir(cfg)
    results = sweep(cfg, load_dataset(directory), directory)
    rows = _format_rows(
        "method,k,v_measure,normalized_v_measure",
        np.repeat([res.method.value for res in results], [res.v_measures.size for res in results]),
        np.concatenate([np.arange(1, res.v_measures.size + 1) for res in results]),
        np.concatenate([res.v_measures for res in results]),
        np.concatenate([res.normalized for res in results]),
    )
    path = Path(cfg.out) / "sweep.csv"
    write_atomic(path, rows)
    print(f"wrote {path}")


# hpo.csv's columns between the run index and the scores: `HpoRecord.params` entries.
_HPO_PARAMS = (
    "k d aggregator learning_rate max_depth reg_lambda subsample n_rounds patience gbdt_seed"
)


def cmd_hpo(cfg: RunConfig) -> None:
    space = from_config(SearchSpace, cfg)
    records = random_search(space, cfg.seed, _load_split_dataset(cfg), cfg.threads)
    columns = {"run": np.arange(len(records))}
    for name in _HPO_PARAMS.split():
        columns[name] = np.array([rec.params[name.removeprefix("gbdt_")] for rec in records])
    columns["valid_ce"] = np.array([rec.valid_ce for rec in records])
    columns["test_accuracy"] = np.array([rec.test_accuracy for rec in records])
    path = Path(cfg.out) / "hpo.csv"
    write_atomic(path, _format_rows(",".join(columns), *columns.values()))
    print(f"wrote {path}")
    _write_json(Path(cfg.out) / "hpo_summary.json", hpo_summary(records))


_COMMANDS = {
    "gen": (cmd_gen, "generate a synthetic dataset directory"),
    "embed": (cmd_embed, "compute node embeddings for a dataset"),
    "train": (cmd_train, "train the classifier on embeddings"),
    "eval": (cmd_eval, "evaluate an existing model on embeddings"),
    "sweep": (cmd_sweep, "run the over-smoothing hop sweep"),
    "hpo": (cmd_hpo, "run the random-search generalization study"),
}


# Every command's flags as `add_argument` keywords; each but --config
# overrides the config key of its name. The scripts take the first two.
_FLAGS = {
    "config": dict(metavar="PATH", help="flat key = value config file"),
    "seed": dict(type=int, metavar="N", help="override the seed key"),
    "threads": dict(type=int, metavar="N", help="override the threads key"),
    "out": dict(metavar="DIR", help="override the out key"),
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
    for name, (run, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(
            name, help=help_text, epilog=parser.epilog, formatter_class=parser.formatter_class
        )
        for flag, kwargs in _FLAGS.items():
            sub.add_argument(f"--{flag}", **kwargs)
        sub.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    return _run(build_parser(), argv)


def run_script(run: Callable[[RunConfig], None], description: str, argv=None) -> int:
    """The entry of an experiment script: `run` on the RunConfig of its
    `--config` and `--seed`, with the exit codes and error line of `main`."""
    parser = argparse.ArgumentParser(description=description)
    for flag in ("config", "seed"):
        parser.add_argument(f"--{flag}", **_FLAGS[flag])
    parser.set_defaults(run=run)
    return _run(parser, argv)


def _run(parser: argparse.ArgumentParser, argv) -> int:
    """Parse `argv` and call its `run` on the RunConfig it names; an error
    becomes one `error: <kind>: <message>` line on stderr and its exit code."""
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key in _FLAGS and key != "config" and value is not None
    }
    try:
        cfg = build_config(args.config, overrides)
        args.run(cfg)
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
