"""Flat "key = value" run configuration.

Precedence: built-in defaults, then the config file, then command-line
flags. Unknown keys are errors so typos never pass silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, make_dataclass
from pathlib import Path

from .datasets import SbmParams
from .errors import ConfigError
from .gbdt import GbdtParams


def _key(default, text: str):
    """A config key's default and its `--help` text."""
    return field(default=default, metadata={"help": text})


@dataclass
class _Global:
    seed: int = _key(0, "global RNG seed; feeds data generation, training and analyses")
    threads: int = _key(1, "accepted and has no effect; analyses run in order")
    out: str = _key("run_out", "output directory for the command's files")
    dataset_dir: str = _key("", "dataset directory (default: <out>/dataset)")
    embeddings_path: str = _key("", "embeddings CSV path (default: <out>/embeddings.csv)")
    model_path: str = _key("", "classifier model path (default: <out>/model.bin)")


@dataclass
class _Embedding:
    method: str = _key(
        "pcapass", "embedder: pcapass | message_passing | skip_connections"
    )
    aggregator: str = _key("mean", "neighborhood aggregation: mean | symnorm")
    k: int = _key(8, "number of aggregation hops")
    d: int = _key(16, "embedding dimension (pcapass only)")


@dataclass
class _Sweep:
    sweep_hops: int = _key(30, "maximum hop count scanned by the over-smoothing sweep")
    sweep_methods: str = _key(
        "pcapass,message_passing,skip_connections", "comma-separated methods to sweep"
    )
    k_clusters: int = _key(
        0, "clusters for the sweep's k-means (0: distinct label count)"
    )
    kmeans_restarts: int = _key(1, "k-means seeding restarts per sweep cell")


@dataclass
class _Search:
    # named for the CLI, not after SearchSpace's fields; the CLI maps them
    hpo_runs: int = _key(50, "number of random-search runs")
    hpo_k_min: int = _key(1, "search range for hops, lower bound")
    hpo_k_max: int = _key(10, "search range for hops, upper bound")
    hpo_d_min: int = _key(4, "search range for embedding dimension, lower bound")
    hpo_d_max: int = _key(32, "search range for embedding dimension, upper bound")
    hpo_lr_min: float = _key(0.03, "learning-rate range (log-uniform), lower bound")
    hpo_lr_max: float = _key(0.3, "learning-rate range (log-uniform), upper bound")
    hpo_depth_min: int = _key(3, "tree-depth range, lower bound")
    hpo_depth_max: int = _key(8, "tree-depth range, upper bound")
    hpo_lambda_min: float = _key(0.1, "reg_lambda range (log-uniform), lower bound")
    hpo_lambda_max: float = _key(10.0, "reg_lambda range (log-uniform), upper bound")
    hpo_subsample_min: float = _key(0.6, "subsample range, lower bound")
    hpo_subsample_max: float = _key(1.0, "subsample range, upper bound")
    hpo_rounds: int = _key(200, "boosting round cap during search runs")
    hpo_aggregators: str = _key(
        "mean,symnorm", "comma-separated aggregators sampled during search"
    )


# The dataset and classifier keys are the fields of SbmParams and GbdtParams;
# their own `seed` fields are served by the global seed key.
RunConfig = make_dataclass(
    "RunConfig",
    [
        (f.name, f.type, field(default=f.default, metadata=f.metadata))
        for section in (_Global, SbmParams, _Embedding, GbdtParams, _Sweep, _Search)
        for f in fields(section)
        if section is _Global or f.name != "seed"
    ],
    namespace={"__module__": __name__},
)

_FIELDS = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    typ = _FIELDS[key]
    raw = raw.strip()
    try:
        if typ == "int":
            return int(raw)
        if typ == "str":
            return raw
        value = float(raw)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    expected = "a finite float" if typ == "float" else typ
    raise ConfigError(f"bad value for {key!r}: {raw!r} (expected {expected})")


def parse_config_file(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{path}: line {lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def build_config(config_path=None, overrides: dict | None = None) -> RunConfig:
    cfg = RunConfig()
    if config_path:
        for key, value in parse_config_file(config_path).items():
            setattr(cfg, key, value)
    for key, value in (overrides or {}).items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    return cfg


# The widest `key = default` entry that shares a line with its help text; a
# wider one gets a line of its own, so that no help line passes 100 columns.
_ENTRY_WIDTH = 32


def config_help_text() -> str:
    entries = [(f"{f.name} = {f.default!r}", f.metadata["help"]) for f in fields(RunConfig)]
    width = min(_ENTRY_WIDTH, max(len(entry) for entry, _ in entries))
    lines = ["configuration keys (key = default):"]
    for entry, text in entries:
        if len(entry) > width:
            lines += [f"  {entry}", f"  {'':<{width}} {text}"]
        else:
            lines.append(f"  {entry:<{width}} {text}")
    return "\n".join(lines)
