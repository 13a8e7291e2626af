"""Flat "key = value" run configuration.

Precedence: built-in defaults, then the config file, then command-line
flags. Unknown keys are errors so typos never pass silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, make_dataclass
from pathlib import Path

from .datasets import SbmParams
from .errors import ConfigError
from .gbdt import GbdtParams

_TRUE = {"true", "yes", "1", "on"}
_FALSE = {"false", "no", "0", "off"}


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
    embed_binary: bool = _key(False, "also write a binary embeddings file")


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
        if typ == "float":
            return float(raw)
        if typ == "bool":
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(f"bad value for {key!r}: {raw!r} (expected {typ})") from None


def parse_config_file(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
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


def config_help_text() -> str:
    lines = ["configuration keys (key = default):"]
    for f in fields(RunConfig):
        lines.append(f"  {f.name} = {f.default!r:<40} {f.metadata['help']}")
    return "\n".join(lines)
