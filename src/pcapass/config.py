"""Flat "key = value" run configuration.

Precedence: built-in defaults, then the config file, then command-line
flags. Unknown keys are errors so typos never pass silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, make_dataclass
from enum import Enum
from pathlib import Path

from .analysis import SearchSpace, SweepConfig
from .datasets import SbmParams
from .embed import EmbedConfig
from .errors import ConfigError
from .fileio import _lines
from .gbdt import GbdtParams
from .schema import check_settings, field_keys, setting


@dataclass
class _Global:
    """The CLI's own keys; every other key derives from a library settings field."""

    seed: int = setting(0, "global RNG seed; feeds data generation, training and analyses", low=0)
    threads: int = setting(1, "worker processes for sweep methods and hpo runs; same output", low=1)
    out: str = setting("run_out", "output directory for the command's files")
    dataset_dir: str = setting("", "dataset directory (default: <out>/dataset)")
    embeddings_path: str = setting("", "embeddings CSV path (default: <out>/embeddings.csv)")
    model_path: str = setting("", "classifier model path (default: <out>/model.bin)")


def _config_keys(section):
    """(name, type, default, help, low) of each config key of `section`'s
    fields. A field without help text has none; the key of its name serves
    it, as the global seed serves SbmParams.seed. An enum's key holds its
    member's value and a tuple of strings is a comma list."""
    for f in fields(section):
        text, low = f.metadata.get("help"), f.metadata.get("low")
        if not text:
            continue
        names = field_keys(f)
        if len(names) == 2:
            typ = f.type[len("tuple[") :].split(",")[0]
            yield names[0], typ, f.default[0], f"{text}, lower bound", low
            yield names[1], typ, f.default[1], f"{text}, upper bound", low
        elif isinstance(f.default, Enum):
            choices = " | ".join(member.value for member in type(f.default))
            yield names[0], "str", f.default.value, f"{text}: {choices}", low
        elif isinstance(f.default, tuple):
            yield names[0], "str", ",".join(f.default), text, low
        else:
            yield names[0], f.type, f.default, text, low


def from_config(cls, cfg):
    """Settings class `cls` built from `cfg`'s keys for its fields, the
    inverse of `_config_keys`: a range from its two bounds, an enum from its
    value, a tuple of strings from its commas."""
    values = {}
    for f in fields(cls):
        raw = [getattr(cfg, name) for name in field_keys(f)]
        if isinstance(f.default, Enum):
            enum = type(f.default)
            try:
                values[f.name] = enum(raw[0])
            except ValueError:
                raise ConfigError(f"unknown {enum.__name__.lower()} {raw[0]!r}") from None
        elif len(raw) == 2:  # a (low, high) range
            values[f.name] = tuple(raw)
        elif isinstance(f.default, tuple):  # a comma list
            values[f.name] = tuple(tok.strip() for tok in raw[0].split(",") if tok.strip())
            if not values[f.name]:
                raise ConfigError(f"empty list value {raw[0]!r}")
        else:
            values[f.name] = raw[0]
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# The library's settings classes, in their `--help` order; every config key
# but _Global's is one of their fields.
SECTIONS = (SbmParams, EmbedConfig, GbdtParams, SweepConfig, SearchSpace)

RunConfig = make_dataclass(
    "RunConfig",
    [
        (name, typ, setting(default, text, low=low))
        for section in (_Global, *SECTIONS)
        for name, typ, default, text, low in _config_keys(section)
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
    for lineno, line in _lines(text):
        if line.lstrip().startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{path}: line {lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def build_config(config_path=None, overrides: dict | None = None) -> RunConfig:
    """The defaults, then the file's keys, then `overrides`: each key checked
    against its declared bounds, then every settings section built from the
    keys, so that every command refuses the same configs."""
    cfg = RunConfig()
    if config_path:
        for key, value in parse_config_file(config_path).items():
            setattr(cfg, key, value)
    for key, value in (overrides or {}).items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    try:
        check_settings(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for section in SECTIONS:
        from_config(section, cfg)
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
