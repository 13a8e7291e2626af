"""How a run setting is declared: one dataclass field with its default, its
`--help` text and its least value, from which config.py derives the
setting's config keys."""

from __future__ import annotations

import math
from dataclasses import field, fields
from enum import Enum

import numpy as np


def setting(default, text: str = "", key: str | None = None, low=None):
    """A field with `--help` text `text` and least value `low`; `key`
    overrides its key stem. A field without help text has no config key."""
    return field(default=default, metadata={"help": text, "key": key, "low": low})


def field_keys(f) -> tuple[str, ...]:
    """The config keys that hold dataclass field `f`: its key stem (`key`
    metadata, else its name), as `<stem>_min` and `<stem>_max` for a range."""
    stem = f.metadata.get("key") or f.name
    if f.type.startswith("tuple[") and not f.type.endswith("...]"):
        return (f"{stem}_min", f"{stem}_max")
    return (stem,)


def check_settings(settings) -> None:
    """Reject a value that is not a member of its field's enum where the
    field's default is an `Enum`; and, in a field of dataclass `settings` or
    either bound of a range, a float that is nan or infinite, an int above
    the largest int64 and a value below the field's declared `low`; and a
    range whose lower bound passes its upper. The settings classes' other
    checks compare floats, and a comparison with nan is always false."""
    int_max = np.iinfo(np.int64).max
    for f in fields(settings):
        value = getattr(settings, f.name)
        enum = type(f.default)
        if isinstance(f.default, Enum) and not isinstance(value, enum):
            article = "an" if enum.__name__[0] in "AEIOU" else "a"
            raise ValueError(f"{f.name} must be {article} {enum.__name__}, got {value!r}")
        bounds = value if isinstance(value, tuple) else (value,)
        if "float" in f.type and not all(math.isfinite(v) for v in bounds):
            raise ValueError(f"{f.name} must be finite, got {value}")
        if "int" in f.type and max(bounds) > int_max:
            raise ValueError(f"{f.name} must be <= {int_max}, got {value}")
        low = f.metadata.get("low")
        if low is not None and min(bounds) < low:
            raise ValueError(f"{f.name} must be >= {low}, got {value}")
        if len(field_keys(f)) == 2 and value[0] > value[1]:
            raise ValueError(f"{f.name} range is inverted: {value[0]} > {value[1]}")
