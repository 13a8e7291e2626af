"""How a run setting is declared: one dataclass field with its default, its
`--help` text and its least value, from which config.py derives the
setting's config keys."""

from __future__ import annotations

import math
from dataclasses import field, fields


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
    """Reject a float field of dataclass `settings`, or either bound of a
    float range, that is nan or infinite, a field, or either bound of a
    range, below its declared `low`, and a range whose lower bound passes its
    upper; the settings classes' other checks compare floats, and a
    comparison with nan is always false."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        bounds = value if isinstance(value, tuple) else (value,)
        if "float" in f.type and not all(math.isfinite(v) for v in bounds):
            raise ValueError(f"{f.name} must be finite, got {value}")
        low = f.metadata.get("low")
        if low is not None and min(bounds) < low:
            raise ValueError(f"{f.name} must be >= {low}, got {value}")
        if len(field_keys(f)) == 2 and value[0] > value[1]:
            raise ValueError(f"{f.name} range is inverted: {value[0]} > {value[1]}")
