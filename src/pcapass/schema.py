"""How a run setting is declared: one dataclass field with its default and
its `--help` text, from which config.py derives the setting's config keys."""

from __future__ import annotations

import math
from dataclasses import field, fields


def setting(default, text: str, key: str | None = None):
    """A field with `--help` text `text`; `key` overrides its key stem."""
    return field(default=default, metadata={"help": text, "key": key})


def field_keys(f) -> tuple[str, ...]:
    """The config keys that hold dataclass field `f`: its key stem (`key`
    metadata, else its name), as `<stem>_min` and `<stem>_max` for a range."""
    stem = f.metadata.get("key") or f.name
    if f.type.startswith("tuple[") and not f.type.endswith("...]"):
        return (f"{stem}_min", f"{stem}_max")
    return (stem,)


def check_finite(settings) -> None:
    """Reject a float field of dataclass `settings`, or either bound of a
    float range, that is nan or infinite; the settings classes' other
    checks compare floats, and a comparison with nan is always false."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        bounds = value if isinstance(value, tuple) else (value,)
        if "float" in f.type and not all(math.isfinite(v) for v in bounds):
            raise ValueError(f"{f.name} must be finite, got {value}")
