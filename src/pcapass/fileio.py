"""Atomic file writes, and the private text helpers: the UTF-8 decode that
every text input goes through, the line rule every line parse follows, the one
`np.loadtxt` call and the first pass built on it, and the table writer of every
CSV/TSV file."""

from __future__ import annotations

import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .errors import DataError


def write_bytes_atomic(path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text: str) -> None:
    write_bytes_atomic(path, text.encode("utf-8"))


def _read_text(path) -> str:
    """`path` decoded as UTF-8 with universal newlines; a file that is not
    UTF-8 raises a DataError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None


def _lines(text: str):
    """(number from 1, line) for each non-blank line of `text`. A line ends at
    a newline alone, as in `np.loadtxt`, not at every `str.splitlines` break."""
    return ((number, line) for number, line in enumerate(text.split("\n"), 1) if line.strip())


def _parse_table(fh, dtype, delimiter: str, *, comments=None, name="text") -> np.ndarray:
    """`np.loadtxt` of the text stream `fh`, at least 2-d. What it refuses or
    warns about (empty input), and a decode error, raise ValueError, naming
    `name` where numpy names its input. A format with a line parse may only
    accept by it: text it refuses, or whose values fail a check, goes to the
    line parse, which words the error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(fh, dtype=dtype, delimiter=delimiter, comments=comments, ndmin=2)
    except (ValueError, Warning) as exc:
        raise ValueError(str(exc).replace(str(fh), str(name))) from None


# Characters np.loadtxt reads otherwise than `int()`, `float()` and `==` on the
# line parses' tokens: it takes \x1c-\x1f for spaces and drops a string's
# trailing NUL. It also reads a code point past ASCII in an integer as a digit
# ("1ǿ" as 473), so text past ASCII is refused too.
_LOADTXT_ONLY = "\x00\x1c\x1d\x1e\x1f"


def _loadtxt_agrees(text: str) -> bool:
    """Whether every token of `text` that np.loadtxt accepts, the line parses
    accept with the same value: true for ASCII without `_LOADTXT_ONLY`. A first
    pass runs only on such text."""
    return text.isascii() and not any(char in text for char in _LOADTXT_ONLY)


def _first_pass(text: str, dtype, delimiter: str, header: str | None = None):
    """`_parse_table` of the lines `_lines` gives of `text`, after `header` as
    line 1 when one is given; or None when `text` fails `_loadtxt_agrees`,
    that header is not line 1, or numpy refuses the lines. The line parse
    decides what this returns None for."""
    if not _loadtxt_agrees(text):
        return None
    lines = _lines(text)
    if header is not None and next(lines, None) != (1, header):
        return None
    try:
        return _parse_table((line for _, line in lines), dtype, delimiter)
    except ValueError:
        return None


_CHUNK = 1 << 14


def _format_rows(header: str, *columns: np.ndarray, delimiter: str = ",") -> str:
    """The line `header`, if any, then the rows of `columns`: floats `{:.9g}`, the rest `str`.

    _CHUNK rows at a time become Python scalars, formatted by one call on the
    row template repeated once per row, so the temporary objects do not grow
    with the number of rows. A table without header or rows is one newline.
    """
    row = delimiter.join("{:.9g}" if col.dtype.kind == "f" else "{}" for col in columns)
    chunks = [header + "\n"] if header else []
    for lo in range(0, len(columns[0]), _CHUNK):
        block = np.stack([col[lo : lo + _CHUNK].astype(object) for col in columns], axis=1)
        chunks.append(((row + "\n") * len(block)).format(*block.ravel().tolist()))
    return "".join(chunks) or "\n"
