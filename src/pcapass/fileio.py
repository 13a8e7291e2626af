"""Atomic file writes, and the private text helpers: the line rule every text
input follows, the table reader of every CSV/TSV input (`_read_table`: one
UTF-8 read of the file, one `np.loadtxt` first pass that reads the file
itself, and one line parse that decides and words every error), and the table
writer of every CSV/TSV file."""

from __future__ import annotations

import operator
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


def _lines(text: str):
    """(number from 1, line) for each line of `text` that is not blank and does
    not start with '#'. A line ends at a newline alone, as in `np.loadtxt`, not
    at every `str.splitlines` break."""
    for number, line in enumerate(text.split("\n"), 1):
        if line.strip() and not line.startswith("#"):
            yield number, line


def _parse_table(fname, dtype, delimiter: str, skiprows: int = 0) -> np.ndarray:
    """`np.loadtxt` of the path or text stream `fname`, '#' starting a comment, one row per
    line after `skiprows`: 1-d for a structured dtype, 2-d otherwise. Its warnings raise."""
    dtype = np.dtype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ndmin = 1 if dtype.names else 2
        return np.loadtxt(fname, dtype=dtype, delimiter=delimiter, comments="#",
                          skiprows=skiprows, encoding="ascii", ndmin=ndmin)


# Characters np.loadtxt reads otherwise than `int()`, `float()` and `==` on the
# line parse's tokens: it takes \x1c-\x1f for spaces and drops a string's
# trailing NUL. It also reads a code point past ASCII in an integer as a digit
# ("1ǿ" as 473), so text past ASCII skips the first pass too.
_LOADTXT_ONLY = "\x00\x1c\x1d\x1e\x1f"
_VERSION = operator.attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns")


def _first_pass(path, text: str, opened, dtype, delimiter: str, header: str | None = None):
    """`_parse_table` of the file at `path`, past line 1 if `header` is given; or None
    when the guard refuses `text`, numpy raises, or `path` is no longer the file whose
    `os.fstat` gave `opened` as `text` was read. The guard refuses text past ASCII or
    holding `_LOADTXT_ONLY`, a '#' that does not start a line (numpy would cut the line
    there), and a line 1 that is not `header`; on the rest, numpy accepts only tokens
    the line parse accepts, with the same value. numpy picks a decompressor by suffix
    (a plain-text `x.csv.gz` raises) and would fetch a relative path like `http://h/x`."""
    if not text.isascii() or any(char in text for char in _LOADTXT_ONLY):
        return None
    if text.count("#") != text.startswith("#") + text.count("\n#"):
        return None
    if header is not None and text[: len(header) + 1] not in (header, header + "\n"):
        return None
    try:
        table = _parse_table(os.path.abspath(path), dtype, delimiter, int(header is not None))
        same = _VERSION(os.stat(path)) == _VERSION(opened)
    except Exception:  # noqa: BLE001 - any refusal leaves the file to the line parse
        return None
    return table if same else None


_INT64 = np.iinfo(np.int64)


def _int64(token: str) -> int:
    value = int(token)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"{value} is outside the int64 range")
    return value


# The line parse's reading of a token, by the kind of its column's dtype; an
# object column holds the raw string.
_CONVERT = {"i": _int64, "f": float, "O": str}


def _parse_lines(path, text: str, dtype, delimiter: str, header: str | None = None):
    """The line parse: the table `_first_pass` reads, and the line number of
    each of its rows. The lines `_lines` gives are split at `delimiter`; a
    structured dtype's row has one value per field, any other's as many as
    the first row. Each value is read by `_CONVERT`. The first line that fails
    raises DataError naming `path` and the line."""
    dtype = np.dtype(dtype)
    kinds = [dtype[name].kind for name in dtype.names] if dtype.names else None
    lines = _lines(text)
    if header is not None and next(lines, None) != (1, header):
        raise DataError(f"{path}: line 1: expected the header '{header}'")
    rows, numbers = [], []
    for number, line in lines:
        cells = line.split(delimiter)
        if kinds is None:
            kinds = [dtype.kind] * len(cells)
        if len(cells) != len(kinds):
            raise DataError(f"{path}: line {number}: {len(cells)} values, expected {len(kinds)}")
        try:
            rows.append(tuple(_CONVERT[kind](cell) for kind, cell in zip(kinds, cells)))
        except ValueError as exc:
            raise DataError(f"{path}: line {number}: {exc}") from None
        numbers.append(number)
    if not rows and not dtype.names:
        return np.empty((0, 0), dtype), numbers
    with np.errstate(over="ignore"):  # a float beyond float32 range is inf, as in np.loadtxt
        return np.array(rows, dtype=dtype), numbers


def _read_table(path, dtype, delimiter: str = ",", header: str | None = None, check=None):
    """The table of the text file at `path`: a row per line that `_lines`
    gives, after `header` on line 1 if one is given.

    The text is read once as UTF-8 (DataError naming `path` if it is not).
    `_first_pass` reads the table, and `check(table)` returns None, or the row
    and message of the table's first fault (a row of None: the whole file). A
    file the first pass refuses, or a table `check` faults, goes to the line
    parse of the text, `_parse_lines`, which decides and words every error: a
    parse fault anywhere comes before any value fault, and either raises
    DataError naming `path` and, for a row, its line."""
    try:
        with open(path, encoding="utf-8") as fh:
            text, opened = fh.read(), os.fstat(fh.fileno())
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    table = _first_pass(path, text, opened, dtype, delimiter, header)
    if table is not None and (check is None or check(table) is None):
        return table
    table, numbers = _parse_lines(path, text, dtype, delimiter, header)
    fault = None if check is None else check(table)
    if fault is not None:
        row, message = fault
        where = "" if row is None else f"line {numbers[row]}: "
        raise DataError(f"{path}: {where}{message}")
    return table


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
