"""The text helpers in `pcapass.fileio`: the table writer, checked against
the f-string writers it replaced (tests/oracles.py), the line rule that every
text input follows, the `np.loadtxt` first pass of every table, checked
against the line parse, the atomic writes, and the layout that keeps every
CSV/TSV decision in that one module."""

import ast
import inspect
import io
import os
import re
import socket
import tracemalloc
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import (
    embeddings_csv_text_reference,
    hpo_csv_text_reference,
    sweep_csv_text_reference,
)

import pcapass
from pcapass import ConfigError, DataError, SbmParams, cli, fileio, generate_sbm
from pcapass import load_dataset, load_labels_and_splits, save_dataset
from pcapass.analysis import HpoRecord, SweepResult
from pcapass.config import parse_config_file
from pcapass.embed import Method, embeddings_from_csv, embeddings_to_csv
from pcapass.graph import load_edge_list


def test_public_functions_are_the_two_atomic_writers():
    public = {
        name
        for name, obj in inspect.getmembers(fileio, inspect.isfunction)
        if not name.startswith("_") and obj.__module__ == fileio.__name__
    }
    assert public == {"write_bytes_atomic", "write_text_atomic"}


def test_only_fileio_calls_loadtxt():
    callers = set()
    for path in Path(pcapass.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "loadtxt":
                    callers.add(path.name)
    assert callers == {"fileio.py"}


def test_only_fileio_parses_lines():
    # every table goes through `_read_table`; config.py reads its own
    # `key = value` lines from `_lines`
    users = {"_lines": set(), "_first_pass": set(), "_parse_lines": set()}
    for path in Path(pcapass.__file__).parent.glob("*.py"):
        if path.name == "fileio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.attr if isinstance(node, ast.Attribute) else node.id
                if name in users:
                    users[name].add(path.name)
    assert users == {"_lines": {"config.py"}, "_first_pass": set(), "_parse_lines": set()}


def test_no_text_input_splits_lines_itself():
    splitters = set()
    for path in Path(pcapass.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "splitlines":
                splitters.add(path.name)
    assert splitters == set()


# The characters at which `str.splitlines` ends a line and `np.loadtxt` does not.
_NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _join_first_rows(path, char, skip):
    """Rewrite `path` with its first two rows after `skip` lines joined by `char`."""
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[skip : skip + 2] = [char.join(lines[skip : skip + 2])]
    path.write_text("\n".join(lines), encoding="utf-8")


@pytest.mark.parametrize("char", _NOT_LINE_ENDS, ids=lambda char: f"U+{ord(char):04X}")
def test_only_a_newline_ends_a_line(char, tmp_path):
    # Two rows joined by `char` are one line to every text input: its one
    # line fails to parse, or the file comes up a row short.
    with pytest.raises(ValueError, match="at row 0, column 2"):
        fileio._parse_table(io.StringIO(f"1,2{char}3,4\n"), np.float64, ",")
    embeddings = tmp_path / "embeddings.csv"
    embeddings.write_text(f"1,2{char}3,4\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(embeddings))}: line 1: could not convert"):
        embeddings_from_csv(embeddings)
    config = tmp_path / "run.cfg"
    config.write_text(f"seed = 1{char}threads = 2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad value for 'seed'"):
        parse_config_file(config)
    ds = generate_sbm(SbmParams(n_nodes=30, n_classes=2, n_features=3, seed=0))
    for name, skip, message in [
        ("edges.tsv", 0, "edges.tsv: line 1: 3 values, expected 2"),
        ("labels.csv", 1, "labels.csv: line 2: 3 values, expected 2"),
        ("splits.csv", 1, "splits.csv: line 2: 3 values, expected 2"),
    ]:
        save_dataset(ds, tmp_path / name)
        _join_first_rows(tmp_path / name / name, char, skip)
        with pytest.raises(DataError, match=message):
            load_dataset(tmp_path / name)


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """A saved 30-node dataset's files and its features as an embeddings.csv,
    each as {file name: lines}."""
    root = tmp_path_factory.mktemp("saved")
    ds = generate_sbm(SbmParams(n_nodes=30, n_classes=3, n_features=3, seed=0))
    save_dataset(ds, root)
    (root / "embeddings.csv").write_text(embeddings_to_csv(ds.X), encoding="utf-8")
    names = ("edges.tsv", "features.csv", "labels.csv", "splits.csv", "embeddings.csv")
    return {name: (root / name).read_text(encoding="utf-8").split("\n") for name in names}


# tokens np.loadtxt and int(), float() or a split-name compare may disagree on
_TOKENS = [
    "0", "1", "2", "29", "30", "-0", "-1", "+1", "007", " 1", "1 ", "\x0b1", "1\x0c", "1_0",
    "0x1", "1.5", ".5", "5.", "1e39", "1e400", "1d3", "nan", "-nan", "inf", "-inf", "", '"1"',
    "\u0661", "1\u01ff", "1\x1c", "\x1f1", "1\x00", "1 # c", str(2**63 - 1), str(2**63),
    "99999999999999999999", "train", "valid", "test", "holdout", "valid ", " test", "test\x00",
    "train\x1c", "trainer",
]
_WHOLE_LINES = [
    "", " ", " \t ", "\x0c", "\x1c", "#", "# c", "0\t1", "node_id,label", "node_id,split",
]
_DELIMITERS = {"edges.tsv": "\t"}


def _edit(lines, edit, index, other, token, line, delimiter):
    """`lines` with line `index` edited; `other` picks a cell or a second line."""
    lines = list(lines)
    i, j = index % (len(lines) - 1), other % (len(lines) - 1)  # not the "" after the last newline
    cells = lines[i].split(delimiter)
    if edit == "cell":
        cells[other % len(cells)] = token
        lines[i] = delimiter.join(cells)
    elif edit == "ragged":
        lines[i] = delimiter.join(cells[:-1] if len(cells) > 1 else cells * 2)
    elif edit == "trailing":
        lines[i] += delimiter
    elif edit == "line":
        lines[i] = line
    elif edit == "swap":  # ids out of order, or the header moved
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "drop":
        del lines[i]
    elif edit == "insert":
        lines.insert(i, line)
    else:
        lines.insert(i, lines[i])
    return lines


def _read(directory, name):
    """What the readers of `name` give: their arrays' bytes, or the error."""
    try:
        if name == "embeddings.csv":
            read = [embeddings_from_csv(directory / name)]
        else:
            ds = load_dataset(directory)
            read = [ds.graph.row_ptr, ds.graph.col_idx, ds.X, ds.y, ds.split]
            read += load_labels_and_splits(directory)
    except DataError as exc:
        return str(exc)
    return [(a.shape, a.dtype.str, a.tobytes()) for a in read]


@given(
    name=st.sampled_from(
        ["edges.tsv", "features.csv", "labels.csv", "splits.csv", "embeddings.csv"]
    ),
    edit=st.sampled_from(
        ["cell", "ragged", "trailing", "line", "swap", "drop", "insert", "copy"]
    ),
    index=st.integers(0, 10**6),
    other=st.integers(0, 10**6),
    token=st.sampled_from(_TOKENS),
    line=st.sampled_from(_WHOLE_LINES) | st.text("0123456789,.-+e\t #_xn", max_size=12),
)
@example(name="splits.csv", edit="cell", index=4, other=1, token="test\x00", line="")
@example(name="splits.csv", edit="cell", index=4, other=1, token="trainer", line="")
@example(name="labels.csv", edit="cell", index=4, other=1, token="1\u01ff", line="")
@example(name="labels.csv", edit="swap", index=4, other=9, token="", line="")
@example(name="embeddings.csv", edit="cell", index=4, other=2, token="1\x1c", line="")
@example(name="edges.tsv", edit="cell", index=4, other=1, token="1\u01ff", line="")
# np.loadtxt once read the first two as 1.0, and the third as a 1 and a comment
@example(name="features.csv", edit="cell", index=4, other=1, token="1\x1c", line="")
@example(name="features.csv", edit="cell", index=4, other=1, token="\x1f1", line="")
@example(name="features.csv", edit="cell", index=4, other=2, token="1 # c", line="")
# numpy takes '#' anywhere for a comment, the line rule only at the start of a line
@example(name="embeddings.csv", edit="insert", index=4, other=0, token="", line="  # c")
@example(name="labels.csv", edit="insert", index=1, other=0, token="", line="# c")
@example(name="features.csv", edit="cell", index=4, other=2, token="1#2", line="")
@settings(max_examples=500, deadline=None)
def test_the_first_pass_reads_as_the_line_parse(
    saved_files, tmp_path_factory, name, edit, index, other, token, line
):
    # Either the first pass and the line parse give the same bytes, or the
    # first pass refuses and the line parse's error stands unchanged.
    directory = tmp_path_factory.mktemp("edited")
    for file_name, lines in saved_files.items():
        if file_name == name:
            lines = _edit(lines, edit, index, other, token, line, _DELIMITERS.get(name, ","))
        (directory / file_name).write_text("\n".join(lines), encoding="utf-8")
    got = _read(directory, name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "_first_pass", lambda *args: None)
        assert got == _read(directory, name)


def test_saved_files_are_read_by_the_first_pass(saved_files, tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("parsed line by line")

    for file_name, lines in saved_files.items():
        (tmp_path / file_name).write_text("\n".join(lines), encoding="utf-8")
    monkeypatch.setattr(fileio, "_parse_lines", refuse)
    assert load_labels_and_splits(tmp_path)[0].shape == load_dataset(tmp_path).y.shape == (30,)
    assert embeddings_from_csv(tmp_path / "embeddings.csv").shape == (30, 3)


@pytest.mark.parametrize("how", ["replace", "rewrite"])
def test_a_file_replaced_between_reads_is_read_as_opened(how, tmp_path, monkeypatch):
    # numpy opens the path again, so a file replaced or written over after the
    # text was read must not be what comes back: the line parse reads the text.
    # The new file holds other values, and a \x1c that numpy reads as a space.
    H = np.arange(12.0).reshape(4, 3)
    path, new = tmp_path / "embeddings.csv", tmp_path / "new.csv"
    path.write_text(embeddings_to_csv(H), encoding="utf-8")
    new.write_text(embeddings_to_csv(H + 0.5).replace("\n", "\x1c\n"), encoding="utf-8")
    parse_table, parse_lines, parsed = fileio._parse_table, fileio._parse_lines, []

    def swap_then_parse(*args):
        if how == "replace":
            os.replace(new, path)
        else:  # the same file, written over
            path.write_bytes(new.read_bytes())
        return parse_table(*args)

    def spy(path, *args):
        parsed.append(path)
        return parse_lines(path, *args)

    monkeypatch.setattr(fileio, "_parse_table", swap_then_parse)
    monkeypatch.setattr(fileio, "_parse_lines", spy)
    assert embeddings_from_csv(path).tobytes() == H.tobytes()
    assert parsed == [path]


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_text_named_like_an_archive_is_read(suffix, tmp_path):
    # numpy opens a path by its suffix: a plain-text emb.csv.gz once made
    # `train` exit 4 with "Not a gzipped file"
    archive = tmp_path / ("emb.csv" + suffix)
    config = tmp_path / "run.cfg"
    config.write_text(
        f"embeddings_path = {archive}\nn_nodes = 200\nn_classes = 2\nn_features = 4\n"
        "k = 1\nd = 4\nn_rounds = 5\n"
    )
    for command in ("gen", "embed", "train"):
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
    plain = tmp_path / "emb.csv"
    plain.write_bytes(archive.read_bytes())
    assert embeddings_from_csv(archive).tobytes() == embeddings_from_csv(plain).tobytes()


def test_a_relative_path_like_a_url_is_read_from_disk(saved_files, tmp_path, monkeypatch):
    # numpy would take "http://host/edges.tsv" for a URL and fetch it
    def refuse(*args, **kwargs):
        raise AssertionError("network")

    monkeypatch.setattr(urllib.request, "urlopen", refuse)
    monkeypatch.setattr(socket, "getaddrinfo", refuse)
    monkeypatch.setattr(fileio, "_parse_lines", refuse)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "http:" / "host" / "edges.tsv"  # a Path drops the "//"
    path.parent.mkdir(parents=True)
    path.write_text("\n".join(saved_files["edges.tsv"]))
    got = load_edge_list("http://host/edges.tsv", 30)
    assert got.pairs.tobytes() == load_edge_list(path, 30).pairs.tobytes()


def test_reading_a_table_peaks_below_four_bytes_per_file_byte(tmp_path):
    # the reader holds the text (a byte per character) and numpy's table; it
    # once also held an io.StringIO copy of the text, at 4 bytes a character
    ds = generate_sbm(SbmParams(n_nodes=2000, seed=0))
    save_dataset(ds, tmp_path)
    (tmp_path / "embeddings.csv").write_text(embeddings_to_csv(
        np.random.default_rng(0).standard_normal((2000, 16))), encoding="utf-8")
    for name, read in [
        ("edges.tsv", lambda path: load_edge_list(path, 2000)),
        ("embeddings.csv", embeddings_from_csv),
    ]:
        path = tmp_path / name
        read(path)  # numpy's first-call allocations are not the reader's
        tracemalloc.start()
        try:
            read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * path.stat().st_size, name


@pytest.mark.parametrize(
    "name", ["edges.tsv", "features.csv", "labels.csv", "splits.csv", "embeddings.csv", "run.cfg"]
)
def test_every_text_input_skips_a_whitespace_only_line(name, tmp_path):
    # and a line that starts with "#". features.csv once failed on a
    # whitespace-only line: "the number of columns changed from 3 to 1";
    # labels.csv, splits.csv and embeddings.csv once failed on a "#" line
    ds = generate_sbm(SbmParams(n_nodes=30, n_classes=2, n_features=3, seed=0))
    save_dataset(ds, tmp_path)
    (tmp_path / "embeddings.csv").write_text(embeddings_to_csv(ds.X), encoding="utf-8")
    (tmp_path / "run.cfg").write_text("seed = 1\nthreads = 2\nk = 3\n", encoding="utf-8")

    def read():
        loaded = load_dataset(tmp_path)
        return (
            [loaded.graph.row_ptr, loaded.graph.col_idx, loaded.X, loaded.y, loaded.split],
            embeddings_from_csv(tmp_path / "embeddings.csv"),
            parse_config_file(tmp_path / "run.cfg"),
        )

    arrays_before, embeddings_before, config_before = read()
    path = tmp_path / name
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[2:2] = [" \t ", "# note"]  # after the header of labels.csv and splits.csv
    path.write_text("\n".join(lines), encoding="utf-8")
    arrays_after, embeddings_after, config_after = read()
    for before, after in zip(arrays_before, arrays_after):
        assert before.dtype == after.dtype and before.tobytes() == after.tobytes()
    assert embeddings_before.tobytes() == embeddings_after.tobytes()
    assert config_before == config_after


def test_a_failed_atomic_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        fileio.write_bytes_atomic(tmp_path / "out.bin", b"data")
    assert list(tmp_path.iterdir()) == []


_cells = st.one_of(
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308]),
)


@given(
    arrays(np.float64, st.tuples(st.integers(0, 9), st.integers(1, 4)), elements=_cells)
    | arrays(np.float32, st.tuples(st.integers(0, 9), st.integers(1, 4)),
             elements=st.floats(width=32))
)
@settings(max_examples=200, deadline=None)
def test_embeddings_to_csv_matches_the_row_writer(H):
    assert embeddings_to_csv(H) == embeddings_csv_text_reference(H)


def _sweep_result(method, raw):
    raw = np.asarray(raw, dtype=np.float64)
    return SweepResult(method=method, v_measures=raw, normalized=raw / 2.0, argmax_k=1)


@pytest.mark.parametrize(
    "results",
    [
        [_sweep_result(Method.PCAPASS, [0.5, 0.25, 1 / 3])],
        [
            _sweep_result(Method.PCAPASS, [0.0, -0.0, 1e-300, 0.123456789012]),
            _sweep_result(Method.MESSAGE_PASSING, [np.nan, np.inf, 1.0, 2.0]),
            _sweep_result(Method.SKIP_CONNECTIONS, np.linspace(0.0, 1.0, 4)),
        ],
    ],
    ids=["one_method", "three_methods"],
)
def test_sweep_csv_matches_the_row_writer(results, tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert cli.main(["gen", "--out", str(out)]) == 0
    monkeypatch.setattr(cli, "oversmoothing_sweep", lambda *args, **kwargs: results)
    assert cli.main(["sweep", "--out", str(out)]) == 0
    assert (out / "sweep.csv").read_bytes() == sweep_csv_text_reference(results).encode()


def _hpo_record(k, aggregator, learning_rate, seed, valid_ce, test_accuracy):
    params = {
        "k": k, "d": 2 * k + 1, "aggregator": aggregator, "learning_rate": learning_rate,
        "max_depth": 3, "reg_lambda": 1 / 3, "subsample": 1 - learning_rate / 7,
        "n_rounds": 200, "patience": 10, "seed": seed,
    }
    return HpoRecord(params=params, valid_ce=valid_ce, test_accuracy=test_accuracy)


@pytest.mark.parametrize(
    "records",
    [
        [_hpo_record(1, "mean", 0.1, 0, 0.5, 0.75)],
        [
            _hpo_record(0, "symnorm", 0.0300000001, 2**31 - 1, np.inf, 0.0),
            _hpo_record(10, "mean", 0.123456789012, 7, 1e-300, 1.0),
            _hpo_record(3, "symnorm", 5e-324, 12345, 2 / 3, -0.0),
        ],
    ],
    ids=["one_run", "three_runs"],
)
def test_hpo_csv_matches_the_row_writer(records, tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert cli.main(["gen", "--out", str(out)]) == 0
    monkeypatch.setattr(cli, "random_search", lambda *args, **kwargs: records)
    assert cli.main(["hpo", "--out", str(out)]) == 0
    assert (out / "hpo.csv").read_bytes() == hpo_csv_text_reference(records).encode()
