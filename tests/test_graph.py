from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import dense_prepared_adjacency, edge_file_reference, graphs_equal, neighbors

from pcapass import Aggregator, CsrGraph, DataError, EdgeList, aggregate, fileio, load_edge_list
from pcapass import prepare
from pcapass.graph import edge_list_of


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=0, max_value=30))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=m,
            max_size=m,
        )
    )
    return EdgeList(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))


def rows_of(g):
    return [set(neighbors(g, v).tolist()) for v in range(g.n_nodes)]


class TestLoadEdgeList:
    def test_simple_file(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0\t1\n1\t2\n")
        el = load_edge_list(path, 3)
        assert el.pairs.tolist() == [[0, 1], [1, 2]]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("")
        assert load_edge_list(path, 5).n_edges == 0

    def test_out_of_range(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0\t9\n")
        with pytest.raises(DataError, match="out of range"):
            load_edge_list(path, 3)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# header comment\n0\t1\n#1\t2\n")
        assert load_edge_list(path, 3).pairs.tolist() == [[0, 1]]

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0\t1\nnope\n")
        with pytest.raises(DataError, match="line 2"):
            load_edge_list(path, 3)

    def test_non_tab_separator_rejected(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0 1\n")
        with pytest.raises(DataError, match="line 1"):
            load_edge_list(path, 3)


# tokens int() and a C integer parser may disagree on, and ids near the limits
_ID_TOKENS = [
    "0", "1", "2", "3", "+1", "-0", "-1", "007", "1_0", "_1", "1__0", "\u0661",
    "\u0967", " 1", "1 ", "\x0c1", "1\x0b", "\xa01", "1\u2028", "\ufeff1", "1\x00",
    "1.5", "1.0", "1e0", "0x1", "0b1", "nan", "inf", "", "+", "-", "1 1", '"1"',
    str(2**63 - 1), str(2**63), str(2**64), "#1",
]
_ids = st.one_of(st.sampled_from(_ID_TOKENS), st.integers(0, 4).map(str))
_lines = st.one_of(
    st.tuples(_ids, _ids).map("\t".join),
    st.tuples(_ids, _ids).map(" ".join),
    st.tuples(_ids, _ids, _ids).map("\t".join),
    _ids,
    st.sampled_from(["", " ", "\t", "\x0c", "\x1c", "\xa0", " \t ", "#", "#0\t1", "# x"]),
)


@st.composite
def edge_file_texts(draw):
    lines = draw(st.lists(_lines, max_size=8))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]
    return text


@given(edge_file_texts(), st.integers(1, 4))
@example("0\t1\n2\t3\n", 4)
@example("# c\r\n1\t2\r\n\r\n \r\n0\t1", 3)
@example(f"0\t{2**63}\n", 4)
# loadtxt once read these where int() does not: "1ǿ" as 473, and \x1c as a space
@example("0\t1\u01ff\n", 500)
@example("0\t1\x1c\n", 4)
@settings(max_examples=400, deadline=None)
def test_load_edge_list_matches_the_line_parser(tmp_path_factory, text, n):
    path = tmp_path_factory.mktemp("edges") / "edges.tsv"
    path.write_bytes(text.encode("utf-8"))
    try:
        got = load_edge_list(path, n).pairs.tolist()
    except DataError as exc:
        got = str(exc)
    assert got == edge_file_reference(path, n)


def test_well_formed_file_is_not_parsed_line_by_line(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("parsed line by line")

    monkeypatch.setattr(fileio, "_parse_lines", refuse)
    path = tmp_path / "edges.tsv"
    path.write_bytes(b"# header\r\n0\t1\r\n\r\n2\t1\n#x\n+1\t002\r 1\t0 ")
    assert load_edge_list(path, 3).pairs.tolist() == [[0, 1], [2, 1], [1, 2], [1, 0]]


class TestPrepare:
    def test_symmetrize_and_self_loops(self):
        g = prepare(EdgeList(2, np.array([[0, 1]])))
        assert rows_of(g) == [{0, 1}, {0, 1}]

    def test_isolated_nodes_keep_self_loop(self):
        g = prepare(EdgeList(3, np.empty((0, 2), np.int64)))
        assert rows_of(g) == [{0}, {1}, {2}]
        assert g.degree.tolist() == [1, 1, 1]

    def test_duplicates_collapse(self):
        g = prepare(EdgeList(2, np.array([[0, 1], [1, 0], [0, 0]])))
        assert rows_of(g) == [{0, 1}, {0, 1}]

    def test_rows_strictly_increasing(self):
        g = prepare(EdgeList(4, np.array([[3, 0], [0, 2], [2, 3]])))
        for v in range(4):
            row = neighbors(g, v)
            assert (np.diff(row) > 0).all()

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(DataError, match="out of range"):
            EdgeList(3, np.array([[0, 3]]))


class TestDegrees:
    def test_path(self):
        g = prepare(EdgeList(3, np.array([[0, 1], [1, 2]])))
        assert g.degree.tolist() == [2, 3, 2]

    def test_edgeless(self):
        g = prepare(EdgeList(4, np.empty((0, 2), np.int64)))
        assert g.degree.tolist() == [1, 1, 1, 1]

    def test_complete_triangle(self):
        g = prepare(EdgeList(3, np.array([[0, 1], [0, 2], [1, 2]])))
        assert g.degree.tolist() == [3, 3, 3]
        assert g.degree.tolist() == np.diff(g.row_ptr).tolist()


@given(edge_lists())
@example(EdgeList(1, np.empty((0, 2), np.int64)))
@example(EdgeList(1, np.array([[0, 0], [0, 0]])))
@example(EdgeList(3, np.array([[0, 1], [1, 0], [0, 1], [2, 2], [1, 2], [2, 1]])))
@settings(max_examples=100)
def test_prepare_matches_dense_oracle(el):
    g = prepare(el)
    rows, cols = np.nonzero(dense_prepared_adjacency(el.n_nodes, el.pairs))
    degree = np.bincount(rows, minlength=el.n_nodes)
    assert g.col_idx.tolist() == cols.tolist()
    assert g.row_ptr.tolist() == [0] + np.cumsum(degree).tolist()
    assert g.degree.tolist() == degree.tolist()


@given(edge_lists())
@settings(max_examples=60)
def test_prepare_idempotent(el):
    g1 = prepare(el)
    g2 = prepare(edge_list_of(g1))
    assert graphs_equal(g1, g2)


@given(edge_lists())
@settings(max_examples=60)
def test_prepared_symmetric_and_reflexive(el):
    g = prepare(el)
    rows = rows_of(g)
    for v in range(g.n_nodes):
        assert v in rows[v]
        for u in rows[v]:
            assert v in rows[u]


@given(edge_lists(), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_relabeling_permutes_rows(el, rnd):
    perm = list(range(el.n_nodes))
    rnd.shuffle(perm)
    perm = np.array(perm, dtype=np.int64)
    g = prepare(el)
    relabeled = prepare(EdgeList(el.n_nodes, perm[el.pairs]))
    for v in range(el.n_nodes):
        expected = np.sort(perm[neighbors(g, v)])
        assert np.array_equal(neighbors(relabeled, perm[v]), expected)


def test_arrays_immutable():
    g = prepare(EdgeList(2, np.array([[0, 1]])))
    with pytest.raises(ValueError):
        g.col_idx[0] = 5


# The prepared 4-node path graph 0-1-2-3.
_PATH_ROW_PTR = [0, 2, 5, 8, 10]
_PATH_COL_IDX = [0, 1, 0, 1, 2, 1, 2, 3, 2, 3]


class TestCsrArrays:
    """`aggregate` hands a graph's arrays to scipy's CSR kernel, which checks
    no index: an id past the output or input rows reads or writes out of
    bounds, so the graph checks its two arrays when it is built."""

    def test_a_graph_is_its_two_arrays(self):
        g = CsrGraph(row_ptr=_PATH_ROW_PTR, col_idx=_PATH_COL_IDX)
        assert [f.name for f in fields(CsrGraph)] == ["row_ptr", "col_idx"]
        assert (g.n_nodes, g.n_entries, g.degree.tolist()) == (4, 10, [2, 3, 3, 2])
        assert graphs_equal(g, prepare(EdgeList(4, np.array([[0, 1], [1, 2], [2, 3]]))))
        X = np.arange(8.0).reshape(4, 2)
        assert np.allclose(aggregate(g, X, Aggregator.MEAN), [[1, 2], [2, 3], [4, 5], [5, 6]])

    @pytest.mark.parametrize(
        "row_ptr, col_idx, message",
        [
            # a column id past the rows once segfaulted `aggregate`
            (_PATH_ROW_PTR, _PATH_COL_IDX[:-1] + [10**6], r"column id lies outside \[0, 4\)"),
            (_PATH_ROW_PTR, _PATH_COL_IDX[:-1] + [4], r"column id lies outside \[0, 4\)"),
            (_PATH_ROW_PTR, [-1] + _PATH_COL_IDX[1:], r"column id lies outside \[0, 4\)"),
            # a row pointer past the entries once read values out of bounds
            (_PATH_ROW_PTR[:-1] + [13], _PATH_COL_IDX, "row_ptr ends at 13, not at the 10 entries"),
            (_PATH_ROW_PTR[:-1] + [9], _PATH_COL_IDX, "row_ptr ends at 9, not at the 10 entries"),
            ([0, 5, 2, 8, 10], _PATH_COL_IDX, "row_ptr must never fall"),
            ([1, 2, 5, 8, 10], _PATH_COL_IDX, "row_ptr must start at 0"),
            ([], [], "row_ptr must start at 0"),
            ([_PATH_ROW_PTR], _PATH_COL_IDX, "must be 1-D"),
        ],
        ids=["col_far", "col_n", "col_negative", "ptr_past", "ptr_short", "ptr_falls",
             "ptr_start", "ptr_empty", "ptr_2d"],
    )
    def test_bad_arrays_are_rejected(self, row_ptr, col_idx, message):
        with pytest.raises(ValueError, match=message):
            CsrGraph(row_ptr=row_ptr, col_idx=col_idx)
