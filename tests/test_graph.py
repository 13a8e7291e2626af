import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcapass import DataError, EdgeList, load_edge_list, prepare
from pcapass.graph import edge_list_of, graphs_equal


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
    return [set(g.neighbors(v).tolist()) for v in range(g.n_nodes)]


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
            row = g.neighbors(v)
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
        expected = np.sort(perm[g.neighbors(v)])
        assert np.array_equal(relabeled.neighbors(perm[v]), expected)


def test_arrays_immutable():
    g = prepare(EdgeList(2, np.array([[0, 1]])))
    with pytest.raises(ValueError):
        g.col_idx[0] = 5
