import io
import math
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopcompress import (
    EdgeListFormatError,
    Graph,
    SizeLimitError,
    load_edge_list,
    write_edge_list,
)
import hopcompress.graph as graph_module
from hopcompress.graph import _simple_paths, edge_paths

from conftest import recursive_simple_paths, small_graphs


def load(text):
    return load_edge_list(io.StringIO(text))


@st.composite
def edge_list_texts(draw):
    """Edge-list text over a few sparse labels, with its edge lines as pairs.

    The small label pool makes repeats in both orientations common;
    comment and blank lines are mixed in.
    """
    pool = draw(st.lists(st.integers(0, 10**9), min_size=2, max_size=6, unique=True))
    edge = st.tuples(st.sampled_from(pool), st.sampled_from(pool)).filter(lambda e: e[0] != e[1])
    noise = st.sampled_from(["", "   ", "# comment", "#3 4"])
    lines = draw(st.lists(st.one_of(edge, noise), max_size=30))
    sep = draw(st.sampled_from([" ", "\t", "  "]))
    text = "".join((sep.join(map(str, x)) if isinstance(x, tuple) else x) + "\n" for x in lines)
    return text, [x for x in lines if isinstance(x, tuple)]


class TestLoadEdgeList:
    def test_two_edge_path(self):
        g = load("0 1\n1 2\n")
        assert g.n == 3 and g.m == 2
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_relabels_and_collapses_duplicates(self):
        with pytest.warns(UserWarning, match="1 duplicate"):
            g = load("# c\n5 7\n7 5\n")
        assert g.n == 2 and g.m == 1
        assert sorted(g.edges()) == [(0, 1)]
        assert g.labels == (5, 7)
        # distinct tokens, equal ids
        with pytest.warns(UserWarning, match=r"^collapsed 1 duplicate edge\(s\)$"):
            g = load("01 2\n1 2\n")
        assert g.m == 1 and g.labels == (1, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(EdgeListFormatError, match="self-loop"):
            load("3 3\n")
        # distinct tokens, equal ids
        with pytest.raises(EdgeListFormatError, match=r"^line 2: self-loop at vertex 1$"):
            load("0 1\n01 1\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListFormatError, match="line 2"):
            load("0 1\n0 x\n")
        with pytest.raises(EdgeListFormatError, match="line 1"):
            load("0 1 2\n")
        for token in ("1_0", "+2", "\u0663", "-0"):
            with pytest.raises(EdgeListFormatError, match=r"^line 2: non-integer token in"):
                load(f"0 1\n5 {token}\n")
            with pytest.raises(EdgeListFormatError, match=r"^line 1: non-integer token in"):
                load(f"{token} 5\n")
        with pytest.raises(EdgeListFormatError, match=r"^line 1: negative vertex id in"):
            load("-1 2\n")
        # a token that is not an integer at all wins over a negative one
        with pytest.raises(EdgeListFormatError, match=r"^line 1: non-integer token in '-1 x'$"):
            load("-1 x\n")

    def test_leading_zeros_and_unicode_spaces_accepted(self):
        g = load("01\u00a0002\n2\u30003\n")
        assert sorted(g.edges()) == [(0, 1), (1, 2)]
        assert g.labels == (1, 2, 3)

    @settings(max_examples=200, deadline=None)
    @given(case=edge_list_texts())
    def test_matches_canonical_relabelled_edges(self, case):
        text, pairs = case
        ids = sorted({x for e in pairs for x in e})
        dense = {label: i for i, label in enumerate(ids)}
        canonical = {(min(dense[u], dense[v]), max(dense[u], dense[v])) for u, v in pairs}
        repeats = len(pairs) - len(canonical)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = load(text)
        assert g == Graph.from_edges(len(ids), sorted(canonical), labels=ids)
        assert g.labels == tuple(ids)
        assert Graph(g.adjacency, labels=g.labels) == g  # the loader's rows pass every check
        expected = [f"collapsed {repeats} duplicate edge(s)"] if repeats else []
        assert [str(w.message) for w in caught] == expected

    def test_keeps_one_int_per_vertex_not_per_endpoint(self):
        import tracemalloc

        # K_50 on labels above 256 (not Python's cached small ints), each
        # edge given 16 times: 19 600 lines, 39 200 endpoints, 50 vertices
        pairs = [(u, v) for u in range(1000, 1050) for v in range(u + 1, 1050)]
        lines = [f"{u} {v}\n" for u, v in pairs] * 16
        endpoints = 2 * len(lines)
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match=r"^collapsed 18375 duplicate"):
                g = load_edge_list(lines)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == 50 and g.m == 1225
        # the rows alone peak at about 9 bytes per endpoint; keeping a
        # parsed int object per endpoint as well peaks at about 46
        assert peak < 20 * endpoints, peak / endpoints

    def test_blank_lines_and_comments_skipped(self):
        g = load("# header\n\n0 1\n")
        assert g.m == 1

    def test_roundtrip_keeps_labels(self):
        g = load("10 30\n20 30\n")
        out = io.StringIO()
        write_edge_list(g, out)
        assert out.getvalue() == "10 30\n20 30\n"

    def test_writer_dense_ids_without_labels(self):
        g = Graph.from_edges(3, [(2, 0), (1, 2)])
        out = io.StringIO()
        write_edge_list(g, out)
        assert out.getvalue() == "0 2\n1 2\n"


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            Graph.from_edges(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match=r"duplicate edge \(1, 2\)"):
            Graph.from_edges(4, [(2, 3), (2, 1), (1, 2), (3, 2)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError):
            Graph([[1], []])

    @pytest.mark.parametrize(
        "adjacency, message",
        [
            ([[1], []], "0->1 but not 1->0"),
            ([[1, 2], [0], [1]], "0->2 but not 2->0"),
            ([[1], [0, 2], [0]], "1->2 but not 2->1"),
        ],
    )
    def test_asymmetric_adjacency_names_the_arc(self, adjacency, message):
        with pytest.raises(ValueError, match=f"asymmetric adjacency: {message}"):
            Graph(adjacency)

    def test_large_star_builds_quickly(self):
        leaves = 40_000
        start = time.perf_counter()
        star = Graph.from_edges(leaves + 1, [(0, leaf) for leaf in range(1, leaves + 1)])
        assert time.perf_counter() - start < 3.0
        assert star.m == leaves and star.degree(0) == leaves

    def test_immutable(self):
        g = Graph.from_edges(2, [(0, 1)])
        list(g.edges())
        for name in ("n", "adjacency", "_edges"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)
        assert list(g.edges()) == [(0, 1)]

    @settings(max_examples=50, deadline=None)
    @given(g=small_graphs(max_n=9))
    def test_edges_are_canonical_ascending_and_shared(self, g):
        expected = [(u, v) for u, nbrs in enumerate(g.adjacency) for v in nbrs if u < v]
        first, second = list(g.edges()), list(g.edges())
        assert first == second == expected
        assert all(type(e) is tuple for e in first)
        assert all(a is b for a, b in zip(first, second))
        # equality and hashing ignore the edge tuples built on demand
        fresh = Graph(g.adjacency)
        assert fresh == g and hash(fresh) == hash(g)

    def test_handshaking(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert 2 * g.m == sum(len(a) for a in g.adjacency)


def simple_paths(g, u, v, max_len):
    return _simple_paths(g, u, v, max_len, math.inf)[0]


class TestEnumerateSimplePaths:
    """``_simple_paths``, the search behind ``edge_paths`` from t = 3 on."""

    def test_triangle(self, triangle):
        assert simple_paths(triangle, 0, 1, 2) == [(0, 1), (0, 2, 1)]

    def test_path_no_direct_edge(self):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert simple_paths(path, 0, 2, 1) == []

    def test_diamond_lexicographic(self, diamond):
        assert simple_paths(diamond, 1, 2, 2) == [
            (1, 0, 2),
            (1, 2),
            (1, 3, 2),
        ]

    @settings(max_examples=80, deadline=None)
    @given(g=small_graphs())
    def test_matches_recursive_oracle(self, g):
        # every ordered pair, adjacent or not; the oracle's sorted list is
        # the lexicographic order the search emits
        for u in range(g.n):
            for v in range(g.n):
                if u == v:
                    continue
                for max_len in (1, 2, 3, 4):
                    assert simple_paths(g, u, v, max_len) == recursive_simple_paths(
                        g, u, v, max_len
                    )

    @settings(max_examples=40, deadline=None)
    @given(g=small_graphs())
    def test_scan_count(self, g):
        # the DFS scans the row of u and of every simple path it pushes:
        # those from u that avoid v and have at most max_len - 1 edges
        def rows_scanned(path, v, max_len):
            count = len(g.adjacency[path[-1]])
            if len(path) < max_len:
                for y in g.adjacency[path[-1]]:
                    if y != v and y not in path:
                        count += rows_scanned(path + (y,), v, max_len)
            return count

        for u in range(g.n):
            for v in range(g.n):
                if u != v:
                    for max_len in (1, 2, 3):
                        paths, scans = _simple_paths(g, u, v, max_len, math.inf)
                        assert paths == recursive_simple_paths(g, u, v, max_len)
                        assert scans == rows_scanned((u,), v, max_len)

    def test_scan_budget_stops_the_search(self):
        k5 = Graph.from_edges(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
        paths, scans = _simple_paths(k5, 0, 1, 3, math.inf)
        assert (len(paths), scans) == (1 + 3 + 6, 4 + 3 * 4 + 6 * 4)
        assert _simple_paths(k5, 0, 1, 3, 40) == (paths, 40)
        paths, scans = _simple_paths(k5, 0, 1, 3, 39)
        assert scans == 40 and len(paths) < 10

    @settings(max_examples=40, deadline=None)
    @given(g=small_graphs())
    def test_single_edge_path_iff_edge(self, g):
        for u in range(g.n):
            for v in range(u + 1, g.n):
                count = len(simple_paths(g, u, v, 1))
                assert count == (1 if g.has_edge(u, v) else 0)


class TestEdgePaths:
    @settings(max_examples=40, deadline=None)
    @given(g=small_graphs())
    def test_each_edge_with_its_paths(self, g):
        for t in (1, 2, 3, 4):
            assert list(edge_paths(g, t)) == [
                recursive_simple_paths(g, u, v, t) for u, v in g.edges()
            ]

    @settings(max_examples=60, deadline=None)
    @given(g=small_graphs(), t=st.integers(1, 4))
    def test_first_level_count(self, g, t):
        # From t = 3 on, a budget of exactly the scans the searches report
        # is never refused, so the up-front count is at most that total. At
        # t = 3 it is that total: one entry less is refused before any
        # search. Up to t = 2 the paths are read from the rows: no search,
        # no budget.
        total = sum(_simple_paths(g, u, v, t, math.inf)[1] for u, v in g.edges())
        calls = []

        def counting(*args):
            calls.append(args)
            return _simple_paths(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_simple_paths", counting)
            mp.setattr(graph_module, "MAX_PATH_SCANS", total if t >= 3 else 0)
            assert len(list(edge_paths(g, t))) == g.m
            assert len(calls) == (g.m if t >= 3 else 0)
            if t == 3 and g.m:
                calls.clear()
                mp.setattr(graph_module, "MAX_PATH_SCANS", total - 1)
                with pytest.raises(SizeLimitError, match="path-search guard"):
                    next(edge_paths(g, t))
                assert calls == []
