import dataclasses
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopcompress import (
    Graph,
    InvalidOrderingError,
    NotASubgraphError,
    ProportionFunction,
    compress_basic,
    random_order,
    verify,
)
import hopcompress.compress as compress_module
from hopcompress.compress import (
    MASK_SCAN_MAX_N,
    _degree_rules,
    _level_needs,
    _list_levels_ok,
    _list_scan,
    _mask_levels_ok,
    _mask_scan,
    _scan,
    parse_proportion,
    require_subgraph,
)

from conftest import (
    oracle_satisfies,
    oracle_short_level,
    oracle_violations,
    proportion_functions,
    small_graphs,
)

# thresholds that stay flat (p=0), always rise (p=1), or rise unevenly
# with the degree (1/3, 2/3), at t = 1, 2 and 3
EDGE_CASE_PROPORTIONS = [
    ProportionFunction.parse(text)
    for text in ("1", "1/2", "0,1", "1/2,1", "1,1", "0,1/2", "1/3,2/3,1", "0,0,1", "1/3,1/3,2/3")
]


def reference_scan(n, edges, pf):
    """The scan with a full-depth BFS per endpoint per edge and nothing
    else: conftest's oracle, which shares no code with either scan."""
    reference = [[] for _ in range(n)]
    kept_adj = [[] for _ in range(n)]
    flags = []
    for u, v in edges:
        reference[u].append(v)
        reference[v].append(u)
        keep = any(
            oracle_short_level(kept_adj, x, reference[x], pf.props) is not None for x in (u, v)
        )
        flags.append(keep)
        if keep:
            kept_adj[u].append(v)
            kept_adj[v].append(u)
    return flags


@st.composite
def verify_cases(draw):
    """A graph of up to 12 vertices, a subgraph missing about half its
    edges, and a p function with t from 1 to 4."""
    g = draw(small_graphs(max_n=12))
    edges = list(g.edges())
    keep = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    gc = Graph.from_edges(g.n, [e for e, k in zip(edges, keep) if k])
    pf = draw(st.one_of(st.sampled_from(EDGE_CASE_PROPORTIONS), proportion_functions(max_t=4)))
    return g, gc, pf


@st.composite
def scan_cases(draw):
    """A graph, an order of its edges (either orientation) and a p function."""
    g = draw(small_graphs(max_n=10))
    shuffled = random_order(g, draw(st.integers(0, 2**16)))
    order = [e if draw(st.booleans()) else e[::-1] for e in shuffled]
    pf = draw(st.one_of(st.sampled_from(EDGE_CASE_PROPORTIONS), proportion_functions()))
    return g, order, pf


@st.composite
def corrupted_orders(draw):
    """A graph and an order of its edges, either way round, with at most
    one corruption: a dropped or repeated edge, a pair that is not an
    edge, or an endpoint out of range, inserted or in place of an edge."""
    g = draw(small_graphs())
    order = [e if draw(st.booleans()) else e[::-1] for e in draw(st.permutations(list(g.edges())))]
    kind = draw(
        st.sampled_from(
            ["none", "drop", "repeat", "reversed repeat", "non-edge", "self-loop", "out of range", "negative"]
        )
    )
    if kind in ("drop", "repeat", "reversed repeat") and order:
        e = order[draw(st.integers(0, len(order) - 1))]
        if kind == "drop":
            order.remove(e)
        else:
            order.insert(draw(st.integers(0, len(order))), e if kind == "repeat" else e[::-1])
    elif kind != "none":
        w = draw(st.integers(0, g.n - 1))
        if kind == "non-edge":
            others = [x for x in range(g.n) if x != w and not g.has_edge(w, x)]
            if not others:
                return g, order
            pair = (w, draw(st.sampled_from(others)))
        elif kind == "self-loop":
            pair = (w, w)
        elif kind == "out of range":
            pair = (w, g.n + draw(st.integers(0, 3)))
        else:
            pair = (w, -draw(st.integers(1, 3)))
        pair = pair if draw(st.booleans()) else pair[::-1]
        if order and draw(st.booleans()):
            order[draw(st.integers(0, len(order) - 1))] = pair
        else:
            order.insert(draw(st.integers(0, len(order))), pair)
    return g, order


class TestProportionFunction:
    def test_parse_decimals_and_ratios(self):
        pf = ProportionFunction.parse("0.5,1")
        assert pf.props == (Fraction(1, 2), Fraction(1))
        assert ProportionFunction.parse("1/2,1") == pf
        assert pf.t == 2

    def test_ratios_are_cached_outside_the_fields(self):
        pf = ProportionFunction.parse("0,1/2,2/3")
        before = (repr(pf), hash(pf), dataclasses.asdict(pf))
        assert pf.ratios == ((0, 1), (1, 2), (2, 3)) and pf.ratios is pf.ratios
        assert (repr(pf), hash(pf), dataclasses.asdict(pf)) == before
        assert pf == ProportionFunction.parse("0,1/2,2/3")
        assert pickle.loads(pickle.dumps(pf)) == pf

    def test_saturates_beyond_t(self):
        pf = ProportionFunction.parse("0,1/2")
        assert pf.at(1) == 0
        assert pf.at(2) == Fraction(1, 2)
        assert pf.at(7) == Fraction(1, 2)

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ProportionFunction.parse("0.9,0.5")

    @pytest.mark.parametrize("value", [0.5, np.float64(0.5)], ids=["float", "numpy-float64"])
    def test_rejects_floats(self, value):
        # a float would reach the scan, which reads numerator and denominator
        with pytest.raises(TypeError, match=r"^p\(2\)=.* not an int or a Fraction$"):
            ProportionFunction((0, value))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ProportionFunction.parse("1.5")
        with pytest.raises(ValueError):
            ProportionFunction.parse("")

    @pytest.mark.parametrize("text", ["1e-2", "1E-5000", "0,5e9"])
    def test_rejects_exponents(self, text):
        with pytest.raises(ValueError, match="^exponent in "):
            ProportionFunction.parse(text)

    def test_rejects_denominators_too_long_to_print(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("this Python prints integers of any length")
        # 10**(limit - 1) has limit digits; 10**limit has one too many
        assert parse_proportion("0." + "0" * (limit - 2) + "1") == Fraction(1, 10 ** (limit - 1))
        with pytest.raises(ValueError, match=f"^denominator of .* has more than {limit} digits$"):
            ProportionFunction.parse("0,0." + "0" * (limit - 1) + "1")


class TestDepthChecks:
    """Both scans' depth-t checks share one contract: given that level 1
    passes, does x meet every level from 2 to t in the kept graph?"""

    @settings(max_examples=300, deadline=None)
    @given(case=verify_cases(), data=st.data())
    def test_both_match_the_oracle(self, case, data):
        g, gc, pf = case
        x = data.draw(st.integers(0, g.n - 1))
        base = g.adjacency[x]
        assume(len(gc.adjacency[x]) >= pf.props[0] * len(base))
        ratios = [(p.numerator, p.denominator) for p in pf.props]
        expected = oracle_short_level(gc.adjacency, x, base, pf.props) is None
        assert _list_levels_ok(x, len(base), base, gc.adjacency, ratios) == expected
        masks = [sum(1 << w for w in row) for row in gc.adjacency]
        needs = tuple(math.ceil(p * len(base)) for p in pf.props[1:])
        assert _mask_levels_ok(x, sum(1 << w for w in base), masks, needs) == expected

    def test_distance_two_neighbor_counts(self):
        # x = 0 keeps neighbour 1; neighbour 2 is two hops away
        kept = [[1], [0, 2], [1]]
        assert _list_levels_ok(0, 2, [1, 2], kept, [(1, 2), (1, 1)])
        assert _mask_levels_ok(0, 0b110, [0b10, 0b101, 0b10], (2,))

    def test_unreachable_neighbor_fails_level_two(self):
        # p = 0,1: level 1 passes with nothing kept, level 2 fails
        assert not _list_levels_ok(0, 1, [1], [[], []], [(0, 1), (1, 1)])
        assert not _mask_levels_ok(0, 0b10, [0, 0], (1,))


class TestCompressBasic:
    def test_triangle_trace(self, triangle):
        pf = ProportionFunction.parse("0,1")
        result = compress_basic(triangle, pf, [(0, 1), (0, 2), (1, 2)])
        assert result.kept == {(0, 1), (0, 2)}

    def test_identity_when_all_neighbors_required(self, diamond):
        pf = ProportionFunction.parse("1")
        result = compress_basic(diamond, pf, list(diamond.edges()))
        assert result.kept == diamond.edge_set()

    def test_diamond_trace(self, diamond):
        pf = ProportionFunction.parse("1/2,1")
        order = [(1, 2), (0, 1), (2, 3), (0, 2), (1, 3)]
        result = compress_basic(diamond, pf, order)
        assert result.kept_count() == 3

    @pytest.mark.parametrize(
        "order",
        [
            [(0, 1), (0, 2), (0, 1)],  # duplicate
            [(0, 1), (0, 2), (1, 1)],  # self-loop, not an edge
            [(0, 1), (0, 2), (0, 3)],  # non-edge
            [(0, 1), (0, 2)],  # too short
            [(0, 1), (0, 2), (1, 2), (1, 2)],  # too long
            [(0, 1), (0, 2), (1, 7)],  # vertex out of range
            [(0, 1), (0, 2), (-1, 2)],  # negative vertex
        ],
    )
    def test_rejects_bad_ordering(self, order):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(InvalidOrderingError, match="not a permutation"):
            compress_basic(g, ProportionFunction.parse("1"), order)

    @settings(max_examples=300, deadline=None)
    @given(case=corrupted_orders())
    def test_rejects_exactly_the_non_permutations(self, case):
        g, order = case
        canonical = [(min(e), max(e)) for e in order]
        permutation = len(set(canonical)) == len(canonical) and set(canonical) == g.edge_set()
        try:
            compress_basic(g, ProportionFunction.parse("1/2,1"), order)
        except InvalidOrderingError as exc:
            assert not permutation
            assert "not a permutation" in str(exc)
        else:
            assert permutation

    def test_accepts_reversed_edges(self, diamond):
        pf = ProportionFunction.parse("1/2,1")
        order = [(2, 1), (1, 0), (3, 2), (0, 2), (3, 1)]
        reversed_kept = compress_basic(diamond, pf, order).kept
        canonical = [(min(e), max(e)) for e in order]
        assert reversed_kept == compress_basic(diamond, pf, canonical).kept
        assert all(u < v for u, v in reversed_kept)

    def test_rejects_non_permutation(self, triangle):
        with pytest.raises(InvalidOrderingError):
            compress_basic(triangle, ProportionFunction.parse("1"), [(0, 1)])
        with pytest.raises(InvalidOrderingError):
            compress_basic(
                triangle,
                ProportionFunction.parse("1"),
                [(0, 1), (0, 1), (1, 2)],
            )

    def test_records_metadata(self, triangle):
        pf = ProportionFunction.parse("1")
        result = compress_basic(triangle, pf, random_order(triangle, 3))
        assert (result.strategy, result.seed, result.lp_iterations) == ("custom", None, None)
        assert result.n == 3 and result.m == 3
        assert result.seconds >= 0

    @settings(max_examples=120, deadline=None)
    @given(g=small_graphs(), pf=proportion_functions(), seed=...)
    def test_soundness_for_every_ordering(self, g, pf, seed: int):
        result = compress_basic(g, pf, random_order(g, seed))
        gc = result.subgraph()
        assert verify(g, gc, pf).ok
        assert oracle_satisfies(g, gc, pf)
        # kept-edge lower bound, exact arithmetic
        assert Fraction(result.kept_count()) >= pf.props[0] * g.m

    @settings(max_examples=100, deadline=None)
    @given(g=small_graphs(), pf=proportion_functions(), seed=..., data=st.data())
    def test_kept_set_follows_a_vertex_relabeling(self, g, pf, seed: int, data):
        label = data.draw(st.permutations(range(g.n)))
        order = random_order(g, seed)
        relabeled = Graph.from_edges(g.n, [(label[u], label[v]) for u, v in g.edges()])
        moved = compress_basic(relabeled, pf, [(label[u], label[v]) for u, v in order]).kept
        kept = compress_basic(g, pf, order).kept
        assert moved == {(min(label[u], label[v]), max(label[u], label[v])) for u, v in kept}

    @settings(max_examples=60, deadline=None)
    @given(g=small_graphs(min_n=3), seed=...)
    def test_spanner_case_bridges_every_removed_edge(self, g, seed: int):
        pf = ProportionFunction.parse("0,0,1")
        result = compress_basic(g, pf, random_order(g, seed))
        gc = result.subgraph()
        from conftest import oracle_distances

        for u, v in g.edges():
            if (u, v) not in result.kept:
                assert oracle_distances(gc, u).get(v, 10**9) <= 3


class TestScan:
    """``_scan`` decides most steps without a BFS; its flags must not move.

    Each test runs both implementations on the same case.
    """

    SCANS = (_list_scan, _mask_scan)

    @settings(max_examples=400, deadline=None)
    @given(case=scan_cases())
    def test_flags_match_bfs_reference(self, case):
        g, order, pf = case
        expected = reference_scan(g.n, order, pf)
        for scan in self.SCANS:
            assert scan(g.n, order, pf) == expected, scan.__name__

    @settings(max_examples=200, deadline=None)
    @given(case=scan_cases(), data=st.data())
    def test_swap_replay_matches_bfs_reference(self, case, data):
        g, order, pf = case
        if len(order) < 2:
            return
        positions = st.lists(st.integers(0, len(order) - 1), min_size=2, max_size=2, unique=True)
        i, j = sorted(data.draw(positions))
        prev = reference_scan(g.n, order, pf)
        order[i], order[j] = order[j], order[i]
        expected = reference_scan(g.n, order, pf)
        for scan in self.SCANS:
            assert scan(g.n, order, pf, prev, (i, j)) == expected, scan.__name__

    @pytest.mark.parametrize("pf", EDGE_CASE_PROPORTIONS, ids=str)
    def test_flags_match_bfs_reference_on_clustered_graphs(self, pf):
        from hopcompress import gen_gnm

        for seed in range(6):
            # dense G(n, m) plus a hub, so every shortcut and the BFS fallback run
            base = gen_gnm(16, 45, seed)
            g = Graph.from_edges(17, list(base.edges()) + [(16, v) for v in range(0, 16, 2)])
            order = list(random_order(g, seed))
            expected = reference_scan(g.n, order, pf)
            for scan in self.SCANS:
                assert scan(g.n, order, pf) == expected, scan.__name__

    def test_level_two_rule_decides_without_bfs_at_t3(self, monkeypatch):
        # at p=0,1,1 the first edge lifts both endpoints' level-2 threshold
        # from 0 to 1 with no kept neighbour shared: kept with no BFS
        from hopcompress import gen_gnm

        pf = ProportionFunction.parse("0,1,1")
        g = gen_gnm(12, 30, 0)
        order = list(random_order(g, 0))
        expected = reference_scan(g.n, order, pf)
        for scan, bfs in ((_list_scan, "_list_levels_ok"), (_mask_scan, "_mask_levels_ok")):
            calls = []
            real = getattr(compress_module, bfs)

            def counting(*args, real=real):
                calls.append(args[0])
                return real(*args)

            monkeypatch.setattr(compress_module, bfs, counting)
            assert scan(g.n, order[:1], pf) == [True]
            assert calls == [], scan.__name__
            assert scan(g.n, order, pf) == expected, scan.__name__

    def test_probe_sets_the_shorter_kept_row_on_either_side(self, monkeypatch):
        # leaf pairs first, then hub 0 to every leaf: the hub's kept row
        # grows past 2 while a leaf's stays at most 2, and the hub is the
        # first endpoint in one order and the second in the other
        leaves = range(1, 13)
        pairs = [(a, a + 1) for a in range(1, 13, 2)]
        pf = ProportionFunction.parse("1/2,1")
        for order in (pairs + [(0, x) for x in leaves], pairs + [(x, 0) for x in leaves]):
            expected = reference_scan(13, order, pf)
            assert sum(expected[len(pairs) :]) > 2  # the hub keeps more than 2 edges
            built = []

            def recording(row):
                built.append(len(row))
                return set(row)

            with monkeypatch.context() as patch:
                patch.setattr(compress_module, "set", recording, raising=False)
                assert _list_scan(13, order, pf) == expected
            assert built and max(built) <= 2, built

    @pytest.mark.parametrize("scan", SCANS, ids=lambda scan: scan.__name__)
    def test_degree_tables_sized_by_the_edges(self, monkeypatch, scan):
        # one edge on 10**6 vertices reaches degree 1 at most, so the tables
        # hold degrees 0 and 1; the scan is stopped before it allocates its rows
        class Built(Exception):
            pass

        sizes = []

        def recording(ratios, size):
            sizes.extend(map(len, _degree_rules(ratios, size)))
            raise Built

        monkeypatch.setattr(compress_module, "_degree_rules", recording)
        with pytest.raises(Built):
            scan(10**6, [(0, 1)], ProportionFunction.parse("0,1/2"))
        assert sizes == [2, 2]

    def test_level_needs_sized_by_the_edges(self, monkeypatch):
        # the mask scan's thresholds of levels 2..t, sized like the rules
        class Built(Exception):
            pass

        tables = []

        def recording(ratios, size):
            tables.append(_level_needs(ratios, size))
            raise Built

        monkeypatch.setattr(compress_module, "_level_needs", recording)
        with pytest.raises(Built):
            _mask_scan(MASK_SCAN_MAX_N, [(0, 1), (1, 2)], ProportionFunction.parse("0,1/3,1/2"))
        assert tables == [((0, 0), (1, 1), (1, 1))]

    @pytest.mark.parametrize("p", ["1/2", "0,1/2", "1/3,2/3,1", "0,0,1/2", "1/7,3/7,5/7,1"])
    def test_level_needs_are_ceilings(self, p):
        pf = ProportionFunction.parse(p)
        needs = _level_needs(pf.ratios, 50)
        assert needs == tuple(tuple(math.ceil(q * deg) for q in pf.props[1:]) for deg in range(50))

    def test_tables_are_built_on_first_scan_not_at_import(self):
        # import time is part of every CLI call: the cached tables wait for a scan
        code = (
            "import hopcompress\n"
            "import hopcompress.compress as c\n"
            "tables = (c._degree_rules, c._level_needs, c._bits)\n"
            "assert [f.cache_info().currsize for f in tables] == [0, 0, 0]\n"
            "c._scan(3, [(0, 1), (1, 2)], c.ProportionFunction.parse('0,1/2'))\n"
            "assert [f.cache_info().currsize for f in tables] == [1, 1, 1]\n"
        )
        src = os.path.dirname(os.path.dirname(compress_module.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)

    @pytest.mark.parametrize(
        ("n", "p", "expected"),
        [
            (MASK_SCAN_MAX_N, "0,1/2", "_mask_scan"),
            (MASK_SCAN_MAX_N + 1, "0,1/2", "_list_scan"),
            (2, "0,1/2", "_mask_scan"),
            (2, "1/2", "_mask_scan"),
        ],
    )
    def test_vertex_count_picks_the_scan(self, monkeypatch, n, p, expected):
        chosen = []
        for name in ("_list_scan", "_mask_scan"):
            monkeypatch.setattr(
                compress_module, name, lambda *args, name=name: chosen.append(name) or []
            )
        _scan(n, [(0, 1)], ProportionFunction.parse(p))
        assert chosen == [expected]


class TestNumpyIds:
    """Vertex ids of a NumPy integer type scan as the Python ints they equal."""

    @pytest.mark.parametrize("p", ["1/2,1", "0,1/2", "1/3,2/3,1"])
    @pytest.mark.parametrize("n", [200, 2000], ids=["mask-scan", "list-scan"])
    def test_numpy_graph_keeps_the_int_graphs_edges(self, n, p):
        from hopcompress import gen_gnm, run_strategy

        g = gen_gnm(n, 5 * n, 1)
        g_np = Graph.from_edges(n, np.array(list(g.edges())))
        assert g_np == g
        assert (n <= MASK_SCAN_MAX_N) == (n == 200)  # the ids name the scan that runs
        pf = ProportionFunction.parse(p)
        kept = run_strategy(g_np, pf, "random", seed=0).kept
        assert kept == run_strategy(g, pf, "random", seed=0).kept

    def test_numpy_order_keeps_the_tuple_orders_edges(self):
        from hopcompress import gen_gnm

        g = gen_gnm(200, 1000, 1)
        pf = ProportionFunction.parse("1/2,1")
        order = random_order(g, 0)
        result = compress_basic(g, pf, np.array(order))
        assert result.kept == compress_basic(g, pf, order).kept
        assert verify(g, result.subgraph(), pf).ok


class TestVerify:
    def test_triangle_spanner_ok(self, triangle):
        gc = Graph.from_edges(3, [(0, 1), (0, 2)])
        assert verify(triangle, gc, ProportionFunction.parse("0,1")).ok

    def test_violation_reported_for_isolated_vertex(self, triangle):
        gc = Graph.from_edges(3, [(0, 1)])
        report = verify(triangle, gc, ProportionFunction.parse("0,1"))
        assert not report.ok
        assert any(v.vertex == 2 and v.level == 2 for v in report.violations)

    def test_identity_always_ok(self, diamond):
        assert verify(diamond, diamond, ProportionFunction.parse("1/2,1")).ok

    def test_rejects_extra_edge(self):
        g = Graph.from_edges(3, [(0, 1)])
        gc = Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(NotASubgraphError, match=r"\(1, 2\)"):
            verify(g, gc, ProportionFunction.parse("1"))

    def test_rejects_vertex_count_mismatch(self, triangle):
        with pytest.raises(ValueError, match="vertex count"):
            verify(triangle, Graph.from_edges(2, [(0, 1)]), ProportionFunction.parse("1"))

    @pytest.mark.parametrize(
        ("extra", "first"),
        [
            ([(1, 5), (3, 4), (7, 8)], (1, 5)),  # the smallest sits in hub 5's row
            ([(7, 8), (1, 5), (0, 3)], (0, 3)),
            ([(5, 9), (6, 9), (2, 8)], (2, 8)),
        ],
    )
    def test_names_the_smallest_extra_edge(self, extra, first):
        # hub 5 is adjacent to every vertex but 1 and 9
        g = Graph.from_edges(10, [(0, 2)] + [(5, x) for x in (0, 2, 3, 4, 6, 7, 8)])
        gc = Graph.from_edges(10, [(0, 2), (5, 3)] + extra)
        with pytest.raises(NotASubgraphError) as raised:
            require_subgraph(g, gc)
        assert raised.value.edge == first
        require_subgraph(g, Graph.from_edges(10, [(5, 3), (0, 2)]))

    @settings(max_examples=200, deadline=None)
    @given(case=verify_cases())
    def test_violations_match_the_levels_ok_loop(self, case):
        # the loop of a first failing level per vertex, on conftest's
        # full-depth BFS, up to 12 vertices and t = 4
        g, gc, pf = case
        assert verify(g, gc, pf).violations == tuple(oracle_violations(g, gc, pf))

    def test_shares_no_bfs_with_the_scan(self, monkeypatch):
        from hopcompress import gen_gnm

        def broken(*args):
            raise AssertionError("called a scan's depth-t check")

        for name in ("_list_levels_ok", "_mask_levels_ok"):
            monkeypatch.setattr(compress_module, name, broken)
        for seed in range(4):
            g = gen_gnm(14, 30, seed)
            order = list(random_order(g, seed))
            gc = Graph.from_edges(g.n, order[::2])
            for pf in EDGE_CASE_PROPORTIONS:
                assert list(verify(g, gc, pf).violations) == oracle_violations(g, gc, pf)
                reference_scan(g.n, order, pf)  # the scans' reference runs neither check

    def test_violation_details(self):
        # vertex 0 has neighbors {1, 2}; gc keeps only the edge to 1
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        gc = Graph.from_edges(3, [(0, 1)])
        report = verify(g, gc, ProportionFunction.parse("1"))
        broken = {v.vertex: v for v in report.violations}
        assert broken[0].achieved == 1
        assert broken[0].required == Fraction(2)
        assert broken[2].achieved == 0

    @settings(max_examples=100, deadline=None)
    @given(g=small_graphs(), pf=proportion_functions(), seed=...)
    def test_agrees_with_all_pairs_oracle(self, g, pf, seed: int):
        # arbitrary subgraph: drop every other edge of a shuffled order
        edges = list(random_order(g, seed))[::2]
        gc = Graph.from_edges(g.n, edges)
        assert verify(g, gc, pf).ok == oracle_satisfies(g, gc, pf)

    @settings(max_examples=150, deadline=None)
    @given(g=small_graphs(max_n=9), pf=proportion_functions(), data=st.data())
    def test_violations_match_full_depth_bfs(self, g, pf, data):
        edges = list(g.edges())
        kept = data.draw(st.lists(st.sampled_from(edges), unique=True) if edges else st.just([]))
        gc = Graph.from_edges(g.n, kept)
        assert list(verify(g, gc, pf).violations) == oracle_violations(g, gc, pf)

    def test_agrees_with_all_pairs_oracle_mid_size(self):
        import random as stdlib_random

        from hopcompress import gen_gnm

        rng = stdlib_random.Random(31)
        for trial in range(20):
            n = rng.randint(10, 30)
            g = gen_gnm(n, rng.randint(0, min(n * (n - 1) // 2, 4 * n)), seed=trial)
            t = rng.randint(1, 3)
            pf = ProportionFunction(
                tuple(sorted(Fraction(rng.randint(0, 3), 3) for _ in range(t)))
            )
            keep_every = rng.randint(1, 3)
            edges = list(random_order(g, trial))[::keep_every]
            gc = Graph.from_edges(g.n, edges)
            assert verify(g, gc, pf).ok == oracle_satisfies(g, gc, pf)
