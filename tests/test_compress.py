from fractions import Fraction

import pytest
from hypothesis import given, settings
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
from hopcompress.compress import MASK_SCAN_MAX_N, _levels_ok, _list_scan, _mask_scan, _scan

from conftest import oracle_satisfies, oracle_violations, proportion_functions, small_graphs

# thresholds that stay flat (p=0), always rise (p=1), or rise unevenly
# with the degree (1/3, 2/3), at t = 1, 2 and 3
EDGE_CASE_PROPORTIONS = [
    ProportionFunction.parse(text)
    for text in ("1", "1/2", "0,1", "1/2,1", "1,1", "0,1/2", "1/3,2/3,1", "0,0,1", "1/3,1/3,2/3")
]


def reference_scan(n, edges, pf):
    """The scan with one depth-t BFS per endpoint per edge and nothing else."""
    ratios = [(p.numerator, p.denominator) for p in pf.props]
    reference = [set() for _ in range(n)]
    kept_adj = [[] for _ in range(n)]
    flags = []
    for u, v in edges:
        reference[u].add(v)
        reference[v].add(u)
        keep = (
            not _levels_ok(u, reference[u], kept_adj, ratios)[0]
            or not _levels_ok(v, reference[v], kept_adj, ratios)[0]
        )
        flags.append(keep)
        if keep:
            kept_adj[u].append(v)
            kept_adj[v].append(u)
    return flags


@st.composite
def scan_cases(draw):
    """A graph, an order of its edges (either orientation) and a p function."""
    g = draw(small_graphs(max_n=10))
    shuffled = random_order(g, draw(st.integers(0, 2**16))).edges
    order = [e if draw(st.booleans()) else e[::-1] for e in shuffled]
    pf = draw(st.one_of(st.sampled_from(EDGE_CASE_PROPORTIONS), proportion_functions()))
    return g, order, pf


class TestProportionFunction:
    def test_parse_decimals_and_ratios(self):
        pf = ProportionFunction.parse("0.5,1")
        assert pf.props == (Fraction(1, 2), Fraction(1))
        assert ProportionFunction.parse("1/2,1") == pf
        assert pf.t == 2

    def test_saturates_beyond_t(self):
        pf = ProportionFunction.parse("0,1/2")
        assert pf.at(1) == 0
        assert pf.at(2) == Fraction(1, 2)
        assert pf.at(7) == Fraction(1, 2)

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ProportionFunction.parse("0.9,0.5")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ProportionFunction.parse("1.5")
        with pytest.raises(ValueError):
            ProportionFunction.parse("")


class TestLevelsOk:
    def test_distance_two_neighbor_counts(self):
        # v=0 keeps neighbor 1 adjacent; neighbor 2 is two hops away
        gc = Graph.from_edges(4, [(0, 1), (1, 2)])
        assert _levels_ok(0, {1, 2}, gc.adjacency, [(1, 2), (1, 1)]) == (True, 0, 2)

    def test_isolated_vertex_with_no_base(self):
        assert _levels_ok(0, set(), [[], []], [(1, 1)]) == (True, 0, 0)

    def test_unreachable_base_neighbor(self):
        # p = 0,1: level 1 passes with nothing reached, level 2 fails
        assert _levels_ok(0, {1}, [[], []], [(0, 1), (1, 1)]) == (False, 2, 0)


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
        assert result.strategy == "random"
        assert result.seed == 3
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
        order = random_order(g, seed).edges
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
            order = list(random_order(g, seed).edges)
            expected = reference_scan(g.n, order, pf)
            for scan in self.SCANS:
                assert scan(g.n, order, pf) == expected, scan.__name__

    def test_level_two_rule_decides_without_bfs_at_t3(self, monkeypatch):
        # at p=0,1,1 the first edge lifts both endpoints' level-2 threshold
        # from 0 to 1 with no kept neighbour shared: kept with no BFS
        from hopcompress import gen_gnm

        pf = ProportionFunction.parse("0,1,1")
        g = gen_gnm(12, 30, 0)
        order = list(random_order(g, 0).edges)
        expected = reference_scan(g.n, order, pf)
        for scan, bfs in ((_list_scan, "_levels_ok"), (_mask_scan, "_mask_levels_ok")):
            calls = []
            real = getattr(compress_module, bfs)

            def counting(*args, real=real):
                calls.append(args[0])
                return real(*args)

            monkeypatch.setattr(compress_module, bfs, counting)
            assert scan(g.n, order[:1], pf) == [True]
            assert calls == [], scan.__name__
            assert scan(g.n, order, pf) == expected, scan.__name__

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
        edges = list(random_order(g, seed).edges)[::2]
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
            edges = list(random_order(g, trial).edges)[::keep_every]
            gc = Graph.from_edges(g.n, edges)
            assert verify(g, gc, pf).ok == oracle_satisfies(g, gc, pf)
