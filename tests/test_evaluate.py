import json
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings

from hopcompress import (
    FamilySpec,
    Graph,
    NotASubgraphError,
    ProportionFunction,
    SaParams,
    SizeLimitError,
    bench_orderings,
    brute_force_optimal,
    compress_basic,
    compression_ratio,
    run_strategy,
    sp_histogram,
    stretch_check,
    verify,
)

from conftest import oracle_distances, small_graphs


class TestCompressionRatio:
    def test_zachary_scale_numbers(self):
        g = Graph.from_edges(40, [(i, (i + 1) % 40) for i in range(40)] + [(i, (i + 2) % 40) for i in range(38)])
        assert g.m == 78
        gc_edges = list(g.edges())[:55]
        ratio = compression_ratio(g, Graph.from_edges(40, gc_edges))
        assert ratio == Fraction(23, 78)
        assert float(ratio) == pytest.approx(0.295, abs=1e-3)

    def test_identity_is_zero(self, triangle):
        assert compression_ratio(triangle, triangle) == 0

    def test_plain_arithmetic(self):
        g = Graph.from_edges(25, [(u, v) for u, v in combinations(range(25), 2)][:100])
        gc = Graph.from_edges(25, list(g.edges())[:60])
        assert compression_ratio(g, gc) == Fraction(2, 5)

    def test_empty_graph_undefined(self):
        g = Graph.from_edges(2, [])
        with pytest.raises(ValueError, match="undefined"):
            compression_ratio(g, g)

    def test_rejects_non_subgraph(self, triangle):
        other = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert compression_ratio(triangle, other) == 0  # same edges is fine
        with pytest.raises(NotASubgraphError):
            compression_ratio(Graph.from_edges(3, [(0, 1)]), triangle)


class TestSpHistogram:
    def test_triangle(self, triangle):
        hist = sp_histogram(triangle)
        assert hist.lengths == {1: 3}
        assert hist.disconnected == 0

    def test_path(self):
        hist = sp_histogram(Graph.from_edges(3, [(0, 1), (1, 2)]))
        assert hist.lengths == {1: 2, 2: 1}

    def test_isolated_pair(self):
        hist = sp_histogram(Graph.from_edges(2, []))
        assert hist.lengths == {}
        assert hist.disconnected == 1

    @settings(max_examples=50, deadline=None)
    @given(g=small_graphs())
    def test_partitions_all_pairs(self, g):
        hist = sp_histogram(g)
        assert hist.total_pairs() == g.n * (g.n - 1) // 2

    @settings(max_examples=100, deadline=None)
    @given(g=small_graphs(min_n=0, max_n=9))
    def test_matches_oracle_distances(self, g):
        # small_graphs draws edge subsets, so isolated vertices and
        # disconnected graphs are among the cases
        lengths = Counter(d for u in range(g.n) for v, d in oracle_distances(g, u).items() if v > u)
        hist = sp_histogram(g)
        assert hist.lengths == lengths and list(hist.lengths) == sorted(lengths)
        assert hist.disconnected == g.n * (g.n - 1) // 2 - sum(lengths.values())


class TestStretchCheck:
    def test_bridged_edge(self, triangle):
        gc = Graph.from_edges(3, [(0, 1), (0, 2)])
        report = stretch_check(triangle, gc, 2)
        assert report.ok and report.max_stretch == 2

    def test_disconnected_edge(self, triangle):
        report = stretch_check(triangle, Graph.from_edges(3, [(0, 1)]), 2)
        assert not report.ok
        assert math.isinf(report.max_stretch)

    def test_nothing_removed(self, diamond):
        report = stretch_check(diamond, diamond, 2)
        assert report.ok and report.max_stretch == 1

    def test_rejects_t_below_one(self, diamond):
        with pytest.raises(ValueError, match="t must be >= 1"):
            stretch_check(diamond, diamond, 0)


class TestBruteForceOptimal:
    def test_diamond(self, diamond):
        best, witness = brute_force_optimal(diamond, ProportionFunction.parse("1/2,1"))
        assert best == 3
        assert witness.m == 3
        assert verify(diamond, witness, ProportionFunction.parse("1/2,1")).ok

    def test_triangle(self, triangle):
        best, _ = brute_force_optimal(triangle, ProportionFunction.parse("0,1"))
        assert best == 2

    def test_full_neighborhood_forces_identity(self, diamond):
        best, _ = brute_force_optimal(diamond, ProportionFunction.parse("1"))
        assert best == diamond.m

    def test_guard(self):
        g = Graph.from_edges(30, [(i, i + 1) for i in range(29)])
        with pytest.raises(SizeLimitError):
            brute_force_optimal(g, ProportionFunction.parse("1"))

    @settings(max_examples=15, deadline=None)
    @given(g=small_graphs(max_n=5), seed=...)
    def test_lower_bounds_every_algorithm(self, g, seed: int):
        from hopcompress import random_order

        pf = ProportionFunction.parse("0,1")
        best, _ = brute_force_optimal(g, pf)
        result = compress_basic(g, pf, random_order(g, seed))
        assert result.kept_count() >= best


class TestDistanceMonotonicity:
    @settings(max_examples=30, deadline=None)
    @given(g=small_graphs(min_n=3), seed=...)
    def test_subgraph_distances_never_shrink(self, g, seed: int):
        from hopcompress import random_order

        edges = list(random_order(g, seed).edges)[::2]
        gc = Graph.from_edges(g.n, edges)
        for u in range(g.n):
            dg = oracle_distances(g, u)
            dc = oracle_distances(gc, u)
            for v, d in dc.items():
                assert d >= dg.get(v, 0)

    @settings(max_examples=40, deadline=None)
    @given(g=small_graphs(min_n=3), seed=...)
    def test_full_final_proportion_preserves_connectivity(self, g, seed: int):
        # with p(t) = 1 no connected pair may fall apart
        from hopcompress import random_order

        pf = ProportionFunction.parse("0,1")
        result = compress_basic(g, pf, random_order(g, seed))
        gc = result.subgraph()
        for u in range(g.n):
            reachable_g = set(oracle_distances(g, u))
            reachable_c = set(oracle_distances(gc, u))
            assert reachable_g == reachable_c


class TestDiamondOrderSpace:
    def test_minimum_over_all_orders_is_three(self, diamond):
        pf = ProportionFunction.parse("1/2,1")
        costs = {
            compress_basic(diamond, pf, list(order)).kept_count()
            for order in permutations(diamond.edges())
        }
        assert min(costs) == 3


class TestBench:
    def test_report_shape_and_determinism(self):
        family = FamilySpec(count=3, n=8, m=12, seed=5)
        pf = ProportionFunction.parse("0,1")
        kwargs = dict(sa_params=SaParams(iterations=20))
        first = bench_orderings(family, pf, ["basic", "ec", "sa"], **kwargs)
        second = bench_orderings(family, pf, ["basic", "ec", "sa"], **kwargs)
        assert first.seeds == (5, 6, 7)
        assert [s.strategy for s in first.stats] == ["basic-random", "ec", "sa"]
        assert [s.mean_kept for s in first.stats] == [s.mean_kept for s in second.stats]

    def test_json_key_set(self):
        family = FamilySpec(count=2, n=6, m=6, seed=0)
        report = bench_orderings(family, ProportionFunction.parse("1"), ["basic"])
        payload = json.loads(report.to_json())
        entry = payload["strategies"][0]
        assert set(entry) == {"strategy", "mean_ec", "mean_seconds", "trials", "seed_list"}
        assert entry["trials"] == 2
        assert entry["seed_list"] == [0, 1]

    def test_single_edge_family(self):
        family = FamilySpec(count=1, n=2, m=1, seed=3)
        report = bench_orderings(family, ProportionFunction.parse("1"), ["basic-random"])
        assert report.stats[0].mean_kept == 1.0

    def test_parallel_matches_serial(self):
        family = FamilySpec(count=4, n=8, m=14, seed=11)
        pf = ProportionFunction.parse("0,1/2")
        serial = bench_orderings(family, pf, ["basic", "ec"], jobs=1)
        parallel = bench_orderings(family, pf, ["basic", "ec"], jobs=2)
        assert [s.mean_kept for s in serial.stats] == [s.mean_kept for s in parallel.stats]

    def test_sa_paired_with_basic_start(self):
        # sa shares the trial seed with basic-random, so it can never
        # end above it on any instance
        family = FamilySpec(count=5, n=10, m=20, seed=2)
        pf = ProportionFunction.parse("0,1")
        report = bench_orderings(
            family, pf, ["basic", "sa"], sa_params=SaParams(iterations=30)
        )
        by_name = {s.strategy: s for s in report.stats}
        assert by_name["sa"].mean_kept <= by_name["basic-random"].mean_kept

    def test_unknown_strategy_rejected(self):
        family = FamilySpec(count=1, n=4, m=3, seed=0)
        with pytest.raises(ValueError, match="unknown strategy"):
            bench_orderings(family, ProportionFunction.parse("1"), ["zigzag"])


class TestStrategyRegistry:
    def test_every_entry_point_reads_one_table(self, triangle, capsys):
        from hopcompress.cli import main
        from hopcompress.orderings import STRATEGIES, STRATEGY_NAMES

        assert main(["compress", "--help"]) == 0
        assert "{random,basic,basic-random,lp,ec,sa}" in capsys.readouterr().out
        assert list(STRATEGIES) == ["random", "basic", "basic-random", "lp", "ec", "sa"]
        assert STRATEGY_NAMES == ("basic-random", "lp", "ec", "sa")
        pf = ProportionFunction.parse("1")
        for name, canonical in STRATEGIES.items():
            result = run_strategy(triangle, pf, name, seed=3, sa_params=SaParams(iterations=5))
            assert result.strategy == canonical.replace("basic-", "")
            assert result.seed == (None if canonical in ("lp", "ec") else 3)
        with pytest.raises(ValueError, match=r"unknown strategy 'zigzag'; choose from \('basic-random', 'lp', 'ec', 'sa'\)"):
            run_strategy(triangle, pf, "zigzag")
