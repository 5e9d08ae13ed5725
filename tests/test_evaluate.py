import concurrent.futures
import json
import math
import os
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopcompress import (
    FamilySpec,
    Graph,
    NotASubgraphError,
    ProportionFunction,
    SaParams,
    SizeLimitError,
    StretchReport,
    bench_orderings,
    builtin,
    compress_basic,
    compression_ratio,
    exact_minimum,
    gen_gnm,
    run_strategy,
    sp_histogram,
    stretch_check,
    verify,
)

import hopcompress.evaluate as evaluate_module
import hopcompress.lp
from hopcompress.evaluate import BENCH_MAX_N

from conftest import oracle_distances, oracle_minimum, proportion_functions, small_graphs


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

    @settings(max_examples=200, deadline=None)
    @given(g=small_graphs(min_n=0, max_n=9), keep=st.lists(st.booleans(), max_size=36), t=st.integers(1, 4))
    @example(g=Graph.from_edges(0, []), keep=[], t=1)
    # two triangles, each missing one edge, beside an isolated vertex
    @example(g=Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), keep=[1, 0, 1, 0, 1, 1], t=1)
    def test_matches_oracle_distances(self, g, keep, t):
        # edge i is kept when keep[i] is true, so kept graphs fall into
        # several components and leave vertices isolated
        gc = Graph.from_edges(g.n, [e for e, k in zip(g.edges(), keep) if k])
        removed = [(u, v) for u, v in g.edges() if not gc.has_edge(u, v)]
        worst = max((float(oracle_distances(gc, u).get(v, math.inf)) for u, v in removed), default=1.0)
        report = stretch_check(g, gc, t)
        assert report == StretchReport(ok=worst <= t, max_stretch=worst)
        assert type(report.max_stretch) is float

    def test_edges_across_components_answer_at_once(self):
        # each removed edge joins two kept paths; a BFS per edge would
        # walk a whole path each time
        n = 5000
        paths = [(i, i + 1) for i in range(n - 1)] + [(n + i, n + i + 1) for i in range(n - 1)]
        cross = [(k // n, n + k % n) for k in random.Random(0).sample(range(n * n), 3000)]
        g = Graph.from_edges(2 * n, paths + cross)
        gc = Graph.from_edges(2 * n, paths)
        start = time.perf_counter()
        report = stretch_check(g, gc, 2)
        assert time.perf_counter() - start < 1.0
        assert not report.ok and math.isinf(report.max_stretch)


class TestBruteForceOptimal:
    """The optimum from exact_minimum, checked against conftest's brute-force
    subset enumeration."""

    def test_diamond(self, diamond):
        best, witness = exact_minimum(diamond, ProportionFunction.parse("1/2,1"))
        assert best == 3 == oracle_minimum(diamond, ProportionFunction.parse("1/2,1"))
        assert witness.m == 3
        assert verify(diamond, witness, ProportionFunction.parse("1/2,1")).ok

    def test_triangle(self, triangle):
        best, _ = exact_minimum(triangle, ProportionFunction.parse("0,1"))
        assert best == 2 == oracle_minimum(triangle, ProportionFunction.parse("0,1"))

    def test_full_neighborhood_forces_identity(self, diamond):
        best, witness = exact_minimum(diamond, ProportionFunction.parse("1"))
        assert best == diamond.m
        assert witness == diamond

    def test_guard(self, monkeypatch):
        # scipy 1.17's HiGHS needs a cap of 4 nodes to prove this optimum of 4
        g, pf = gen_gnm(6, 9, 0), ProportionFunction.parse("0,1/2")
        monkeypatch.setattr(hopcompress.lp, "MAX_MIP_NODES", 4)
        assert exact_minimum(g, pf)[0] == 4
        monkeypatch.setattr(hopcompress.lp, "MAX_MIP_NODES", 3)
        with pytest.raises(
            SizeLimitError, match=r"kSolutionLimit .*; past the exact minimum's guard of 3 nodes$"
        ):
            exact_minimum(g, pf)

    def test_guards_of_the_model_apply(self):
        # K_60 at t = 3 would ask for ~6M path variables; no ordering is a
        # remedy for wanting the minimum, so none is advised
        cases = [
            (gen_gnm(60, 1770, 0), "0,0,1/2", "more than 40000000 adjacency entries to scan for paths "
             "of at most 3 edges exceed the path-search guard"),
            (gen_gnm(200, 10001, 0), "1/2", "more than 10000 paths or 130000 constraint entries for "
             "paths of at most 1 edges exceed the LP guard"),
        ]
        for g, p, finding in cases:
            with pytest.raises(SizeLimitError) as raised:
                exact_minimum(g, ProportionFunction.parse(p))
            assert str(raised.value) == f"exact minimum refused: {finding}"
            assert isinstance(raised.value.__cause__, SizeLimitError)
            assert "ordering" not in str(raised.value)

    @pytest.mark.parametrize("p, optimum", [("1/2,1", 46), ("0,1/2", 31)])
    def test_zachary_optima(self, p, optimum):
        g, pf = builtin("zachary"), ProportionFunction.parse(p)
        best, witness = exact_minimum(g, pf)
        assert best == optimum == witness.m
        assert verify(g, witness, pf).ok

    def test_same_witness_every_call(self):
        g, pf = gen_gnm(7, 12, 0), ProportionFunction.parse("0,1/2")  # a 7-node search
        assert exact_minimum(g, pf) == exact_minimum(g, pf)

    @pytest.mark.parametrize("p", ["1/1000000", "0,1/100000000"])
    def test_tiny_proportions_need_a_whole_neighbour(self, triangle, p):
        # HiGHS's feasibility tolerance once let a coverage sum of 0 pass p·deg = 2e-6
        pf = ProportionFunction.parse(p)
        best, witness = exact_minimum(triangle, pf)
        assert best == 2 == oracle_minimum(triangle, pf)
        assert verify(triangle, witness, pf).ok

    def test_edgeless_graph(self):
        g = Graph.from_edges(3, [])
        assert exact_minimum(g, ProportionFunction.parse("1")) == (0, g)

    @settings(max_examples=150, deadline=None)
    @given(
        g=small_graphs(max_n=6).filter(lambda g: g.m <= 12),
        pf=proportion_functions(max_t=3),
    )
    def test_matches_subset_enumeration(self, g, pf):
        best, witness = exact_minimum(g, pf)
        assert best == oracle_minimum(g, pf)
        assert witness.m == best
        assert verify(g, witness, pf).ok

    @settings(max_examples=15, deadline=None)
    @given(g=small_graphs(max_n=5), seed=...)
    def test_lower_bounds_every_algorithm(self, g, seed: int):
        from hopcompress import random_order

        pf = ProportionFunction.parse("0,1")
        best, _ = exact_minimum(g, pf)
        result = compress_basic(g, pf, random_order(g, seed))
        assert result.kept_count() >= best


class TestDistanceMonotonicity:
    @settings(max_examples=30, deadline=None)
    @given(g=small_graphs(min_n=3), seed=...)
    def test_subgraph_distances_never_shrink(self, g, seed: int):
        from hopcompress import random_order

        edges = list(random_order(g, seed))[::2]
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

    def test_benchmark_family_means_are_pinned(self):
        # the family-g20 benchmark workload's family at its --seed 0: any
        # change to an ordering or to the scan shows up in these totals
        family = FamilySpec(count=30, n=20, m=60, seed=1000)
        report = bench_orderings(family, ProportionFunction.parse("0,1/2"), ["basic", "lp", "ec", "sa"])
        assert [s.mean_kept for s in report.stats] == [851 / 30, 764 / 30, 731 / 30, 652 / 30]

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

    @pytest.mark.parametrize(
        "jobs, count, cpus, workers",
        [
            (100_000, 2, 8, 2),
            (3, 30, 8, 3),
            (100_000, 30, 4, 4),
            (100_000, 5, None, None),
            (5, 1, 8, None),
        ],
    )
    def test_worker_count_is_bounded(self, monkeypatch, jobs, count, cpus, workers):
        started = []

        class SerialPool:
            """Records its size and maps in this process; starts no worker."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        family = FamilySpec(count=count, n=7, m=9, seed=2)
        pf = ProportionFunction.parse("0,1/2")
        report = bench_orderings(family, pf, ["basic", "ec"], jobs=jobs)
        assert started == ([] if workers is None else [workers])
        serial = bench_orderings(family, pf, ["basic", "ec"], jobs=1)
        assert [s.mean_kept for s in report.stats] == [s.mean_kept for s in serial.stats]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        family = FamilySpec(count=3, n=7, m=9, seed=2)
        with pytest.raises(ValueError, match=f"^jobs must be >= 1, got {jobs}$"):
            bench_orderings(family, ProportionFunction.parse("0,1/2"), ["basic"], jobs=jobs)

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

    @pytest.mark.parametrize(
        "strategies, message",
        [
            ([], "no strategy given"),
            (["basic", "random"], "strategy 'basic-random' named more than once"),
            (["lp", "ec", "lp"], "strategy 'lp' named more than once"),
        ],
        ids=["empty", "alias", "repeat"],
    )
    def test_empty_or_repeated_strategies_rejected(self, strategies, message):
        family = FamilySpec(count=1, n=4, m=3, seed=0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            bench_orderings(family, ProportionFunction.parse("1"), strategies)


class TestBenchVertexGuard:
    def test_refused_past_the_guard_before_any_instance(self, monkeypatch):
        built = []

        def tiny_instance(n, m, seed):
            built.append(n)
            return Graph.from_edges(2, [(0, 1)])

        monkeypatch.setattr(evaluate_module, "gen_gnm", tiny_instance)
        pf = ProportionFunction.parse("0,1/2")
        over = FamilySpec(count=2, n=BENCH_MAX_N + 1, m=1)
        message = rf"^n={BENCH_MAX_N + 1} exceeds the bench guard of {BENCH_MAX_N} vertices$"
        with pytest.raises(ValueError, match=message):
            bench_orderings(over, pf, ["basic"])
        assert built == []
        bench_orderings(FamilySpec(count=2, n=BENCH_MAX_N, m=1), pf, ["basic"])
        assert built == [BENCH_MAX_N] * 2


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
