import hashlib
import math
import random
import time
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopcompress import (
    Graph,
    ProportionFunction,
    SaParams,
    SizeLimitError,
    build_lp,
    builtin,
    compress_basic,
    ec_order,
    ec_scores,
    gen_gnm,
    lp_order,
    random_order,
    run_strategy,
    sa_compress,
    sa_order,
    solve_lp,
    verify,
)

import hopcompress.graph as graph_module
import hopcompress.orderings as orderings_module
from hopcompress.graph import _simple_paths
from hopcompress.orderings import STRATEGIES, _swap_positions

from conftest import proportion_functions, recursive_simple_paths, small_graphs


def oracle_ec_scores(g, t):
    """Pair-by-pair recount with the independent path enumerator."""
    scores = dict.fromkeys(g.edges(), 0)
    for u, v in g.edges():
        for path in recursive_simple_paths(g, u, v, t):
            for a, b in zip(path, path[1:]):
                scores[(a, b) if a < b else (b, a)] += 1
    return scores


def oracle_sa(g, pf, params):
    """Annealing with a full ``compress_basic`` on every candidate and the
    same RNG draws as ``sa_compress``; returns (best order, its kept set)."""
    rng = random.Random(params.seed)
    current = list(g.edges())
    rng.shuffle(current)
    cost_current = compress_basic(g, pf, current).kept_count()
    best, cost_best = current, cost_current
    temperature = params.t0
    for _ in range(params.iterations):
        candidate = list(current)
        if len(current) >= 2:
            i, j = rng.sample(range(len(current)), 2)
            candidate[i], candidate[j] = candidate[j], candidate[i]
        cost = compress_basic(g, pf, candidate).kept_count()
        if cost < cost_best:
            best, cost_best = candidate, cost
        if cost < cost_current:
            current, cost_current = candidate, cost
        else:
            # at T = 0, the limit: weight 1 for an equal cost, 0 for a worse one
            if temperature:
                weight = math.exp((cost_current - cost) / temperature)
            else:
                weight = float(cost == cost_current)
            if weight > rng.random():
                current, cost_current = candidate, cost
        temperature *= params.alpha
    return tuple(best), compress_basic(g, pf, best).kept


class TestRandomOrder:
    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert random_order(g, 42) == ((0, 1),)

    def test_deterministic_per_seed(self, diamond):
        assert random_order(diamond, 5) == random_order(diamond, 5)

    def test_is_permutation(self, diamond):
        order = random_order(diamond, 1)
        assert set(order) == diamond.edge_set()

    def test_uniform_over_permutations(self, triangle):
        counts = Counter(random_order(triangle, seed) for seed in range(1000))
        assert len(counts) == 6
        for count in counts.values():
            assert abs(count / 1000 - 1 / 6) <= 0.05


class TestEcScores:
    def test_triangle_all_tied(self, triangle):
        assert ec_scores(triangle, 2) == {(0, 1): 3, (0, 2): 3, (1, 2): 3}

    def test_path_direct_only(self):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert ec_scores(path, 2) == {(0, 1): 1, (1, 2): 1}

    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert ec_scores(g, 3) == {(0, 1): 1}

    def test_total_score_counts_path_edges(self, diamond):
        scores = ec_scores(diamond, 2)
        total_edges_on_paths = sum(
            len(p) - 1
            for u, v in diamond.edges()
            for p in recursive_simple_paths(diamond, u, v, 2)
        )
        assert sum(scores.values()) == total_edges_on_paths

    @settings(max_examples=60, deadline=None)
    @given(g=small_graphs(), t=st.integers(1, 4))
    def test_matches_pairwise_oracle(self, g, t: int):
        assert ec_scores(g, t) == oracle_ec_scores(g, t)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 30),
        density=st.floats(0, 1),
        seed=st.integers(0, 2**32 - 1),
        t=st.integers(1, 4),
    )
    def test_gnm_matches_pairwise_oracle(self, n, density, seed, t):
        m = int(density * min(90, n * (n - 1) // 2))
        g = gen_gnm(n, m, seed)
        assert ec_scores(g, t) == oracle_ec_scores(g, t)

    @pytest.mark.parametrize(
        "g, t, score",
        [
            (Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 3, 4),
            (Graph.from_edges(4, combinations(range(4), 2)), 2, 5),
            (Graph.from_edges(4, combinations(range(4), 2)), 3, 11),
            (Graph.from_edges(5, combinations(range(5), 2)), 2, 7),
            (Graph.from_edges(5, combinations(range(5), 2)), 3, 25),
            # two disjoint triangles and an isolated vertex: no 4-cycle
            (Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]), 2, 3),
            (Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]), 3, 3),
            # a hub: every spoke lies on its own direct path only
            (Graph.from_edges(2001, [(0, leaf) for leaf in range(1, 2001)]), 2, 1),
        ],
        ids=["C4-t3", "K4-t2", "K4-t3", "K5-t2", "K5-t3", "triangles-t2", "triangles-t3",
             "star2000-t2"],
    )
    def test_exact_scores(self, g, t, score):
        assert ec_scores(g, t) == dict.fromkeys(g.edges(), score)

    def test_long_path_scores_quickly(self):
        # one path search per edge: a search must cost its own path, not n
        n = 50_000
        path = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
        start = time.perf_counter()
        scores = ec_scores(path, 3)
        assert time.perf_counter() - start < 2.0
        assert scores == dict.fromkeys(path.edges(), 1)

    def test_edgeless_graph(self):
        g = Graph.from_edges(5, [])
        for t in (1, 2, 3, 4):
            assert ec_scores(g, t) == {}

    def test_rejects_t_zero(self, triangle):
        with pytest.raises(ValueError, match="t must be >= 1"):
            ec_scores(triangle, 0)

    def test_scan_budget(self, monkeypatch):
        k5 = Graph.from_edges(5, combinations(range(5), 2))  # 40 entries scanned per edge at t=3
        monkeypatch.setattr(graph_module, "MAX_PATH_SCANS", 400)
        assert ec_scores(k5, 3) == dict.fromkeys(k5.edges(), 25)
        monkeypatch.setattr(graph_module, "MAX_PATH_SCANS", 0)
        assert ec_scores(k5, 2) == dict.fromkeys(k5.edges(), 7)  # counted, not enumerated
        calls = []

        def counting(g, u, v, max_len, max_scans):
            calls.append((u, v, max_scans))
            return _simple_paths(g, u, v, max_len, max_scans)

        monkeypatch.setattr(graph_module, "_simple_paths", counting)
        # at t=3 the up-front count is the whole search: one entry short
        # of it, no search starts
        monkeypatch.setattr(graph_module, "MAX_PATH_SCANS", 399)
        with pytest.raises(
            SizeLimitError,
            match=r"^more than 399 adjacency entries to scan for paths of at most 3 edges "
            "exceed the path-search guard;",
        ):
            ec_scores(k5, 3)
        assert calls == []
        # at t=4 each search scans 64 entries, 40 of them counted up front:
        # the searches start and the seventh passes the budget
        monkeypatch.setattr(graph_module, "MAX_PATH_SCANS", 447)
        with pytest.raises(SizeLimitError, match=r"^more than 447 .* at most 4 edges "):
            ec_scores(k5, 4)
        assert calls == [
            (0, 1, 447), (0, 2, 383), (0, 3, 319), (0, 4, 255), (1, 2, 191), (1, 3, 127), (1, 4, 63)
        ]

    def test_scan_budget_counts_dead_ends(self, path_enumerations, monkeypatch):
        # one path per edge, but the search from the hub scans every leaf
        star = Graph.from_edges(201, [(0, leaf) for leaf in range(1, 201)])
        monkeypatch.setattr(graph_module, "MAX_PATH_SCANS", 200 * 399 - 1)
        with pytest.raises(SizeLimitError, match="path-search guard"):
            ec_scores(star, 3)
        assert path_enumerations == []  # refused from the first level's count
        monkeypatch.undo()  # lifts the fixture's 20-search cap too
        monkeypatch.setattr(graph_module, "MAX_PATH_SCANS", 200 * 399)
        assert ec_scores(star, 3) == dict.fromkeys(star.edges(), 1)


class TestEcOrder:
    def test_triangle_canonical_ties(self, triangle):
        assert ec_order(triangle, 2) == ((0, 1), (0, 2), (1, 2))

    def test_star_spokes_canonical(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert ec_order(star, 2) == ((0, 1), (0, 2), (0, 3))

    def test_descending_scores(self, diamond):
        order = ec_order(diamond, 2)
        scores = ec_scores(diamond, 2)
        ranked = [scores[e] for e in order]
        assert ranked == sorted(ranked, reverse=True)

    def test_deterministic(self, diamond):
        assert ec_order(diamond, 2) == ec_order(diamond, 2)

    def test_descending_breaks_ties_by_canonical_edge(self):
        scores = {(2, 3): 1, (0, 3): 0.5, (1, 2): 1, (0, 2): 2, (0, 1): 1, (1, 3): 2}
        assert orderings_module._descending(scores) == (
            (0, 2), (1, 3), (0, 1), (1, 2), (2, 3), (0, 3)
        )


class TestOrderBuilders:
    @settings(max_examples=40, deadline=None)
    @given(g=small_graphs(), pf=proportion_functions(), seed=...)
    def test_every_order_is_a_permutation_of_the_edges(self, g, pf, seed: int):
        orders = {"random": random_order(g, seed), "lp": lp_order(g, pf)}
        orders.update((f"ec-t{t}", ec_order(g, t)) for t in (1, 2, 3))
        orders["sa"] = sa_order(g, pf, SaParams(iterations=20, seed=seed))
        for name, order in orders.items():
            assert type(order) is tuple, name
            assert sorted(order) == list(g.edges()), name

    @settings(max_examples=25, deadline=None)
    @given(g=small_graphs(), pf=proportion_functions(), seed=...)
    def test_sa_best_order_replays(self, g, pf, seed: int):
        params = SaParams(iterations=20, seed=seed)
        order = sa_order(g, pf, params)
        assert compress_basic(g, pf, order).kept == sa_compress(g, pf, params).kept


# SHA-256 of repr() of the (sorted kept, strategy, seed, lp_iterations)
# records that run_strategy gives under every strategy name, with its
# default seed and SA schedule, on zachary at p=1/2,1 and 0,1/2 and on
# gen_gnm(20, 60, 1000) at 0,1/2
RUN_RECORDS_DIGEST = "712a0f4a305784036f763223e0fd9636d90dbf62471d9bae07dca2a29d22ebf0"


class TestRunStrategy:
    def test_records_metadata(self, triangle):
        pf = ProportionFunction.parse("1")
        result = run_strategy(triangle, pf, "random", seed=3)
        assert (result.strategy, result.seed, result.lp_iterations) == ("random", 3, None)
        assert result.kept == compress_basic(triangle, pf, random_order(triangle, 3)).kept

    def test_run_records_are_pinned(self):
        zachary = builtin("zachary")
        records = []
        for g, p in ((zachary, "1/2,1"), (zachary, "0,1/2"), (gen_gnm(20, 60, 1000), "0,1/2")):
            pf = ProportionFunction.parse(p)
            for name in STRATEGIES:
                result = run_strategy(g, pf, name)
                kept = sorted(result.kept)
                records.append((kept, result.strategy, result.seed, result.lp_iterations))
        assert hashlib.sha256(repr(records).encode()).hexdigest() == RUN_RECORDS_DIGEST

    def test_lp_iterations_are_the_solvers(self, diamond):
        pf = ProportionFunction.parse("1/2,1")
        result = run_strategy(diamond, pf, "lp")
        assert result.lp_iterations == solve_lp(build_lp(diamond, pf)).iterations
        assert result.kept == compress_basic(diamond, pf, lp_order(diamond, pf)).kept


class TestSwapPositions:
    """SA's swap draw must repeat ``random.sample``'s pair and stream."""

    @pytest.mark.parametrize("m", [*range(2, 101), 1_000, 198_110, 2**40])
    def test_matches_random_sample(self, m):
        for seed in range(40):
            drawn, sampled = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert _swap_positions(drawn, m) == tuple(sorted(sampled.sample(range(m), 2)))
                assert drawn.random() == sampled.random()  # SA's acceptance draw


class TestSaCompress:
    def test_zero_iterations_equals_initial_order(self, diamond):
        pf = ProportionFunction.parse("1/2,1")
        params = SaParams(iterations=0, seed=9)
        result = sa_compress(diamond, pf, params)
        baseline = compress_basic(diamond, pf, random_order(diamond, 9))
        assert result.kept == baseline.kept

    def test_triangle_reaches_two(self, triangle):
        pf = ProportionFunction.parse("0,1")
        result = sa_compress(triangle, pf, SaParams(iterations=50, seed=1))
        assert result.kept_count() == 2

    def test_diamond_reaches_optimum(self, diamond):
        pf = ProportionFunction.parse("1/2,1")
        result = sa_compress(
            diamond, pf, SaParams(iterations=1000, t0=10.0, alpha=0.99, seed=0)
        )
        assert result.kept_count() == 3

    def test_single_edge_graph(self):
        g = Graph.from_edges(2, [(0, 1)])
        result = sa_compress(g, ProportionFunction.parse("1"), SaParams(iterations=5))
        assert result.kept == {(0, 1)}

    def test_result_metadata(self, triangle):
        result = sa_compress(triangle, ProportionFunction.parse("0,1"), SaParams(seed=4, iterations=10))
        assert result.strategy == "sa" and result.seed == 4

    @pytest.mark.parametrize("p", ["0,1/2", "1/2,1", "1/3,2/3,1", "1", "0,0,1/2"])
    def test_matches_full_rescan_oracle(self, p, monkeypatch):
        pf = ProportionFunction.parse(p)
        # G(40, 100) spread over 1100 vertex ids, past MASK_SCAN_MAX_N: the list scan
        sparse = Graph.from_edges(1100, [(27 * u + 13, 27 * v + 13) for u, v in gen_gnm(40, 100, 5).edges()])
        graphs = [gen_gnm(20, 60, seed) for seed in (1, 2, 3)] + [
            gen_gnm(12, 30, 4),
            Graph.from_edges(2, [(0, 1)]),
            Graph.from_edges(3, []),
            sparse,
        ]
        final_orders = []

        def spy(g, pf, order):
            final_orders.append(order)
            return compress_basic(g, pf, order)

        monkeypatch.setattr(orderings_module, "compress_basic", spy)
        for seed, g in enumerate(graphs):
            params = SaParams(iterations=300, seed=seed)
            result = sa_compress(g, pf, params)
            best, kept = oracle_sa(g, pf, params)
            assert final_orders[-1] == best
            assert result.kept == kept

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            SaParams(iterations=-1)
        for t0 in (0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="t0 must be positive and finite"):
                SaParams(t0=t0)
        with pytest.raises(ValueError):
            SaParams(alpha=1.0)

    def test_temperature_underflow_takes_the_cold_limit(self, monkeypatch):
        # alpha=0.5 cools 10.0 to exactly 0.0 after about 1080 trials
        params = SaParams(iterations=1200, alpha=0.5, seed=2)
        assert params.t0 * params.alpha**1100 == 0.0
        pf = ProportionFunction.parse("0,1/2")
        g = gen_gnm(12, 30, 4)
        final_orders = []

        def spy(g, pf, order):
            final_orders.append(order)
            return compress_basic(g, pf, order)

        monkeypatch.setattr(orderings_module, "compress_basic", spy)
        result = sa_compress(g, pf, params)
        best, kept = oracle_sa(g, pf, params)
        assert final_orders[-1] == best
        assert result.kept == kept

    @pytest.mark.parametrize("m", [0, 1])
    def test_fewer_than_two_edges_return_the_shuffle(self, m, monkeypatch):
        # no swap exists, so no scan runs and no trial count is refused
        monkeypatch.setattr(orderings_module, "_scan", None)
        g = Graph.from_edges(3, [(0, 2)][:m])
        pf = ProportionFunction.parse("1/2,1")
        for iterations in (0, 5, 10**9):
            params = SaParams(iterations=iterations, seed=7)
            assert sa_order(g, pf, params) == random_order(g, 7)

    def test_work_guard_at_its_boundary(self, triangle, monkeypatch):
        # a stubbed scan keeps every edge, so only the guard decides
        scans = []
        monkeypatch.setattr(
            orderings_module, "_scan", lambda g, order, *args: scans.append(order) or [1] * 3
        )
        pf = ProportionFunction.parse("0,1/2")
        limit = orderings_module.MAX_SA_EDGE_TRIALS
        with pytest.raises(SizeLimitError, match="--sa-iters or use the ec or random ordering"):
            sa_order(triangle, pf, SaParams(iterations=limit // 3 + 1))
        assert scans == []
        monkeypatch.setattr(orderings_module, "MAX_SA_EDGE_TRIALS", 12)
        sa_order(triangle, pf, SaParams(iterations=4))  # 3 edges x 4 trials = 12
        assert len(scans) == 1 + 4
        with pytest.raises(
            SizeLimitError, match=r"^5 annealing trials over 3 edges exceed the SA guard of 12 "
        ):
            sa_order(triangle, pf, SaParams(iterations=5))
        assert len(scans) == 1 + 4

    @settings(max_examples=25, deadline=None)
    @given(g=small_graphs(min_n=3), seed=...)
    def test_never_worse_than_initial_order(self, g, seed: int):
        pf = ProportionFunction.parse("0,1/2")
        result = sa_compress(g, pf, SaParams(iterations=40, seed=seed))
        initial = compress_basic(g, pf, random_order(g, seed))
        assert result.kept_count() <= initial.kept_count()
        assert verify(g, result.subgraph(), pf).ok
