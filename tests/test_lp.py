import hashlib
import itertools
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import hopcompress
import hopcompress.graph
from hopcompress import (
    Graph,
    LpModel,
    LpSolution,
    ProportionFunction,
    SizeLimitError,
    brute_force_optimal,
    build_lp,
    builtin,
    compress_basic,
    dump_lp,
    gen_gnm,
    lp_order,
    solve_lp,
    verify,
)
from hopcompress.graph import MAX_PATH_SCANS
from hopcompress.lp import MAX_PATH_VARS, LpRow, _highs_solve

from conftest import small_graphs

# lp_order(builtin("zachary"), "1/2,1") from HiGHS
ZACHARY_LP_ORDER = (
    (0, 11), (0, 31), (1, 30), (2, 9), (2, 27), (2, 28), (3, 7), (9, 33), (13, 33),
    (19, 33), (23, 25), (24, 27), (0, 8), (1, 7), (3, 13), (2, 8), (8, 32), (14, 32),
    (15, 32), (18, 32), (20, 32), (22, 32), (26, 29), (29, 33), (30, 32), (32, 33),
    (4, 6), (4, 10), (5, 10), (1, 13), (0, 1), (0, 3), (0, 12), (0, 17), (0, 19),
    (0, 21), (1, 17), (1, 19), (1, 21), (3, 12), (5, 6), (5, 16), (6, 16), (23, 27),
    (23, 33), (24, 25), (24, 31), (25, 31), (27, 33), (28, 31), (28, 33), (31, 32),
    (31, 33), (0, 4), (0, 5), (0, 6), (0, 10), (2, 32), (14, 33), (15, 33), (18, 33),
    (20, 33), (22, 33), (23, 29), (26, 33), (29, 32), (2, 3), (1, 2), (2, 7), (2, 13),
    (8, 30), (8, 33), (30, 33), (0, 2), (0, 7), (0, 13), (1, 3), (23, 32),
)


# family-g20 seed-0 instances gen_gnm(20, 60, seed) at p=0,1/2: the optimal
# objective (float.hex) recorded from the hand-written simplex that HiGHS
# replaced, which HiGHS must match within 1e-9; HiGHS's simplex iterations;
# and the SHA-256 of repr(lp_order(...)) under HiGHS
FAMILY_LP_FINGERPRINTS = {
    1000: ("0x1.ba95222a51fd0p+3", 476, "58ba3e111a756540b2307a041d6e1d7263f64aff590f57d6e0a9fe30038b1dc7"),
    1001: ("0x1.9351fdfd86a34p+3", 472, "66403cb2f39b67f5b99194a7bb8f32f51d2e59bec5e0b55a0ea46f69c1a5b7e3"),
    1002: ("0x1.6682050faa10cp+3", 374, "c5b7473a0b4ffb9b73427bf01a8a9abaf21d42c210b9223039fa7f234c075b81"),
}


# SHA-256 of dump_lp(build_lp(g, p)) + repr(witness_at_upper), which pins
# the row order as well as the rows: zachary, and gen_gnm(20, 60, seed)
MODEL_DIGESTS = {
    ("zachary", "0,1/2"): "0861e9f593cf31ff9340a9008723ff1591ba8c6a7b6d791d43cfcc7fea2e200f",
    ("zachary", "1/3,2/3,1"): "151e548b394d0612911594504843c99bdce9e765ba63ac623156c2e7df1ac734",
    (1000, "0,1/2"): "5a8a8056e818c0bc3a940dcbd2d0683f3808e090241b521eccae3b7cf5bc95da",
    (1001, "0,1/2"): "383413e2661b0cec632c6f53a964947c4383bb9437ae39b4aed7bd7c6b4793ed",
    (1002, "0,1/2"): "86c97c5ee00e8b3e91a85613fb6ad612258ca82c03b8de55d491d47986a0a0ad",
}


def rows_only(start, col, coeff, lower, upper) -> LpModel:
    """A model that carries only the row arrays, as ``_highs_solve`` reads them."""
    return LpModel(
        edges=(), paths=(), start=start, col=col, coeff=coeff, lower=lower, upper=upper,
        tags=(), witness_at_upper=(),
    )


def dense_rows(a, senses, b) -> LpModel:
    """``a[i] . x (senses[i]) b[i]`` as the row-wise form HiGHS is given."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    row_of, col = np.nonzero(a)  # row by row
    at_most = np.array([sense == "<=" for sense in senses])
    return rows_only(
        start=tuple(np.concatenate(([0], np.cumsum(np.count_nonzero(a, axis=1)))).tolist()),
        col=tuple(col.tolist()),
        coeff=tuple(a[row_of, col].tolist()),
        lower=tuple(np.where(at_most, -np.inf, b).tolist()),
        upper=tuple(np.where(at_most, b, np.inf).tolist()),
    )


def solve(c, a, senses, b):
    """min c.x over the rows with 0 <= x <= 1: (x, objective, iterations)."""
    return _highs_solve(np.asarray(c, dtype=float), dense_rows(a, senses, b))


def scipy_reference(c, a, senses, b):
    flip = np.array([1.0 if sense == "<=" else -1.0 for sense in senses])
    return linprog(
        c,
        A_ub=np.asarray(a) * flip[:, None],
        b_ub=np.asarray(b) * flip,
        bounds=[(0, 1)] * len(c),
        method="highs",
    )


def row_tags(model):
    tags = {}
    for row in model.rows:
        tags[row.tag] = tags.get(row.tag, 0) + 1
    return tags


def row_arrays(rows):
    """LpRow records as LpModel's row-wise fields, in record order."""
    start, col, coeff = [0], [], []
    for row in rows:
        col += [var for var, _ in row.coeffs]
        coeff += [c for _, c in row.coeffs]
        start.append(len(col))
    return dict(
        start=tuple(start),
        col=tuple(col),
        coeff=tuple(coeff),
        lower=tuple(-math.inf if row.sense == "<=" else row.rhs for row in rows),
        upper=tuple(row.rhs if row.sense == "<=" else math.inf for row in rows),
        tags=tuple(row.tag for row in rows),
    )


def edge_model(rows, witness_at_upper):
    """A hand-built model whose variables are all edge variables (cost 1)."""
    n = 1 + max(var for row in rows for var, _ in row.coeffs)
    return LpModel(
        edges=tuple((0, k + 1) for k in range(n)),
        paths=((),) * n,
        **row_arrays(rows),
        witness_at_upper=tuple(witness_at_upper),
    )


class TestBuildLp:
    def test_single_edge_model(self):
        g = Graph.from_edges(2, [(0, 1)])
        model = build_lp(g, ProportionFunction.parse("1"))
        assert model.num_vars == 2
        assert row_tags(model) == {
            "path-needs-edge": 1,
            "one-route-per-edge": 1,
            "coverage": 2,  # one per endpoint at level 1
        }

    def test_triangle_t2_variable_count(self, triangle):
        model = build_lp(triangle, ProportionFunction.parse("0,1"))
        # 3 edge vars + per edge one direct and one two-hop path
        assert model.num_vars == 9
        assert all(len(group) == 2 for group in model.paths)

    def test_path_t1_direct_only(self):
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        model = build_lp(path, ProportionFunction.parse("1"))
        assert model.num_vars == 4

    def test_row_counts_match_structure(self, diamond):
        pf = ProportionFunction.parse("0,1")
        model = build_lp(diamond, pf)
        tags = row_tags(model)
        path_edges = sum(len(p) - 1 for group in model.paths for p in group)
        assert tags["path-needs-edge"] == path_edges
        assert tags["one-route-per-edge"] == diamond.m
        # p(1) = 0: only level 2 asks for anything
        assert tags["coverage"] == diamond.n
        assert all(row.rhs > 0 for row in model.rows if row.sense == ">=")

    def test_long_path_gets_a_verified_order(self):
        # 5001 edges, one direct path each, far inside both counts
        g = Graph.from_edges(5002, [(i, i + 1) for i in range(5001)])
        pf = ProportionFunction.parse("1/2")
        result = compress_basic(g, pf, lp_order(g, pf))
        assert verify(g, result.subgraph(), pf).ok

    @settings(max_examples=25, deadline=None)
    @given(g=small_graphs())
    def test_orders_verify_at_four_levels(self, g):
        for text in ("0,0,0,1/2", "0,1/4,1/2,1"):
            pf = ProportionFunction.parse(text)
            result = compress_basic(g, pf, lp_order(g, pf))
            assert verify(g, result.subgraph(), pf).ok

    @pytest.mark.parametrize(
        "build, p, message",
        [
            # 9 997 entries at the first level of each spoke's search at t=3,
            # 49.97M in all
            (lambda: Graph.from_edges(5000, [(0, k) for k in range(1, 5000)]), "0,0,1/2",
             f"more than {MAX_PATH_SCANS} adjacency entries to scan for paths of at most 3 edges"),
            # K_60 at t=3: 6.2M entries at the first level, 351M over both
            (lambda: Graph.from_edges(60, list(itertools.combinations(range(60), 2))), "0,0,1/2",
             f"more than {MAX_PATH_SCANS} adjacency entries to scan for paths of at most 3 edges"),
            # every edge owns its direct path
            (lambda: Graph.from_edges(MAX_PATH_VARS + 2, [(i, i + 1) for i in range(MAX_PATH_VARS + 1)]),
             "1/2", f"more than {MAX_PATH_VARS} paths or {13 * MAX_PATH_VARS} constraint entries for paths of at most 1 edges"),
            # C_3000 at t = 2999: 3000 direct paths with 2 entries in each
            # of 2 * 2999 coverage rows, ~9M rows had the model been built
            (lambda: Graph.from_edges(3000, [(i, (i + 1) % 3000) for i in range(3000)]),
             ",".join(["1"] * 2999),
             f"more than {MAX_PATH_VARS} paths or {13 * MAX_PATH_VARS} constraint entries for paths of at most 2999 edges"),
            # P_5002 at 1000 levels of 1/2: 5001 direct paths, ~5M coverage rows
            (lambda: Graph.from_edges(5002, [(i, i + 1) for i in range(5001)]),
             ",".join(["1/2"] * 1000),
             f"more than {MAX_PATH_VARS} paths or {13 * MAX_PATH_VARS} constraint entries for paths of at most 1000 edges"),
        ],
        ids=["star-K1,4999", "K60-t3", "path-P10002", "cycle-C3000-t2999", "path-P5002-t1000"],
    )
    def test_refused_before_any_search(self, path_enumerations, build, p, message):
        with pytest.raises(SizeLimitError, match=f"^{message} exceed the "):
            build_lp(build(), ProportionFunction.parse(p))
        assert path_enumerations == []

    @pytest.mark.parametrize("hub", [0, 7000], ids=["hub-first", "hub-last"])
    @pytest.mark.parametrize("p", ["1", "0,1"])
    def test_large_star_builds_without_a_search(self, path_enumerations, hub, p):
        # K_{1,7000}: 7 000 direct paths, read from the rows at t <= 2; with
        # the hub first, a search from it would scan 49M entries at t=1
        star = Graph.from_edges(7001, [(hub, x) for x in range(7001) if x != hub])
        model = build_lp(star, ProportionFunction.parse(p))
        assert model.paths == tuple((e,) for e in star.edges())
        assert path_enumerations == []

    @settings(max_examples=25, deadline=None)
    @given(g=small_graphs(), t=st.integers(1, 4))
    def test_more_edges_than_path_vars_refused_before_any_search(self, g, t):
        calls = []

        def counting(*args):
            calls.append(args)
            return search(*args)

        search = hopcompress.graph._simple_paths
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hopcompress.lp, "MAX_PATH_VARS", g.m - 1)
            mp.setattr(hopcompress.graph, "_simple_paths", counting)
            with pytest.raises(SizeLimitError, match=f"^more than {g.m - 1} paths "):
                build_lp(g, ProportionFunction.parse(",".join(["0"] * (t - 1) + ["1"])))
        assert calls == []

    def test_entry_budget(self, path_enumerations):
        # K_8 at t = 7, p = 1 at every level: 1 957 paths per edge, each up
        # to 8 vertices long and scanned by 14 coverage rows, so the first
        # edge alone brings 52 841 entries and the third passes 130 000
        # while only 5 871 path variables are listed
        k8 = Graph.from_edges(8, list(itertools.combinations(range(8), 2)))
        with pytest.raises(SizeLimitError, match=f"^more than {MAX_PATH_VARS} paths or {13 * MAX_PATH_VARS} constraint entries "):
            build_lp(k8, ProportionFunction.parse(",".join(["1"] * 7)))
        assert len(path_enumerations) == 3

    def test_path_budget(self, path_enumerations):
        # K_30 at t=3 has 785 paths per edge and scans 9.9M entries in all
        k30 = Graph.from_edges(30, list(itertools.combinations(range(30), 2)))
        with pytest.raises(SizeLimitError, match=f"more than {MAX_PATH_VARS} paths .*ec or random"):
            build_lp(k30, ProportionFunction.parse("0,0,1/2"))
        assert len(path_enumerations) == MAX_PATH_VARS // 785 + 1

    @pytest.mark.parametrize(("graph", "p"), list(MODEL_DIGESTS), ids=str)
    def test_model_pinned(self, graph, p):
        g = builtin(graph) if graph == "zachary" else gen_gnm(20, 60, graph)
        model = build_lp(g, ProportionFunction.parse(p))
        text = dump_lp(model) + repr(model.witness_at_upper)
        assert hashlib.sha256(text.encode()).hexdigest() == MODEL_DIGESTS[graph, p]

    @settings(max_examples=30, deadline=None)
    @given(g=small_graphs())
    def test_witness_always_accepted(self, g):
        # every coefficient is +-1 and every witness value 1, so each
        # left-hand side is an exact integer compared with the float rhs
        model = build_lp(g, ProportionFunction.parse("0,1/2"))
        at_upper = set(model.witness_at_upper)
        assert at_upper >= set(range(len(model.edges)))
        for row in model.rows:
            lhs = sum(c for var, c in row.coeffs if var in at_upper)
            assert lhs <= row.rhs if row.sense == "<=" else lhs >= row.rhs, row

    @settings(max_examples=30, deadline=None)
    @given(g=small_graphs(), props=st.lists(st.sampled_from(["0", "1/3", "1/2", "1"]), min_size=1, max_size=3))
    def test_rows_view_rebuilds_the_arrays(self, g, props):
        model = build_lp(g, ProportionFunction.parse(",".join(sorted(props, key=Fraction))))
        rows = model.rows
        fields = ("start", "col", "coeff", "lower", "upper", "tags")
        assert row_arrays(rows) == {field: getattr(model, field) for field in fields}
        assert len(rows) == len(model.start) - 1
        assert sum(len(row.coeffs) for row in rows) == len(model.col)

    def test_row_with_two_finite_bounds_has_no_record(self):
        model = LpModel(
            edges=((0, 1),), paths=((),), start=(0, 1), col=(0,), coeff=(1.0,),
            lower=(0.0,), upper=(1.0,), tags=("range",), witness_at_upper=(0,),
        )
        with pytest.raises(ValueError, match="^row 0 has two finite bounds$"):
            model.rows


class TestSolveLp:
    def test_single_edge_forced_to_one(self):
        g = Graph.from_edges(2, [(0, 1)])
        solution = solve_lp(build_lp(g, ProportionFunction.parse("1")))
        assert solution.status == "optimal"
        assert solution.edge_values[(0, 1)] == pytest.approx(1, abs=1e-7)
        assert solution.objective == pytest.approx(1, abs=1e-7)

    def test_triangle_t1_all_ones(self, triangle):
        solution = solve_lp(build_lp(triangle, ProportionFunction.parse("1")))
        assert solution.status == "optimal"
        assert solution.objective == pytest.approx(3, abs=1e-7)
        for value in solution.edge_values.values():
            assert value == pytest.approx(1, abs=1e-7)

    def test_triangle_t2_relaxation_value(self, triangle):
        # the relaxation splits the flow; its optimum sits below the
        # integral optimum of 2 (frozen after solving by hand)
        solution = solve_lp(build_lp(triangle, ProportionFunction.parse("0,1")))
        assert solution.status == "optimal"
        assert solution.objective == pytest.approx(1.5, abs=1e-7)

    def test_deterministic(self, diamond):
        model = build_lp(diamond, ProportionFunction.parse("1/2,1"))
        first = solve_lp(model)
        second = solve_lp(model)
        assert first.edge_values == second.edge_values
        assert first.objective == second.objective

    def test_zachary_frozen(self):
        pf = ProportionFunction.parse("1/2,1")
        solution = solve_lp(build_lp(builtin("zachary"), pf))
        assert solution.objective == pytest.approx(42.01373626373628, abs=1e-9)
        assert lp_order(builtin("zachary"), pf) == ZACHARY_LP_ORDER

    def test_iterations_kept(self, lp_iteration_limit):
        model = build_lp(builtin("zachary"), ProportionFunction.parse("1/2,1"))
        with pytest.raises(SizeLimitError, match="kIterationLimit .*use the ec or random ordering"):
            solve_lp(model)
        lp_iteration_limit.undo()
        assert solve_lp(model).iterations > 0

    @pytest.mark.parametrize("seed", sorted(FAMILY_LP_FINGERPRINTS))
    def test_family_fingerprints(self, seed):
        g, pf = gen_gnm(20, 60, seed), ProportionFunction.parse("0,1/2")
        solution = solve_lp(build_lp(g, pf))
        digest = hashlib.sha256(repr(lp_order(g, pf)).encode()).hexdigest()
        objective, iterations, expected_digest = FAMILY_LP_FINGERPRINTS[seed]
        assert solution.objective == pytest.approx(float.fromhex(objective), abs=1e-9)
        assert (solution.iterations, digest) == (iterations, expected_digest)

    def test_broken_row_is_a_size_limit(self, lp_broken_row):
        # the all-zero answer leaves coverage row 2 (vertex 0's flow >= 1) short by 1
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(SizeLimitError, match=r"violates row 2 by 1 .*use the ec or random ordering"):
            lp_order(g, ProportionFunction.parse("1"))

    def test_witness_breaking_a_row_rejected(self):
        # x_0_1 <= 0 cannot hold at a witness with x_0_1 = 1
        model = LpModel(
            edges=((0, 1),),
            paths=(((0, 1),),),
            **row_arrays([LpRow(coeffs=((0, 1.0),), sense="<=", rhs=0.0, tag="broken")]),
            witness_at_upper=(0, 1),
        )
        with pytest.raises(ValueError, match="violates row 0"):
            solve_lp(model)

    @pytest.mark.parametrize("n", [0, 3])
    def test_edgeless_model_is_optimal_at_zero(self, n):
        solution = solve_lp(build_lp(Graph.from_edges(n, []), ProportionFunction.parse("1/2,1")))
        assert solution == LpSolution(edge_values={}, objective=0.0, iterations=0)

    def test_rejected_highs_option_fails_loudly(self, triangle, monkeypatch):
        monkeypatch.setattr(
            hopcompress.lp, "_HIGHS_OPTIONS", hopcompress.lp._HIGHS_OPTIONS + (("no_such_option", 1),)
        )
        with pytest.raises(RuntimeError, match="HiGHS rejected option no_such_option=1"):
            solve_lp(build_lp(triangle, ProportionFunction.parse("1")))

    @pytest.mark.parametrize(
        "n, m, seed", [(12, 30, 18), (12, 30, 19), (12, 30, 31), (20, 60, 1000)]
    )
    def test_hard_t3_models_solve_and_verify(self, n, m, seed):
        g, pf = gen_gnm(n, m, seed), ProportionFunction.parse("0,0,1/2")
        result = compress_basic(g, pf, lp_order(g, pf))
        assert verify(g, result.subgraph(), pf).ok

    @settings(max_examples=20, deadline=None)
    @given(g=small_graphs(max_n=6))
    def test_relaxation_lower_bounds_integral_optimum(self, g):
        for pf_text in ("0,1", "1/2,1"):
            pf = ProportionFunction.parse(pf_text)
            solution = solve_lp(build_lp(g, pf))
            assert solution.status == "optimal"
            optimum, _ = brute_force_optimal(g, pf)
            assert solution.objective <= optimum + 1e-7
            assert solution.objective <= g.m + 1e-7


class TestKnownInstances:
    def test_simple_minimization(self):
        # min -x - y subject to x + y <= 1, both in [0, 1]
        _, objective, _ = solve([-1, -1], [[1, 1]], ["<="], [1])
        assert objective == pytest.approx(-1, abs=1e-9)

    def test_bound_flip_only(self):
        # no binding row: optimum sits on the upper bounds
        x, objective, _ = solve([-2, -3], [[1, 1]], ["<="], [10])
        assert x == pytest.approx([1, 1])
        assert objective == pytest.approx(-5)

    def test_infeasible(self):
        # x <= 1 can never reach x >= 2
        with pytest.raises(SizeLimitError, match="kInfeasible .*use the ec or random ordering"):
            solve([1], [[1]], [">="], [2])

    def test_degenerate_cycling_guard(self):
        # Beale's classic cycling example for naive pricing, unit bounds
        c = [-0.75, 150, -0.02, 6]
        a = [
            [0.25, -60, -0.04, 9],
            [0.5, -90, -0.02, 3],
            [0, 0, 1, 0],
        ]
        _, objective, _ = solve(c, a, ["<="] * 3, [0, 0, 1])
        assert objective == pytest.approx(-0.05, abs=1e-9)

    def test_negative_rhs(self):
        # x - y <= -1 forces y >= x + 1
        _, objective, _ = solve([0, 1], [[1, -1]], ["<="], [-1])
        assert objective == pytest.approx(1, abs=1e-9)

    def test_iteration_limit(self, lp_iteration_limit):
        with pytest.raises(SizeLimitError, match="kIterationLimit .*use the ec or random ordering"):
            solve([-1, -1], [[1, 1]], ["<="], [1])

    def test_crash_start_used(self):
        # witness: both vars at upper satisfies the row
        row = LpRow(coeffs=((0, 1.0), (1, 1.0)), sense=">=", rhs=1.0, tag="cover")
        model = edge_model([row], [0, 1])
        solution = solve_lp(model)
        assert solution.status == "optimal"
        assert solution.objective == pytest.approx(1, abs=1e-9)

    def test_row_with_zero_rhs_is_kept(self):
        # x - f >= 0 binds once f >= 1 forces f up, so the optimum is 1
        rows = [
            LpRow(coeffs=((0, 1.0), (1, -1.0)), sense=">=", rhs=0.0, tag="path-needs-edge"),
            LpRow(coeffs=((1, 1.0),), sense=">=", rhs=1.0, tag="coverage"),
        ]
        model = LpModel(
            edges=((0, 1),), paths=(((0, 1),),), **row_arrays(rows), witness_at_upper=(0, 1)
        )
        solution = solve_lp(model)
        assert solution.objective == pytest.approx(1, abs=1e-9)
        assert solution.edge_values == {(0, 1): 1.0}

    @pytest.mark.parametrize(
        ("start", "col", "lower"),
        [
            ([0, 1, 2], [0, 2], [1, 1]),  # a column index past n
            ([0, 2, 1, 3], [0, 1, 0], [1, 1, 1]),  # a row starting before the last
            ([0, 3, 3], [0, 1], [1, 1]),  # a row starting past the entries
            ([0, 1, 2], [0, 1], [1, np.nan]),  # a NaN bound
            ([0, 2, 2], [0, 0], [1, 0]),  # one column twice in a row
        ],
        ids=["column", "decreasing-start", "start-past-entries", "nan-bound", "repeated-column"],
    )
    def test_malformed_rows_are_rejected_by_highs(self, start, col, lower):
        model = rows_only(
            start=tuple(start),
            col=tuple(col),
            coeff=(1.0,) * len(col),
            lower=tuple(lower),
            upper=(math.inf,) * len(lower),
        )
        with pytest.raises(RuntimeError, match="^HiGHS rejected the LP model$"):
            _highs_solve(np.ones(2), model)

    def test_crash_start_rejects_infeasible_point(self):
        # all-at-upper violates the <= row, so the model is malformed
        row = LpRow(coeffs=((0, 1.0), (1, 1.0)), sense="<=", rhs=1.0, tag="cap")
        model = edge_model([row], [0, 1])
        with pytest.raises(ValueError, match="violates row 0"):
            solve_lp(model)


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_lps(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            m = int(rng.integers(1, 8))
            n = int(rng.integers(1, 8))
            a = rng.integers(-3, 4, size=(m, n)).astype(float)
            c = rng.integers(-5, 6, size=n).astype(float)
            senses = [str(rng.choice(["<=", ">="])) for _ in range(m)]
            # the rhs leaves slack 0..2 at a random 0/1 point
            start = np.nonzero(rng.random(n) < 0.5)[0]
            lhs = a[:, start].sum(axis=1)
            slack = rng.integers(0, 3, size=m)
            b = np.where(np.array(senses) == "<=", lhs + slack, lhs - slack)

            x, objective, _ = solve(c, a, senses, b)
            ref = scipy_reference(c, a, senses, b)
            assert ref.status == 0
            assert objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
            assert np.all(x >= -1e-9)
            assert np.all(x <= 1 + 1e-9)


class TestLpOrder:
    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert lp_order(g, ProportionFunction.parse("1")) == ((0, 1),)

    def test_triangle_ties_canonical(self, triangle):
        order = lp_order(triangle, ProportionFunction.parse("1"))
        assert order == ((0, 1), (0, 2), (1, 2))

    def test_is_permutation_and_compresses_soundly(self, diamond):
        pf = ProportionFunction.parse("1/2,1")
        order = lp_order(diamond, pf)
        assert set(order) == diamond.edge_set()
        result = compress_basic(diamond, pf, order)
        assert verify(diamond, result.subgraph(), pf).ok


    def test_ties_break_by_edge_after_snapping(self, triangle, monkeypatch):
        # at p=0 only f <= x and sum f <= 1 remain, so f = 0 satisfies them
        x = [0.5 + 4e-10, 0.5 - 1e-12, 0.5 + 6e-10, 0.0, 0.0, 0.0]
        monkeypatch.setattr(
            "hopcompress.lp._highs_solve",
            lambda costs, *args: (np.array(x), sum(x), 1),
        )
        values = solve_lp(build_lp(triangle, ProportionFunction.parse("0"))).edge_values
        assert values == {(0, 1): 0.5, (0, 2): 0.5, (1, 2): 0.500000001}
        # (0, 1) and (0, 2) tie on the grid; (1, 2) is less than 1e-9 above
        # (0, 1) but rounds to the next grid point, so it stays first
        order = lp_order(triangle, ProportionFunction.parse("0"))
        assert order == ((1, 2), (0, 1), (0, 2))

    def test_values_clipped_and_snapped(self):
        g, pf = gen_gnm(20, 60, 1001), ProportionFunction.parse("0,1/2")
        values = solve_lp(build_lp(g, pf)).edge_values
        assert all(0.0 <= v <= 1.0 and round(v, 9) == v for v in values.values())
        assert lp_order(g, pf) == tuple(sorted(values, key=lambda e: (-values[e], e)))


SRC = os.path.dirname(os.path.dirname(os.path.abspath(hopcompress.__file__)))


def run_python(code, path_first=None):
    """Run ``code`` in a fresh interpreter that imports the package under test."""
    paths = [path_first, SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestHighsLoading:
    def test_loaded_lazily_without_scipy_optimize(self):
        done = run_python(
            """
            import sys
            import hopcompress
            from hopcompress.lp import _highs_core
            assert not any(k == "scipy" or k.startswith("scipy.") for k in sys.modules)
            assert "numpy" not in sys.modules
            assert _highs_core.cache_info().currsize == 0
            g = hopcompress.builtin("diamond")
            pf = hopcompress.ProportionFunction.parse("1/2,1")
            for strategy in ("random", "ec", "sa"):
                result = hopcompress.run_strategy(g, pf, strategy)
                assert hopcompress.verify(g, result.subgraph(), pf).ok
            hopcompress.sp_histogram(g)
            hopcompress.build_lp(g, pf).rows
            assert "numpy" not in sys.modules
            hopcompress.lp_order(g, pf)
            assert "numpy" in sys.modules
            assert _highs_core.cache_info().currsize == 1
            assert "scipy.optimize" not in sys.modules and "scipy.sparse" not in sys.modules
            # scipy's own HiGHS still works in the same process afterwards
            from scipy.optimize import linprog
            assert linprog([1.0], bounds=[(1.0, 2.0)]).status == 0
            print("ok")
            """
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "ok\n"

    def test_process_pool_imported_only_for_jobs_above_one(self):
        done = run_python(
            """
            import sys
            import hopcompress
            pool = ("concurrent.futures", "multiprocessing")
            assert not any(name in sys.modules for name in pool)
            family = hopcompress.FamilySpec(count=2, n=6, m=7, seed=0)
            pf = hopcompress.ProportionFunction.parse("1/2")
            hopcompress.bench_orderings(family, pf, ["basic", "ec"], jobs=1)
            assert not any(name in sys.modules for name in pool)
            print("ok")
            """
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "ok\n"

    def test_run_strategy_loads_the_solver_before_its_clock(self):
        done = run_python(
            """
            import sys, time, types
            import hopcompress
            import hopcompress.orderings as orderings
            from hopcompress.lp import _highs_core
            loaded = []
            def perf_counter():
                loaded.append(("numpy" in sys.modules, _highs_core.cache_info().currsize))
                return time.perf_counter()
            orderings.time = types.SimpleNamespace(perf_counter=perf_counter)
            pf = hopcompress.ProportionFunction.parse("1/2,1")
            hopcompress.run_strategy(hopcompress.builtin("diamond"), pf, "lp")
            assert loaded[0] == (True, 1), loaded
            print("ok")
            """
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "ok\n"

    def test_missing_extension_names_path_and_version(self, tmp_path):
        fake = tmp_path / "scipy"
        fake.mkdir()
        (fake / "__init__.py").write_text('__version__ = "0.0.fake"\n')
        done = run_python(
            """
            import hopcompress
            hopcompress.lp_order(hopcompress.builtin("diamond"), hopcompress.ProportionFunction.parse("1"))
            """,
            path_first=str(tmp_path),
        )
        assert done.returncode != 0
        last = done.stderr.strip().splitlines()[-1]
        assert last.startswith("ImportError: HiGHS extension not found at ")
        assert str(fake / "optimize" / "_highspy" / "_core") in last
        assert "(scipy 0.0.fake)" in last

    def test_fresh_processes_agree(self):
        code = """
            from hopcompress import ProportionFunction, build_lp, gen_gnm, lp_order, solve_lp
            pf = ProportionFunction.parse("0,1/2")
            for seed in (1000, 1001, 1002):
                g = gen_gnm(20, 60, seed)
                values = solve_lp(build_lp(g, pf)).edge_values
                print(sorted((e, v.hex()) for e, v in values.items()))
                print(lp_order(g, pf))
            """
        first, second = run_python(code), run_python(code)
        assert first.returncode == 0, first.stderr
        assert first.stdout.count("\n") == 6
        assert first.stdout == second.stdout


class TestDump:
    def test_dump_contains_objective_rows_and_bounds(self):
        g = Graph.from_edges(2, [(0, 1)])
        text = dump_lp(build_lp(g, ProportionFunction.parse("1")))
        assert text.startswith("Minimize")
        assert "x_0_1" in text and "f_0_1_0" in text
        assert "Subject To" in text and "Bounds" in text
        assert "0 <= x_0_1 <= 1" in text

    def test_path_variables_named_per_edge(self, triangle):
        text = dump_lp(build_lp(triangle, ProportionFunction.parse("0,1")))
        # the last variable is the second path of edge (1, 2)
        assert text.endswith(" 0 <= f_1_2_1 <= 1\nEnd\n")
        # p(1) = 0, so vertex 0's only coverage row is level 2's, after 12 others
        assert " c12: f_0_1_0 + f_0_1_1 + f_0_2_0 + f_0_2_1 >= 2\n" in text
        assert " c15:" not in text
