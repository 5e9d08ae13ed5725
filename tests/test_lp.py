import hashlib

import pytest
from hypothesis import given, settings

from hopcompress import (
    Graph,
    LpModel,
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
from hopcompress.lp import LpRow

from conftest import small_graphs

# lp_order(builtin("zachary"), "1/2,1") before the simplex lost its phase one
ZACHARY_LP_ORDER = (
    (0, 11), (0, 31), (1, 30), (2, 9), (2, 27), (2, 28), (3, 7), (9, 33), (19, 33),
    (23, 25), (24, 27), (13, 33), (0, 8), (26, 29), (29, 33), (1, 7), (2, 8), (8, 32),
    (3, 13), (18, 32), (14, 32), (20, 32), (30, 32), (22, 32), (32, 33), (15, 32),
    (5, 10), (4, 6), (4, 10), (1, 13), (1, 17), (1, 19), (1, 21), (0, 1), (5, 6),
    (5, 16), (0, 12), (23, 27), (23, 33), (24, 25), (24, 31), (25, 31), (27, 33),
    (28, 31), (28, 33), (31, 32), (31, 33), (0, 3), (3, 12), (6, 16), (0, 21), (0, 19),
    (0, 17), (0, 4), (0, 6), (0, 10), (0, 5), (15, 33), (14, 33), (20, 33), (22, 33),
    (18, 33), (2, 32), (2, 3), (2, 7), (2, 13), (1, 2), (23, 29), (23, 32), (26, 33),
    (29, 32), (8, 30), (30, 33), (8, 33), (0, 13), (0, 2), (0, 7), (1, 3),
)


# family-g20 seed-0 instances gen_gnm(20, 60, seed) at p=0,1/2, recorded
# from the row-major tableau: objective (float.hex), simplex pivots, and the
# SHA-256 of repr(lp_order(...).edges)
FAMILY_LP_FINGERPRINTS = {
    1000: ("0x1.ba95222a51fd0p+3", 528, "7cd96faa3c46602b3af0075cfc20c597d12795c5821a1a5b20f195d8a5ef4272"),
    1001: ("0x1.9351fdfd86a34p+3", 584, "3455724227de243179104003b4e7fd16774e8879370c3e1641232e35dff382bf"),
    1002: ("0x1.6682050faa10cp+3", 994, "c7c6b1460e3b1f3333b526b2b28ca4cc313cfae12af8410fe269447026f1a209"),
}


def row_tags(model):
    tags = {}
    for row in model.rows:
        tags[row.tag] = tags.get(row.tag, 0) + 1
    return tags


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
        assert tags["coverage"] == diamond.n * pf.t

    def test_size_guards(self, triangle):
        with pytest.raises(SizeLimitError, match="ec or random"):
            build_lp(triangle, ProportionFunction.parse("1"), max_edges=2)
        with pytest.raises(SizeLimitError, match="ec or random"):
            build_lp(triangle, ProportionFunction.parse("0,0,0,1"), max_t=3)

    @settings(max_examples=30, deadline=None)
    @given(g=small_graphs())
    def test_witness_always_accepted(self, g):
        # build_lp asserts witness feasibility internally
        model = build_lp(g, ProportionFunction.parse("0,1/2"))
        assert len(model.witness_at_upper) >= len(model.edges)


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
        assert lp_order(builtin("zachary"), pf).edges == ZACHARY_LP_ORDER

    def test_iterations_kept(self):
        model = build_lp(builtin("zachary"), ProportionFunction.parse("1/2,1"))
        solution = solve_lp(model)
        assert solution.iterations > 0
        capped = solve_lp(model, max_iterations=1)
        assert capped.status == "iteration-limit" and capped.iterations is None

    @pytest.mark.parametrize("seed", sorted(FAMILY_LP_FINGERPRINTS))
    def test_family_fingerprints(self, seed):
        g, pf = gen_gnm(20, 60, seed), ProportionFunction.parse("0,1/2")
        solution = solve_lp(build_lp(g, pf))
        digest = hashlib.sha256(repr(lp_order(g, pf).edges).encode()).hexdigest()
        assert (solution.objective.hex(), solution.iterations, digest) == FAMILY_LP_FINGERPRINTS[seed]

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
            proportions=ProportionFunction.parse("1"),
            rows=(LpRow(coeffs=((0, 1.0),), sense="<=", rhs=0.0, tag="broken"),),
            witness_at_upper=(0, 1),
        )
        with pytest.raises(ValueError, match="violates row 0"):
            solve_lp(model)

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


class TestLpOrder:
    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert lp_order(g, ProportionFunction.parse("1")).edges == ((0, 1),)

    def test_triangle_ties_canonical(self, triangle):
        order = lp_order(triangle, ProportionFunction.parse("1"))
        assert order.edges == ((0, 1), (0, 2), (1, 2))
        assert order.strategy == "lp"

    def test_is_permutation_and_compresses_soundly(self, diamond):
        pf = ProportionFunction.parse("1/2,1")
        order = lp_order(diamond, pf)
        assert set(order.edges) == diamond.edge_set()
        result = compress_basic(diamond, pf, order)
        assert verify(diamond, result.subgraph(), pf).ok


class TestDump:
    def test_dump_contains_objective_rows_and_bounds(self):
        g = Graph.from_edges(2, [(0, 1)])
        text = dump_lp(build_lp(g, ProportionFunction.parse("1")))
        assert text.startswith("Minimize")
        assert "x_0_1" in text and "f_0_1_0" in text
        assert "Subject To" in text and "Bounds" in text
        assert "0 <= x_0_1 <= 1" in text
