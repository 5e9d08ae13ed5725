import numpy as np
import pytest
from scipy.optimize import linprog

from hopcompress.simplex import solve_bounded_lp


def scipy_reference(c, a, senses, b, upper):
    flip = np.array([1.0 if sense == "<=" else -1.0 for sense in senses])
    return linprog(
        c,
        A_ub=np.asarray(a) * flip[:, None],
        b_ub=np.asarray(b) * flip,
        bounds=[(0, u) for u in upper],
        method="highs",
    )


class TestKnownInstances:
    def test_simple_minimization(self):
        # min -x - y subject to x + y <= 1, both in [0, 1]
        res = solve_bounded_lp([-1, -1], [[1, 1]], ["<="], [1], [1, 1], [])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-1, abs=1e-9)

    def test_bound_flip_only(self):
        # no binding row: optimum sits on the upper bounds
        res = solve_bounded_lp([-2, -3], [[1, 1]], ["<="], [10], [1, 1], [])
        assert res.status == "optimal"
        assert res.x == pytest.approx([1, 1])
        assert res.objective == pytest.approx(-5)

    def test_equality_rows(self):
        with pytest.raises(ValueError, match="sense '='"):
            solve_bounded_lp([1, 2], [[1, 1]], ["="], [1], [1, 1], [0])

    def test_infeasible(self):
        # x <= 1 can never reach x >= 2, so no start point is feasible
        with pytest.raises(ValueError, match="violates row 0"):
            solve_bounded_lp([1], [[1]], [">="], [2], [1], [0])

    def test_unbounded(self):
        with pytest.raises(ValueError, match="finite"):
            solve_bounded_lp([-1], [[1]], [">="], [0], [np.inf], [])

    def test_degenerate_cycling_guard(self):
        # Beale's classic cycling example for naive pricing, unit bounds
        c = [-0.75, 150, -0.02, 6]
        a = [
            [0.25, -60, -0.04, 9],
            [0.5, -90, -0.02, 3],
            [0, 0, 1, 0],
        ]
        res = solve_bounded_lp(c, a, ["<="] * 3, [0, 0, 1], [1] * 4, [])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-0.05, abs=1e-9)

    def test_negative_rhs(self):
        # x - y <= -1 forces y >= x + 1; the start has y = 1
        res = solve_bounded_lp([0, 1], [[1, -1]], ["<="], [-1], [1, 1], [1])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1, abs=1e-9)

    def test_iteration_limit(self):
        res = solve_bounded_lp(
            [-1, -1], [[1, 1]], ["<="], [1], [1, 1], [], max_iterations=0
        )
        assert res.status == "iteration-limit"
        assert res.x is None

    def test_crash_start_used(self):
        # witness: both vars at upper satisfies the row
        res = solve_bounded_lp([1, 1], [[1, 1]], [">="], [1], [1, 1], [0, 1])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1, abs=1e-9)

    def test_crash_start_rejects_infeasible_point(self):
        # all-at-upper violates the <= row; there is no phase one to fall back on
        with pytest.raises(ValueError, match="violates row 0"):
            solve_bounded_lp([-1, -1], [[1, 1]], ["<="], [1], [1, 1], [0, 1])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            solve_bounded_lp([1, 1], [[1, 1]], ["<=", "<="], [1], [1, 1], [])


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
            upper = np.ones(n)
            # the rhs leaves slack 0..2 at a random 0/1 start point
            start = np.nonzero(rng.random(n) < 0.5)[0]
            lhs = a[:, start].sum(axis=1)
            slack = rng.integers(0, 3, size=m)
            b = np.where(np.array(senses) == "<=", lhs + slack, lhs - slack)

            mine = solve_bounded_lp(c, a, senses, b, upper, start)
            ref = scipy_reference(c, a, senses, b, upper)
            assert ref.status == 0
            assert mine.status == "optimal"
            assert mine.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
            assert np.all(mine.x >= -1e-9)
            assert np.all(mine.x <= upper + 1e-9)
