from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from hopcompress import simplex
from hopcompress.simplex import SimplexResult, solve_bounded_lp


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


class RowMajorTableau:
    """The tableau as it was stored before the transposed layout: row i is
    constraint i. Kept as the reference for the exact-arithmetic property;
    it counts which branch of the rank-1 elimination each pivot takes."""

    _AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2

    def __init__(self, c, a, signs, upper, x0, slack, tol, max_iterations):
        self.branches = Counter()
        m, n = a.shape
        self.m = m
        self.n_struct = n
        self.tol = tol
        self.eps_pivot = 1e-9
        self.t = np.hstack([a, np.diag(signs)]) / signs[:, None]
        self.c_struct = c
        self.up = np.concatenate([upper, np.full(m, np.inf)])
        self.movable = self.up > tol
        self.basis = np.arange(n, n + m)
        self.xb = slack
        self.status = np.full(n + m, self._AT_LOWER, dtype=np.int8)
        self.status[:n][x0 > 0] = self._AT_UPPER
        self.status[self.basis] = self._BASIC
        self.max_iterations = (
            max_iterations if max_iterations is not None else 2000 + 50 * (2 * m + n)
        )
        self.iterations = 0

    def run(self) -> SimplexResult:
        costs = np.concatenate([self.c_struct, np.zeros(self.m)])
        if not self._iterate(costs - costs[self.basis] @ self.t):
            return SimplexResult("iteration-limit", None, None, self.iterations)
        x = np.where(self.status == self._AT_UPPER, self.up, 0.0)
        x[self.basis] = np.clip(self.xb, 0.0, self.up[self.basis])
        xs = x[: self.n_struct]
        return SimplexResult("optimal", xs, float(self.c_struct @ xs), self.iterations)

    def _iterate(self, z) -> bool:
        bland = False
        stall = 0
        stall_limit = max(50, 2 * self.m)
        while True:
            if self.iterations >= self.max_iterations:
                return False
            q, direction = self._entering(z, bland)
            if q < 0:
                return True
            theta, leave_row, leave_to_upper = self._ratio_test(q, direction, bland)
            if leave_row < 0:
                self.xb -= theta * direction * self.t[:, q]
                self.status[q] = (
                    self._AT_UPPER if self.status[q] == self._AT_LOWER else self._AT_LOWER
                )
            else:
                self._pivot(leave_row, q, theta, direction, leave_to_upper)
                z_q = z[q]
                z -= z_q * self.t[leave_row]
                z[q] = 0.0
            self.iterations += 1
            if theta <= self.eps_pivot:
                stall += 1
                if stall >= stall_limit:
                    bland = True
            else:
                stall = 0
                bland = False

    def _entering(self, z, bland):
        eligible = (
            ((self.status == self._AT_LOWER) & (z < -self.tol))
            | ((self.status == self._AT_UPPER) & (z > self.tol))
        ) & self.movable
        idx = np.nonzero(eligible)[0]
        if idx.size == 0:
            return -1, 0
        q = int(idx[0]) if bland else int(idx[np.argmax(np.abs(z[idx]))])
        direction = +1 if self.status[q] == self._AT_LOWER else -1
        return q, direction

    def _ratio_test(self, q, direction, bland):
        alpha = direction * self.t[:, q]
        limit = self.up[q]
        theta_rows = np.full(self.m, np.inf)
        pos = alpha > self.eps_pivot
        if pos.any():
            theta_rows[pos] = self.xb[pos] / alpha[pos]
        neg = alpha < -self.eps_pivot
        if neg.any():
            basis_up = self.up[self.basis]
            capped = neg & np.isfinite(basis_up)
            theta_rows[capped] = (basis_up[capped] - self.xb[capped]) / (-alpha[capped])
        np.maximum(theta_rows, 0.0, out=theta_rows)
        row_min = float(theta_rows.min()) if self.m else np.inf
        assert np.isfinite(min(limit, row_min)), "unbounded ray"
        if limit <= row_min + 1e-12:
            return limit, -1, False
        ties = np.nonzero(theta_rows <= row_min + 1e-12)[0]
        if bland:
            leave_row = int(ties[np.argmin(self.basis[ties])])
        else:
            leave_row = int(ties[np.argmax(np.abs(alpha[ties]))])
        return row_min, leave_row, bool(alpha[leave_row] < 0)

    def _pivot(self, row, q, theta, direction, leave_to_upper):
        entering_value = (
            0.0 if self.status[q] == self._AT_LOWER else self.up[q]
        ) + direction * theta
        if theta:
            self.xb -= theta * direction * self.t[:, q]
        leaving = self.basis[row]
        self.status[leaving] = self._AT_UPPER if leave_to_upper else self._AT_LOWER
        self.basis[row] = q
        self.status[q] = self._BASIC
        t = self.t
        t[row] /= t[row, q]
        prow = t[row].copy()
        col = t[:, q].copy()
        col[row] = 0.0
        rows_nz = np.nonzero(np.abs(col) > 1e-13)[0]
        if rows_nz.size:
            cols_nz = np.nonzero(np.abs(prow) > 1e-13)[0]
            if rows_nz.size * cols_nz.size * 2 < t.size:
                self.branches["sparse"] += 1
                t[np.ix_(rows_nz, cols_nz)] -= np.outer(col[rows_nz], prow[cols_nz])
            else:
                self.branches["dense"] += 1
                t[rows_nz] -= np.outer(col[rows_nz], prow)
        t[:, q] = 0.0
        t[row, q] = 1.0
        self.xb[row] = entering_value


# 0.1, 0.7 and 1/3 are inexact in binary, so eliminations leave residues
# near 1e-17: the |x| <= 1e-13 masks and the dense branch decide where
# those land, and wide, mostly full tableaux take the dense branch
COEFFICIENTS = (-3.0, -1.0, 1.0, 2.0, 0.1, -0.7, 1 / 3, 0.3, 0.6)


@st.composite
def bounded_lps(draw):
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 24))
    # a third of the drawn tableaux are two-thirds zeros: the sparse branch
    zeros = draw(st.sampled_from((0, 0, 2 * len(COEFFICIENTS))))
    entry = st.sampled_from(COEFFICIENTS + (0.0,) * zeros)
    a = np.array([[draw(entry) for _ in range(n)] for _ in range(m)])
    c = np.array([draw(st.sampled_from((-5.0, -2.0, -1.0, 0.0, 1.0, 3.0, 0.3))) for _ in range(n)])
    senses = [draw(st.sampled_from(["<=", ">="])) for _ in range(m)]
    upper = np.array([draw(st.sampled_from((1.0, 1.0, 2.0, 0.5, 0.0))) for _ in range(n)])
    start = [j for j in range(n) if draw(st.booleans())]
    slack = np.array([draw(st.sampled_from((0.0, 0.0, 0.5, 1.0, 2.0))) for _ in range(m)])
    lhs = a[:, start] @ upper[start]
    b = np.where(np.array(senses) == "<=", lhs + slack, lhs - slack)
    return c, a, senses, b, upper, start


def solve_recorded(tableau_class, lp):
    """solve_bounded_lp on ``tableau_class``; returns the result and the tableau."""
    built = []

    def build(*args):
        built.append(tableau_class(*args))
        return built[-1]

    with patch.object(simplex, "_Tableau", build):
        result = solve_bounded_lp(*lp)
    return result, built[0]


def test_transposed_tableau_matches_row_major_reference():
    """Same pivots, same x, same tableau entries: the transposed tableau does
    the reference's arithmetic on every nonzero entry, in both branches."""
    branches = Counter()

    @settings(max_examples=200, deadline=None)
    @given(lp=bounded_lps())
    def check(lp):
        mine, transposed = solve_recorded(simplex._Tableau, lp)
        ref, row_major = solve_recorded(RowMajorTableau, lp)
        branches.update(row_major.branches)
        assert (mine.status, mine.iterations) == (ref.status, ref.iterations)
        assert mine.objective == ref.objective
        assert np.array_equal(mine.x, ref.x)
        assert np.array_equal(transposed.t.T, row_major.t)
        assert np.array_equal(transposed.xb, row_major.xb)

    check()
    assert branches["dense"] > 0 and branches["sparse"] > 0
