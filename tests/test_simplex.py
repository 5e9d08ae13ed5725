"""The HiGHS simplex solve behind :func:`hopcompress.lp.solve_lp`, on small
known LPs and on random ones checked against ``scipy.optimize.linprog``."""

import numpy as np
import pytest
from scipy.optimize import linprog

from hopcompress import SizeLimitError
from hopcompress.lp import LpModel, LpRow, _highs_solve, _Rows, solve_lp


def dense_rows(a, senses, b) -> _Rows:
    """``a[i] . x (senses[i]) b[i]`` as the triplet rows HiGHS is given."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    row_of, col = np.nonzero(a)
    at_most = np.array([sense == "<=" for sense in senses])
    return _Rows(
        row_of=row_of.astype(np.int32),
        col=col.astype(np.int32),
        coeff=a[row_of, col],
        lower=np.where(at_most, -np.inf, b),
        upper=np.where(at_most, b, np.inf),
        source=list(range(len(senses))),
    )


def solve(c, a, senses, b):
    """min c.x over the rows with 0 <= x <= 1: (x, objective, iterations)."""
    return _highs_solve(np.asarray(c, dtype=float), dense_rows(a, senses, b))


def edge_model(rows, witness_at_upper):
    """A hand-built model whose variables are all edge variables (cost 1)."""
    n = 1 + max(var for row in rows for var, _ in row.coeffs)
    return LpModel(
        edges=tuple((0, k + 1) for k in range(n)),
        paths=((),) * n,
        rows=tuple(rows),
        witness_at_upper=tuple(witness_at_upper),
    )


def scipy_reference(c, a, senses, b):
    flip = np.array([1.0 if sense == "<=" else -1.0 for sense in senses])
    return linprog(
        c,
        A_ub=np.asarray(a) * flip[:, None],
        b_ub=np.asarray(b) * flip,
        bounds=[(0, 1)] * len(c),
        method="highs",
    )


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

    def test_equality_rows(self):
        model = edge_model([LpRow(coeffs=((0, 1.0), (1, 1.0)), sense="=", rhs=1.0, tag="eq")], [0])
        with pytest.raises(ValueError, match="sense '='"):
            solve_lp(model)

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
