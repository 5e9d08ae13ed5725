"""The HiGHS simplex solve behind :func:`hopcompress.lp.solve_lp`, on random
LPs checked against ``scipy.optimize.linprog``."""

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import solve


def scipy_reference(c, a, senses, b):
    flip = np.array([1.0 if sense == "<=" else -1.0 for sense in senses])
    return linprog(
        c,
        A_ub=np.asarray(a) * flip[:, None],
        b_ub=np.asarray(b) * flip,
        bounds=[(0, 1)] * len(c),
        method="highs",
    )


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
