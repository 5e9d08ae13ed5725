"""Bounded-variable primal simplex on a dense tableau, started at a known point.

Minimizes c.x subject to <= and >= rows with finite bounds
0 <= x_j <= u_j. The caller supplies a feasible point: the variables in
``start_at_upper`` sit at their upper bound, all others at zero. One
slack per row makes that point the starting basic solution, so there is
no phase one and no artificial variable; an ``=`` row, a non-finite
bound or a start that violates a row is rejected with ValueError. Every
variable that carries a cost is boxed, so the optimum is finite.

Pricing is Dantzig's rule, switching to Bland's rule (Bland 1977) while
the iterate stalls on degenerate pivots so cycling is impossible. An
entering variable that reaches its other bound before any basic
variable blocks flips bounds without a basis change.

The tableau is stored transposed, ``t[j]`` being column j, so the rank-1
update of a pivot rewrites whole contiguous rows: the columns whose
pivot-row entry exceeds 1e-13, or every column when most are nonzero.
Entering-column entries up to 1e-13 count as zero. Every nonzero entry
gets the same floating-point operations as in a row-major tableau; only
the sign of an exact zero can differ.

Pivots as small as 1e-9 are accepted, so on some models the optimum
breaks a row by more than the tolerance; :func:`hopcompress.lp.solve_lp`
re-checks every row and reports that as ``SizeLimitError``.

Adequate for the few-hundred-row models :mod:`hopcompress.lp` builds;
not a general-purpose LP code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2
_SLACK_SIGN = {"<=": 1.0, ">=": -1.0}


@dataclass
class SimplexResult:
    status: str  # "optimal" | "iteration-limit"
    x: np.ndarray | None  # structural variable values when optimal
    objective: float | None
    iterations: int


def solve_bounded_lp(
    c,
    a_rows,
    senses,
    rhs,
    upper,
    start_at_upper,
    tol: float = 1e-7,
    max_iterations: int | None = None,
) -> SimplexResult:
    """Solve min c.x, rows ``a_rows[i] . x (sense_i) rhs[i]``, 0 <= x <= upper.

    ``start_at_upper`` lists the variables at their upper bound in a
    feasible point whose other variables are zero; the solve starts
    there. Raises ValueError for mismatched shapes, a sense other than
    ``<=``/``>=``, a non-finite bound, or a start point that violates a
    row by more than ``tol``.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a_rows, dtype=float)
    b = np.asarray(rhs, dtype=float)
    upper = np.asarray(upper, dtype=float)
    m, n = len(senses), c.size
    if a.shape != (m, n) or b.shape != (m,) or upper.shape != (n,):
        raise ValueError("shape mismatch among c, a_rows, senses, rhs and upper")
    if not np.all(np.isfinite(upper)):
        raise ValueError("every upper bound must be finite")
    try:
        signs = np.array([_SLACK_SIGN[sense] for sense in senses])
    except KeyError as exc:
        raise ValueError(f"unsupported sense {exc.args[0]!r}; rows must be <= or >=") from None

    x0 = np.zeros(n)
    at_upper = np.asarray(start_at_upper, dtype=int)
    x0[at_upper] = upper[at_upper]
    slack = (b - a @ x0) / signs
    violated = np.nonzero(slack < -tol)[0]
    if violated.size:
        i = int(violated[0])
        raise ValueError(f"start point violates row {i} by {-slack[i]:g}")
    return _Tableau(c, a, signs, upper, x0, np.clip(slack, 0.0, None), tol, max_iterations).run()


class _Tableau:
    def __init__(self, c, a, signs, upper, x0, slack, tol, max_iterations):
        m, n = a.shape
        self.m = m
        self.n_struct = n
        self.tol = tol
        self.eps_pivot = 1e-9
        # t[j] is column j; each constraint is scaled so its slack has
        # coefficient +1, which makes the slack basis the identity
        self.t = np.vstack([a.T, np.diag(signs)]) / signs
        self.c_struct = c
        self.up = np.concatenate([upper, np.full(m, np.inf)])
        self.movable = self.up > tol
        self.basis = np.arange(n, n + m)
        self.xb = slack
        self.status = np.full(n + m, _AT_LOWER, dtype=np.int8)
        self.status[:n][x0 > 0] = _AT_UPPER
        self.status[self.basis] = _BASIC
        self.max_iterations = (
            max_iterations if max_iterations is not None else 2000 + 50 * (2 * m + n)
        )
        self.iterations = 0

    def run(self) -> SimplexResult:
        # the slack basis costs nothing, so the reduced costs start as the costs
        costs = np.concatenate([self.c_struct, np.zeros(self.m)])
        if not self._iterate(costs):
            return SimplexResult("iteration-limit", None, None, self.iterations)
        x = np.where(self.status == _AT_UPPER, self.up, 0.0)
        x[self.basis] = np.clip(self.xb, 0.0, self.up[self.basis])
        xs = x[: self.n_struct]
        return SimplexResult("optimal", xs, float(self.c_struct @ xs), self.iterations)

    def _iterate(self, z) -> bool:
        """Pivot until no reduced cost improves (True) or the cap is hit (False)."""
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
                # bound flip: no basis change
                self.xb -= theta * direction * self.t[q]
                self.status[q] = _AT_UPPER if self.status[q] == _AT_LOWER else _AT_LOWER
            else:
                self._pivot(leave_row, q, theta, direction, leave_to_upper)
                z_q = z[q]
                z -= z_q * self.t[:, leave_row]
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
            ((self.status == _AT_LOWER) & (z < -self.tol))
            | ((self.status == _AT_UPPER) & (z > self.tol))
        ) & self.movable
        idx = np.nonzero(eligible)[0]
        if idx.size == 0:
            return -1, 0
        q = int(idx[0]) if bland else int(idx[np.argmax(np.abs(z[idx]))])
        direction = +1 if self.status[q] == _AT_LOWER else -1
        return q, direction

    def _ratio_test(self, q, direction, bland):
        alpha = direction * self.t[q]
        limit = self.up[q]  # bound-flip step
        theta_rows = np.full(self.m, np.inf)
        pos = alpha > self.eps_pivot
        if pos.any():
            theta_rows[pos] = self.xb[pos] / alpha[pos]
        neg = alpha < -self.eps_pivot
        if neg.any():
            basis_up = self.up[self.basis]
            capped = neg & np.isfinite(basis_up)
            theta_rows[capped] = (basis_up[capped] - self.xb[capped]) / (
                -alpha[capped]
            )
        np.maximum(theta_rows, 0.0, out=theta_rows)
        row_min = float(theta_rows.min()) if self.m else np.inf
        # an improving ray would need an unboxed variable with a cost
        assert np.isfinite(min(limit, row_min)), "unbounded ray"
        if limit <= row_min + 1e-12:
            # the entering variable reaches its other bound first: flip
            return limit, -1, False
        ties = np.nonzero(theta_rows <= row_min + 1e-12)[0]
        if bland:
            leave_row = int(ties[np.argmin(self.basis[ties])])
        else:
            leave_row = int(ties[np.argmax(np.abs(alpha[ties]))])
        return row_min, leave_row, bool(alpha[leave_row] < 0)

    def _pivot(self, row, q, theta, direction, leave_to_upper):
        entering_value = (
            0.0 if self.status[q] == _AT_LOWER else self.up[q]
        ) + direction * theta
        if theta:
            self.xb -= theta * direction * self.t[q]
        leaving = self.basis[row]
        self.status[leaving] = _AT_UPPER if leave_to_upper else _AT_LOWER
        self.basis[row] = q
        self.status[q] = _BASIC
        t = self.t
        t[:, row] /= t[q, row]
        prow = t[:, row].copy()
        col = t[q].copy()
        col[row] = 0.0
        # rank-1 elimination over the constraints with |col| > 1e-13: the
        # others subtract an exact zero, which leaves their entries unchanged
        col[np.abs(col) <= 1e-13] = 0.0
        n_rows = np.count_nonzero(col)
        if n_rows:
            cols_nz = np.nonzero(np.abs(prow) > 1e-13)[0]
            if n_rows * cols_nz.size * 2 < t.size:
                t[cols_nz] -= np.multiply.outer(prow[cols_nz], col)
            else:
                t -= np.multiply.outer(prow, col)
        t[q] = 0.0
        t[q, row] = 1.0
        self.xb[row] = entering_value
