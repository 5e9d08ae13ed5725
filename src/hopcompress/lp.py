"""Relaxed linear program whose edge scores drive an ordering.

One variable x_e per edge says how much the edge is worth keeping; one
variable f_w per bounded-length simple path between the endpoints of an
edge carries "flow" certifying that those endpoints stay close. The
relaxation allows fractional values in [0, 1]; solving it and sorting
edges by descending x_e yields the ordering fed to the compressor.

Intended for small graphs (size guards below); larger inputs should use
the edge-connectivity or random orderings instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .compress import ProportionFunction
from .errors import SizeLimitError
from .graph import Edge, Graph, Path, enumerate_simple_paths
from .simplex import solve_bounded_lp

DEFAULT_MAX_EDGES = 5000
DEFAULT_MAX_T = 3


@dataclass(frozen=True)
class LpRow:
    """One constraint: sum(coeff * var) sense rhs, with a tag naming its kind."""

    coeffs: tuple[tuple[int, float], ...]
    sense: str  # "<=" or ">="
    rhs: float
    tag: str  # "path-needs-edge" | "one-route-per-edge" | "coverage"


@dataclass(frozen=True)
class LpModel:
    """Relaxed model over x (edges) and f (paths) variables in [0, 1].

    Variable k < len(edges) is x for ``edges[k]``; the remaining
    variables are the flattened path variables, grouped per edge in
    ``paths`` order. ``witness_at_upper`` lists variables that are 1 in
    the always-feasible point (every edge kept, flow on direct paths).
    """

    edges: tuple[Edge, ...]
    paths: tuple[tuple[Path, ...], ...]
    proportions: ProportionFunction
    rows: tuple[LpRow, ...]
    witness_at_upper: tuple[int, ...]

    @property
    def num_vars(self) -> int:
        return len(self.edges) + sum(len(p) for p in self.paths)

    def var_name(self, index: int) -> str:
        if index < len(self.edges):
            u, v = self.edges[index]
            return f"x_{u}_{v}"
        k = index - len(self.edges)
        for (u, v), group in zip(self.edges, self.paths):
            if k < len(group):
                return f"f_{u}_{v}_{k}"
            k -= len(group)
        raise IndexError(index)


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "iteration-limit"
    edge_values: dict[Edge, float] | None
    objective: float | None
    iterations: int | None = None  # simplex pivots of an optimal solve


def build_lp(
    g: Graph,
    pf: ProportionFunction,
    max_edges: int = DEFAULT_MAX_EDGES,
    max_t: int = DEFAULT_MAX_T,
) -> LpModel:
    """Assemble the relaxed model for ``g`` under ``pf``.

    Emits, in order: one "path-needs-edge" row per (path, edge on path)
    pair, one "one-route-per-edge" row per edge, and one "coverage" row
    per (vertex with neighbors, hop level). Raises
    :class:`SizeLimitError` beyond the size guards, where the
    edge-connectivity or random orderings are the sensible choice.
    """
    if g.m > max_edges:
        raise SizeLimitError(
            f"{g.m} edges exceeds the LP guard of {max_edges}; "
            "use the ec or random ordering instead"
        )
    if pf.t > max_t:
        raise SizeLimitError(
            f"t={pf.t} exceeds the LP guard of {max_t}; "
            "use the ec or random ordering instead"
        )

    edges = tuple(g.edges())
    edge_index = {e: i for i, e in enumerate(edges)}
    t = pf.t

    paths_per_edge: list[tuple[Path, ...]] = []
    f_index: list[list[int]] = []  # parallel to paths_per_edge
    next_var = len(edges)
    for u, v in edges:
        group = tuple(enumerate_simple_paths(g, u, v, t))
        paths_per_edge.append(group)
        f_index.append(list(range(next_var, next_var + len(group))))
        next_var += len(group)

    rows: list[LpRow] = []
    for k, group in enumerate(paths_per_edge):
        for path, fvar in zip(group, f_index[k]):
            for a, b in zip(path, path[1:]):
                xvar = edge_index[(a, b) if a < b else (b, a)]
                rows.append(
                    LpRow(
                        coeffs=((fvar, 1.0), (xvar, -1.0)),
                        sense="<=",
                        rhs=0.0,
                        tag="path-needs-edge",
                    )
                )
    for k in range(len(edges)):
        rows.append(
            LpRow(
                coeffs=tuple((fvar, 1.0) for fvar in f_index[k]),
                sense="<=",
                rhs=1.0,
                tag="one-route-per-edge",
            )
        )
    for u in range(g.n):
        degree = len(g.adjacency[u])
        if degree == 0:
            continue
        incident = [
            edge_index[(u, w) if u < w else (w, u)] for w in g.adjacency[u]
        ]
        for level in range(1, t + 1):
            coeffs = []
            for k in incident:
                for path, fvar in zip(paths_per_edge[k], f_index[k]):
                    if len(path) - 1 <= level:
                        coeffs.append((fvar, 1.0))
            required = pf.at(level) * degree
            rows.append(
                LpRow(
                    coeffs=tuple(coeffs),
                    sense=">=",
                    rhs=float(required),
                    tag="coverage",
                )
            )

    witness = list(range(len(edges)))
    for k, group in enumerate(paths_per_edge):
        for path, fvar in zip(group, f_index[k]):
            if len(path) == 2:  # the direct edge path
                witness.append(fvar)

    model = LpModel(
        edges=edges,
        paths=tuple(paths_per_edge),
        proportions=pf,
        rows=tuple(rows),
        witness_at_upper=tuple(witness),
    )
    _assert_witness_feasible(model)
    return model


def _assert_witness_feasible(model: LpModel) -> None:
    """The all-edges-kept point must satisfy every row, exactly.

    Every coefficient is +-1.0 and every witness value 1, so each
    left-hand side is a small integer summed without rounding, and the
    float comparison with the rhs is exact.
    """
    at_upper = set(model.witness_at_upper)
    for row in model.rows:
        lhs = sum(c for var, c in row.coeffs if var in at_upper)
        ok = lhs <= row.rhs if row.sense == "<=" else lhs >= row.rhs
        if not ok:
            raise AssertionError(
                f"witness violates {row.tag} row: "
                f"{Fraction(lhs)} {row.sense} {Fraction(row.rhs)}"
            )


def solve_lp(model: LpModel, max_iterations: int | None = None) -> LpSolution:
    """Solve the relaxation; deterministic for a fixed model.

    The simplex starts from the model's witness point, which
    :func:`build_lp` has checked in exact arithmetic; a hand-built model
    whose witness breaks a row raises ValueError. Constraint residuals
    of an optimal answer are re-checked within 1e-7: tiny pivots can
    leave a row broken, and that raises :class:`SizeLimitError`, as the
    iteration limit does in :func:`lp_order`.
    """
    n = model.num_vars
    # coverage rows asking for nothing (p(i) = 0) hold trivially since
    # every variable is non-negative; keep them out of the tableau
    active = [
        row
        for row in model.rows
        if not (row.sense == ">=" and row.rhs <= 0.0)
    ]
    m = len(active)
    a = np.zeros((m, n))
    senses = []
    rhs = np.zeros(m)
    for i, row in enumerate(active):
        for var, coeff in row.coeffs:
            a[i, var] = coeff
        senses.append(row.sense)
        rhs[i] = row.rhs
    c = np.zeros(n)
    c[: len(model.edges)] = 1.0

    result = solve_bounded_lp(
        c,
        a,
        senses,
        rhs,
        np.ones(n),
        model.witness_at_upper,
        max_iterations=max_iterations,
    )
    if result.status == "iteration-limit":
        return LpSolution(status="iteration-limit", edge_values=None, objective=None)

    x = np.clip(result.x, 0.0, 1.0)
    residual_tol = 1e-7
    lhs = a @ x
    for i, sense in enumerate(senses):
        gap = lhs[i] - rhs[i] if sense == "<=" else rhs[i] - lhs[i]
        if gap > residual_tol:
            raise SizeLimitError(
                f"LP solution violates row {i} by {gap:g} (numerical trouble in "
                "the simplex); use the ec or random ordering"
            )

    edge_values = {e: float(x[i]) for i, e in enumerate(model.edges)}
    return LpSolution(
        status="optimal",
        edge_values=edge_values,
        objective=float(result.objective),
        iterations=result.iterations,
    )


def lp_order(g: Graph, pf: ProportionFunction, max_edges: int = DEFAULT_MAX_EDGES, max_t: int = DEFAULT_MAX_T):
    """Edges sorted by descending relaxation score, ties by canonical id.

    Raises :class:`SizeLimitError` past the size guards of :func:`build_lp`,
    when the simplex hits its iteration cap, or when its answer breaks a
    row (see :func:`solve_lp`).
    """
    from .orderings import EdgeOrdering

    model = build_lp(g, pf, max_edges=max_edges, max_t=max_t)
    solution = solve_lp(model)
    if solution.status == "iteration-limit":
        raise SizeLimitError("LP iteration limit reached; use the ec or random ordering")
    values = solution.edge_values
    ranked = sorted(values, key=lambda e: (-values[e], e))
    return EdgeOrdering(
        edges=tuple(ranked), strategy="lp", seed=None, lp_iterations=solution.iterations
    )


def dump_lp(model: LpModel) -> str:
    """Human-readable LP text (objective, rows, bounds) for cross-checking."""
    lines = ["Minimize"]
    objective = " + ".join(model.var_name(i) for i in range(len(model.edges)))
    lines.append(f" obj: {objective}")
    lines.append("Subject To")
    for i, row in enumerate(model.rows):
        terms = []
        for var, coeff in row.coeffs:
            name = model.var_name(var)
            if coeff == 1.0:
                terms.append(f"+ {name}")
            elif coeff == -1.0:
                terms.append(f"- {name}")
            else:
                terms.append(f"{coeff:+g} {name}")
        body = " ".join(terms).lstrip("+ ")
        lines.append(f" c{i}: {body} {row.sense} {row.rhs:g}")
    lines.append("Bounds")
    for i in range(model.num_vars):
        lines.append(f" 0 <= {model.var_name(i)} <= 1")
    lines.append("End")
    return "\n".join(lines) + "\n"
