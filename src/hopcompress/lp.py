"""Relaxed linear program whose edge scores drive an ordering.

One variable x_e per edge says how much the edge is worth keeping; one
variable f_w per bounded-length simple path between the endpoints of an
edge carries "flow" certifying that those endpoints stay close. The
relaxation allows fractional values in [0, 1]. :func:`solve_lp` solves
it with the dual revised simplex of HiGHS (Huangfu & Hall, Math. Prog.
Comp. 2018), whose extension module scipy ships; it is loaded on the
first solve, without importing ``scipy.optimize``. numpy, used only
here, is imported on the first solve too. Sorting edges by
descending x_e, snapped to a 1e-9 grid, with ties broken by canonical
edge, yields the ordering fed to the compressor
(:func:`hopcompress.orderings.lp_order`).

Intended for small graphs (two size guards: the adjacency entries the
path search scans, :data:`hopcompress.graph.MAX_PATH_SCANS`, and the
number of path variables, :data:`MAX_PATH_VARS`, which also bounds the
model's constraint entries); larger inputs should use the
edge-connectivity or random orderings instead.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import pathlib
from dataclasses import dataclass
from typing import ClassVar

from .compress import ProportionFunction
from .errors import SizeLimitError
from .graph import Edge, Graph, Path, edge_paths

# HiGHS needs ~18 s for the 13 195 paths of K_14 at t=3 and ~12 s for
# the 4 877 of G(40,200); K_60 at t=3 would ask for ~6M paths
MAX_PATH_VARS = 10_000


@dataclass(frozen=True)
class LpRow:
    """One row's (variable, coefficient) entries."""

    coeffs: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class LpModel:
    """Relaxed model over x (edges) and f (paths) variables in [0, 1].

    Variable k < len(edges) is x for ``edges[k]``; the remaining
    variables are the flattened path variables, grouped per edge in
    ``paths`` order. The rows are stored in the row-wise form HiGHS
    takes: row i holds the entries ``start[i]:start[i + 1]`` of ``col``
    and ``coeff`` and lies in ``[lower[i], upper[i]]``. The bounds tell
    a row's kind: upper 0 marks path-needs-edge, upper 1 with lower -inf
    one-route-per-edge, and a finite lower coverage. ``witness_at_upper``
    lists variables that are 1 in the always-feasible point (every edge
    kept, flow on direct paths).
    """

    edges: tuple[Edge, ...]
    paths: tuple[tuple[Path, ...], ...]
    start: tuple[int, ...]
    col: tuple[int, ...]
    coeff: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    witness_at_upper: tuple[int, ...]

    @property
    def num_vars(self) -> int:
        return len(self.edges) + sum(len(p) for p in self.paths)

    @property
    def rows(self) -> tuple[LpRow, ...]:
        """Each row's entries as an :class:`LpRow`, built on each read.
        Its one reader is the benchmark under ``perfbench/``."""
        return tuple(
            LpRow(tuple(zip(self.col[a:b], self.coeff[a:b])))
            for a, b in zip(self.start, self.start[1:])
        )


@dataclass(frozen=True)
class LpSolution:
    status: ClassVar[str] = "optimal"  # any other outcome raises
    edge_values: dict[Edge, float]
    objective: float
    iterations: int  # HiGHS simplex iterations


def build_lp(g: Graph, pf: ProportionFunction) -> LpModel:
    """Assemble the relaxed model for ``g`` under ``pf``.

    Emits, in order: one "path-needs-edge" row per (path, edge on path)
    pair, one "one-route-per-edge" row per edge, and one "coverage" row
    per (vertex with neighbors, hop level with p(level) > 0). Raises
    :class:`SizeLimitError` beyond the size guards, where the
    edge-connectivity or random orderings are the sensible choice: the
    scan budget of :func:`~hopcompress.graph.edge_paths`, more than
    :data:`MAX_PATH_VARS` path variables, or more constraint entries than
    ``13 * MAX_PATH_VARS``, the most that many paths bring at ``t <= 3``.
    Both counts grow as the paths are enumerated, and each is
    refused before any search when the edges alone, each with its direct
    path, pass it, so no number of hop levels makes the model outgrow them.
    """
    t = pf.t
    # a path of k vertices brings 2(k - 1) entries to its path-needs-edge
    # rows, 1 to its one-route row and 2 per positive level to the coverage
    # rows of its endpoints, which scan it whatever its length: at most 13
    # at t <= 3, so the bound admits MAX_PATH_VARS paths of any model with
    # t <= 3 and keeps larger t from growing the rows past them
    max_entries = 13 * MAX_PATH_VARS
    too_big = (
        f"more than {MAX_PATH_VARS} paths or {max_entries} constraint entries for paths "
        f"of at most {t} edges exceed the LP guard; use the ec or random ordering instead"
    )
    # coverage rows only at positive levels: a row at p = 0 would hold for any values
    levels = [level for level in range(1, t + 1) if pf.at(level) > 0]
    per_path = 2 * len(levels) - 1  # and 2 per vertex on the path
    if g.m > MAX_PATH_VARS or g.m * (4 + per_path) > max_entries:  # direct paths alone
        raise SizeLimitError(too_big)

    edges = tuple(g.edges())
    edge_index = {e: i for i, e in enumerate(edges)}
    # each vertex's coverage variables per level; none for an isolated one
    coverage = {u: [[] for _ in levels] for u, row in enumerate(g.adjacency) if row}

    paths: list[tuple[Path, ...]] = []
    col: list[int] = []  # f, x of each path-needs-edge row f - x <= 0
    route_start: list[int] = []  # each edge's first path variable
    witness = list(range(len(edges)))
    fvar = len(edges)  # the next path variable
    entries = 0
    for (u, v), group in zip(edges, edge_paths(g, t)):
        entries += 2 * sum(map(len, group)) + per_path * len(group)
        if fvar + len(group) - len(edges) > MAX_PATH_VARS or entries > max_entries:
            raise SizeLimitError(too_big)
        paths.append(tuple(group))
        route_start.append(fvar)
        for path in group:
            for a, b in zip(path, path[1:]):
                col += fvar, edge_index[(a, b) if a < b else (b, a)]
            if len(path) == 2:  # the direct edge path
                witness.append(fvar)
            for level, at_u, at_v in zip(levels, coverage[u], coverage[v]):
                if len(path) - 1 <= level:
                    at_u.append(fvar)
                    at_v.append(fvar)
            fvar += 1

    needs = len(col) // 2  # path-needs-edge rows
    # one-route-per-edge rows, sum f <= 1: each edge's path variables are
    # consecutive, so together the rows hold every path variable once
    start = [*range(0, len(col), 2), *(len(col) + f - len(edges) for f in route_start)]
    col += range(len(edges), fvar)
    # coverage rows, sum f >= p(level) * degree
    demand: list[float] = []
    for u, per_level in coverage.items():
        degree = len(g.adjacency[u])
        for level, fs in zip(levels, per_level):
            start.append(len(col))
            col += fs
            demand.append(float(pf.at(level) * degree))
    start.append(len(col))

    return LpModel(
        edges=edges,
        paths=tuple(paths),
        start=tuple(start),
        col=tuple(col),
        coeff=(1.0, -1.0) * needs + (1.0,) * (len(col) - 2 * needs),
        lower=(-math.inf,) * (needs + len(edges)) + tuple(demand),
        upper=(0.0,) * needs + (1.0,) * len(edges) + (math.inf,) * len(demand),
        witness_at_upper=tuple(witness),
    )


def solve_lp(model: LpModel) -> LpSolution:
    """Solve the relaxation with HiGHS's dual simplex; deterministic for a fixed model.

    The solver options are fixed (one thread, no presolve, serial dual
    simplex, a fixed random seed), so one model always gives the same
    answer. A model whose witness point breaks a row raises ValueError.
    An optimal
    answer is re-checked against every row within 1e-7, and a broken
    row raises :class:`SizeLimitError`, as does any HiGHS status other
    than optimal. A model without variables (an edgeless graph) is
    optimal at zero.

    ``edge_values`` holds each x_e clipped to [0, 1] and rounded to 9
    decimals, so solutions equal up to solver noise rank edges alike;
    ``objective`` is HiGHS's unrounded objective and ``iterations`` its
    simplex iteration count.
    """
    import numpy as np

    n = model.num_vars
    witness = np.zeros(n)
    witness[list(model.witness_at_upper)] = 1.0
    row, gap = _worst_row(model, witness)
    if gap > 0.0:
        raise ValueError(f"witness point violates row {row} by {gap:g}")

    costs = np.zeros(n)
    costs[: len(model.edges)] = 1.0
    x, objective, iterations = _highs_solve(costs, model)

    row, gap = _worst_row(model, x)
    if gap > 1e-7:
        raise SizeLimitError(
            f"LP solution violates row {row} by {gap:g} (numerical trouble in "
            "the solver); use the ec or random ordering"
        )

    edge_values = {
        e: round(min(max(float(x[i]), 0.0), 1.0), 9) for i, e in enumerate(model.edges)
    }
    return LpSolution(edge_values=edge_values, objective=objective, iterations=iterations)


def _worst_row(model: LpModel, x) -> tuple[int, float]:
    """The row of ``model`` that ``x`` breaks by the most, and by how much
    (<= 0 if none)."""
    import numpy as np

    m = len(model.lower)
    if m == 0:
        return -1, 0.0
    row_of = np.repeat(np.arange(m), np.diff(model.start))
    lhs = np.bincount(row_of, weights=np.multiply(model.coeff, x[list(model.col)]), minlength=m)
    gaps = np.maximum(lhs - np.array(model.upper), np.array(model.lower) - lhs)
    row = int(np.argmax(gaps))
    return row, float(gaps[row])


# fixed so that one model always takes the same pivots to the same vertex
_HIGHS_OPTIONS = (
    ("output_flag", False),
    ("threads", 1),
    ("solver", "simplex"),
    ("presolve", "off"),
    ("simplex_strategy", 1),  # serial dual simplex
    ("random_seed", 0),
)


def _highs_solve(costs, model: LpModel):
    """min costs.x subject to the rows of ``model`` and 0 <= x <= 1, by HiGHS.

    Returns (x, objective, iterations) of the optimum. A model without
    columns is optimal at zero. Any other HiGHS status than optimal
    raises SizeLimitError.
    """
    import numpy as np

    core = _highs_core()
    n, m = costs.size, len(model.lower)
    start = np.array(model.start, dtype=np.int32)
    col = np.array(model.col, dtype=np.int32)
    highs = core._Highs()
    for name, value in _HIGHS_OPTIONS:
        if highs.setOptionValue(name, value) != core.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS rejected option {name}={value!r}")
    # the C API's array form: one start per row (HiGHS appends nnz), all columns continuous
    status = highs.passModel(
        n, m, col.size, core.MatrixFormat.kRowwise, core.ObjSense.kMinimize, 0.0,
        costs, np.zeros(n), np.ones(n), np.array(model.lower, dtype=float),
        np.array(model.upper, dtype=float), start[:-1], col,
        np.array(model.coeff, dtype=float), np.zeros(n, dtype=np.int32),
    )
    if status == core.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the LP model")
    highs.run()
    status = highs.getModelStatus()
    if status == core.HighsModelStatus.kModelEmpty:
        return np.zeros(n), 0.0, 0
    if status != core.HighsModelStatus.kOptimal:
        raise SizeLimitError(
            f"HiGHS ended with status {status.name} ({highs.modelStatusToString(status)}); "
            "use the ec or random ordering"
        )
    info = highs.getInfo()
    x = np.array(highs.getSolution().col_value)
    return x, float(info.objective_function_value), int(info.simplex_iteration_count)


@functools.cache
def _highs_core():
    """HiGHS's extension module from scipy, loaded by file path.

    ``import scipy.optimize`` would also load HiGHS, but it pulls in
    most of scipy and raises a fresh process's peak memory by ~47 MB;
    the extension alone adds ~4 MB. The path is private to scipy, hence
    the pinned scipy series in the package metadata.
    """
    import scipy

    directory = pathlib.Path(scipy.__file__).parent / "optimize" / "_highspy"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / f"_core{suffix}"
        if path.exists():
            break
    else:
        raise ImportError(
            f"HiGHS extension not found at {directory / '_core'}"
            f"{importlib.machinery.EXTENSION_SUFFIXES[0]} (scipy {scipy.__version__}); "
            "the LP ordering needs scipy>=1.17,<1.18"
        )
    spec = importlib.util.spec_from_file_location("scipy.optimize._highspy._core", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dump_lp(model: LpModel) -> str:
    """Human-readable LP text (objective, rows, bounds) for cross-checking.
    A row with two finite bounds, which :func:`build_lp` never emits, raises ValueError."""
    names = [f"x_{u}_{v}" for u, v in model.edges]
    for (u, v), group in zip(model.edges, model.paths):
        names.extend(f"f_{u}_{v}_{k}" for k in range(len(group)))
    lines = ["Minimize"]
    objective = " + ".join(names[: len(model.edges)])
    lines.append(f" obj: {objective}")
    lines.append("Subject To")
    for i, (a, b) in enumerate(zip(model.start, model.start[1:])):
        if model.lower[i] == -math.inf:
            sense, rhs = "<=", model.upper[i]
        elif model.upper[i] == math.inf:
            sense, rhs = ">=", model.lower[i]
        else:
            raise ValueError(f"row {i} has two finite bounds")
        terms = []
        for var, coeff in zip(model.col[a:b], model.coeff[a:b]):
            name = names[var]
            if coeff == 1.0:
                terms.append(f"+ {name}")
            elif coeff == -1.0:
                terms.append(f"- {name}")
            else:
                terms.append(f"{coeff:+g} {name}")
        body = " ".join(terms).lstrip("+ ")
        lines.append(f" c{i}: {body} {sense} {rhs:g}")
    lines.append("Bounds")
    for name in names:
        lines.append(f" 0 <= {name} <= 1")
    lines.append("End")
    return "\n".join(lines) + "\n"
