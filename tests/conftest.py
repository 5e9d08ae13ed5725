"""Shared independent oracles for cross-checking the library.

Every oracle here is deliberately written from first principles (plain
recursion, all-pairs BFS) so it shares no code path with the package.
The shared fixtures sit here too.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import strategies as st

import hopcompress.graph
import hopcompress.lp
from hopcompress import Graph, ProportionFunction, Violation


def recursive_simple_paths(g: Graph, u: int, v: int, max_len: int) -> list[tuple[int, ...]]:
    """Brute-force enumerator, independent of the library's iterative DFS."""

    found: list[tuple[int, ...]] = []

    def extend(path: list[int]) -> None:
        last = path[-1]
        if last == v:
            found.append(tuple(path))
            return
        if len(path) - 1 >= max_len:
            return
        for w in g.adjacency[last]:
            if w not in path:
                path.append(w)
                extend(path)
                path.pop()

    extend([u])
    return sorted(found)


def oracle_distances(g: Graph, source: int) -> dict[int, int]:
    return oracle_hops(g.adjacency, source)


def oracle_hops(adjacency, source: int) -> dict[int, int]:
    """Hop distance from ``source`` to every vertex it reaches over the rows."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in adjacency[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def oracle_short_level(adjacency, v: int, base, props) -> tuple[int, int] | None:
    """The first hop level at which ``v`` reaches fewer than p(level)·|base|
    of the vertices ``base`` over the rows ``adjacency``, and how many it
    reaches there; None when every level of ``props`` passes. A full-depth
    BFS with ``Fraction`` thresholds, independent of the scan and of verify()."""
    dist = oracle_hops(adjacency, v)
    for level, p in enumerate(props, start=1):
        reached = sum(1 for u in base if dist.get(u, 10**9) <= level)
        if Fraction(reached) < p * len(base):
            return level, reached
    return None


def oracle_violations(g: Graph, gc: Graph, pf: ProportionFunction) -> list[Violation]:
    """First failing level per vertex via a full-depth BFS, independent of verify()."""
    found = []
    for v, base in enumerate(g.adjacency):
        short = oracle_short_level(gc.adjacency, v, base, pf.props)
        if short is not None:
            level, reached = short
            found.append(Violation(v, level, pf.props[level - 1] * len(base), reached))
    return found


def oracle_satisfies(g: Graph, gc: Graph, pf: ProportionFunction) -> bool:
    """Definition check via all-pairs BFS, independent of verify()."""
    return not oracle_violations(g, gc, pf)


@st.composite
def small_graphs(draw, min_n: int = 2, max_n: int = 7):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        if pairs
        else st.just([])
    )
    return Graph.from_edges(n, edges)


@st.composite
def proportion_functions(draw, max_t: int = 3):
    t = draw(st.integers(1, max_t))
    values = sorted(
        draw(
            st.lists(
                st.fractions(min_value=0, max_value=1, max_denominator=6),
                min_size=t,
                max_size=t,
            )
        )
    )
    return ProportionFunction(tuple(values))


@pytest.fixture
def triangle():
    return Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def diamond():
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


@pytest.fixture
def lp_broken_row(monkeypatch):
    """HiGHS answers "optimal" with every variable 0, which breaks each
    coverage row that asks for something."""
    monkeypatch.setattr(
        "hopcompress.lp._highs_solve",
        lambda costs, *args, **kwargs: (np.zeros(len(costs)), 0.0, 1),
    )


@pytest.fixture
def lp_iteration_limit(monkeypatch):
    """HiGHS stops before its first simplex iteration. Returns the
    monkeypatch, whose ``undo()`` lifts the cap."""
    monkeypatch.setattr(
        hopcompress.lp,
        "_HIGHS_OPTIONS",
        hopcompress.lp._HIGHS_OPTIONS + (("simplex_iteration_limit", 0),),
    )
    return monkeypatch


@pytest.fixture
def path_enumerations(monkeypatch):
    """Records the edges the shared path search (``graph.edge_paths``, used
    by ``build_lp`` and by ``ec_scores`` at t >= 3) searches from; fails
    past 20 edges, so a missing path budget cannot exhaust memory on K_60."""
    calls = []
    search = hopcompress.graph._simple_paths

    def counting(g, u, v, max_len, max_scans):
        calls.append((u, v))
        if len(calls) > 20:
            raise AssertionError("path budget not enforced within 20 edges")
        return search(g, u, v, max_len, max_scans)

    monkeypatch.setattr(hopcompress.graph, "_simple_paths", counting)
    return calls
