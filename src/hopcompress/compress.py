"""Hop-constrained neighborhood preservation: constraints, compressor, verifier.

A compression keeps a subset of edges such that, for every vertex v and
every hop level i in 1..t, at least a proportion p(i) of v's original
neighbors stays within i hops of v in the compressed graph. Proportions
are exact rationals and every threshold comparison is exact.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import InvalidOrderingError, NotASubgraphError
from .graph import Edge, Graph, canonical_edge


def parse_proportion(text: str) -> Fraction:
    """Parse one proportion given as a decimal ("0.5") or ratio ("1/2")."""
    try:
        value = Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    if not 0 <= value <= 1:
        raise ValueError(f"proportion {text!r} outside [0, 1]")
    return value


@dataclass(frozen=True)
class ProportionFunction:
    """The kept-neighbor proportions p(1..t).

    ``props[i-1]`` is the proportion required at hop level i; the function
    is constant at ``props[-1]`` beyond level t. Must be monotone
    non-decreasing with every value in [0, 1].
    """

    props: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.props:
            raise ValueError("need at least one proportion")
        prev = Fraction(0)
        for i, p in enumerate(self.props, start=1):
            if not 0 <= p <= 1:
                raise ValueError(f"p({i})={p} outside [0, 1]")
            if p < prev:
                raise ValueError(f"p({i})={p} < p({i - 1})={prev}: must be non-decreasing")
            prev = p

    @property
    def t(self) -> int:
        return len(self.props)

    def at(self, x: int) -> Fraction:
        """p(x) for x >= 1, saturating at p(t)."""
        if x < 1:
            raise ValueError("hop level must be >= 1")
        return self.props[min(x, self.t) - 1]

    @classmethod
    def parse(cls, text: str) -> ProportionFunction:
        """Parse a comma list like ``"0,0.5"`` or ``"1/2,1"`` (t is its length)."""
        return cls(tuple(parse_proportion(part) for part in text.split(",")))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.props)


@dataclass(frozen=True)
class Violation:
    """One broken constraint: vertex misses the level-``level`` threshold."""

    vertex: int
    level: int
    required: Fraction  # p(level) * |original neighbors|
    achieved: int

    def __str__(self) -> str:
        return (
            f"vertex {self.vertex}: {self.achieved} of its neighbors within "
            f"{self.level} hop(s), needs at least {self.required}"
        )


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def __post_init__(self):
        assert self.ok == (not self.violations)


@dataclass(frozen=True)
class CompressionResult:
    """Kept-edge set plus run statistics."""

    kept: frozenset[Edge]
    n: int
    m: int
    strategy: str
    seed: int | None
    seconds: float
    lp_iterations: int | None = None  # HiGHS simplex iterations behind an "lp" order

    def kept_count(self) -> int:
        return len(self.kept)

    def subgraph(self) -> Graph:
        return Graph.from_edges(self.n, self.kept)


def _levels_ok(
    v: int,
    base: Iterable[int],
    adjacency: Sequence[Sequence[int]],
    ratios: Sequence[tuple[int, int]],
) -> tuple[bool, int, int]:
    """Check all hop levels for one vertex.

    ``base`` is the reference neighbor set, ``adjacency`` the graph being
    probed, ``ratios`` the (numerator, denominator) pairs of p(1..t).
    Runs one BFS from ``v`` bounded by depth t, counting how many base
    neighbors have been reached after each level. Comparisons are exact:
    count must satisfy count * den >= num * deg. Returns (ok, failing
    level, count at that level); level is 0 when all pass.

    The BFS stops as soon as the count reaches need = ceil(p(t) * deg),
    even in the middle of a level: p is non-decreasing, the levels below
    have passed and the count only grows, so every level passes. A
    failure reports the same level and count as a full-depth BFS.
    """
    base_set = set(base)
    deg = len(base_set)
    num, den = ratios[-1]
    need = -(-num * deg // den)
    if need == 0:
        return True, 0, 0
    count = 0
    seen = {v}
    frontier = [v]
    for level, (num, den) in enumerate(ratios, start=1):
        nxt: list[int] = []
        for x in frontier:
            for y in adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if y in base_set:
                        count += 1
                        if count == need:
                            return True, 0, count
        if count * den < num * deg:
            return False, level, count
        frontier = nxt
    raise AssertionError("level t passes only once the count reaches need")


def _validate_ordering(g: Graph, edges: Sequence[Edge]) -> None:
    """Raise unless ``edges`` holds every edge of ``g`` once, either way round.

    Each pair is found by bisection in its sorted adjacency row and
    marks that row slot, so a repeat is caught without building a set.
    """
    if len(edges) != g.m:
        raise InvalidOrderingError("ordering is not a permutation of the graph's edges")
    adjacency = g.adjacency
    start = list(accumulate(map(len, adjacency), initial=0))  # row u's first slot
    seen = bytearray(start[-1])
    for u, v in edges:
        if u > v:
            u, v = v, u
        row = adjacency[u] if 0 <= u and v < g.n else ()
        k = bisect_left(row, v)
        if k == len(row) or row[k] != v or seen[start[u] + k]:
            raise InvalidOrderingError("ordering is not a permutation of the graph's edges")
        seen[start[u] + k] = 1


# graphs with at most this many vertices are scanned on bitmask rows; a
# row is an n-bit int, so the masks cost up to n² bits over the whole graph
MASK_SCAN_MAX_N = 1024

# what a step does at an endpoint whose level-1 count already passes
_PASS, _PROBE_THEN_BFS, _PROBE_THEN_KEEP = 0, 1, 2


@lru_cache(maxsize=16)
def _degree_rules(
    ratios: tuple[tuple[int, int], ...], n: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The scan's decisions at each reference degree ``deg`` < ``n``,
    for the (numerator, denominator) pairs ``ratios`` of p(1..t).

    Returns ``(need1, action)``: ``need1[deg]`` = ceil(p(1)·deg), the
    kept degree level 1 needs, and ``action[deg]`` one of
    ``_PASS`` (no threshold above level 1 rose from deg - 1 to deg),
    ``_PROBE_THEN_KEEP`` (ceil(p(2)·deg) > deg - 1: without a shared kept
    neighbour level 2 fails) or ``_PROBE_THEN_BFS`` (any other rise).
    """
    (num1, den1), *upper = ratios
    need1 = [-(-num1 * deg // den1) for deg in range(n)]
    action = [_PASS] * n
    if upper:
        num2, den2 = upper[0]
        for deg in range(1, n):
            old = deg - 1
            if num2 * deg > den2 * old:
                action[deg] = _PROBE_THEN_KEEP
            elif any(-(-num * deg // den) != -(-num * old // den) for num, den in upper):
                action[deg] = _PROBE_THEN_BFS
    return tuple(need1), tuple(action)  # shared by every caller: read-only


def _share_kept_neighbor(a: list[int], b: list[int], mark: list[int], stamp: int) -> bool:
    """Do the kept rows ``a`` and ``b`` have a vertex in common?

    Stamps the shorter row into ``mark`` and looks the longer one up.
    """
    if len(a) > len(b):
        a, b = b, a
    for w in a:
        mark[w] = stamp
    return stamp in map(mark.__getitem__, b)


def _scan(
    n: int,
    edges: Sequence[Edge],
    pf: ProportionFunction,
    prev: Sequence[bool] | None = None,
    swap: tuple[int, int] = (0, 0),
) -> list[bool]:
    """Keep flags of the incremental scan, one per position of ``edges``.

    Step k appends edge (u, v) to the reference graph and keeps it unless
    both endpoints still meet every level in the kept graph. Invariant:
    before step k every vertex meets every level against its reference
    neighbours in the kept graph. Only u and v change their reference
    sets, the kept graph only grows, and a kept edge puts each endpoint's
    new neighbour one hop away, which lifts every count by one and so
    meets p(i)·(old + 1) <= p(i)·old + 1. For endpoint x with other
    endpoint y, deg = |reference[x]| (y included) and old = deg - 1:

    - level 1 is exact in O(1): every kept edge at x is a reference edge
      of x and (x, y) is not kept yet, so the count is x's kept degree;
    - a level i >= 2 whose threshold ceil(p(i)·deg) equals
      ceil(p(i)·old) passes, since the invariant already gives the old
      reference set that many vertices within i hops;
    - if x and y share a kept neighbour, y is within 2 hops, which adds
      one to the invariant's count: ceil(p(i)·old) + 1 >= p(i)·deg, so
      every level from 2 up passes;
    - with no shared kept neighbour y is beyond 2 hops, so the level-2
      count is at most old and ceil(p(2)·deg) > old fails, at any t;
    - anything else runs the exact depth-t check.

    :func:`_degree_rules` tabulates the first, second and fourth rule per
    degree. The probe is symmetric, so it runs at most once per edge, and
    only when an endpoint needs it. The flags are those of a BFS per
    endpoint.

    ``prev`` may hold the flags of a scan over this order with positions
    ``swap = (i, j)``, i < j, exchanged; then only the decisions the swap
    can change are scanned. Decisions before i see the same prefix, so
    the loop appends those edges and takes their flags from ``prev``.
    After position j the prefix holds the same edges again; if it also
    kept the same ones (positions i and j mapped across the swap), every
    later decision repeats and the rest of ``prev`` is copied. The flags
    are identical to a full scan's.

    Graphs of at most :data:`MASK_SCAN_MAX_N` vertices run
    :func:`_mask_scan`, the rest :func:`_list_scan`; both give the same
    flags.
    """
    scan = _mask_scan if n <= MASK_SCAN_MAX_N else _list_scan
    return scan(n, edges, pf, prev, swap)


def _rejoins(flags: list[bool], prev: Sequence[bool], i: int, j: int) -> bool:
    """Did the scan keep, up to the second swapped position j, the edges
    ``prev`` kept, with positions i and j mapped across the swap?"""
    return flags[i] == prev[j] and flags[j] == prev[i] and flags[i + 1 : j] == prev[i + 1 : j]


def _list_scan(
    n: int,
    edges: Sequence[Edge],
    pf: ProportionFunction,
    prev: Sequence[bool] | None = None,
    swap: tuple[int, int] = (0, 0),
) -> list[bool]:
    """:func:`_scan` on adjacency lists, probing with :func:`_share_kept_neighbor`
    and checking depth t with :func:`_levels_ok`."""
    ratios = tuple((p.numerator, p.denominator) for p in pf.props)
    need1, action = _degree_rules(ratios, n)

    reference: list[list[int]] = [[] for _ in range(n)]
    kept_adj: list[list[int]] = [[] for _ in range(n)]
    mark = [-1] * n
    flags: list[bool] = []
    i, j = swap  # without prev, i = 0: every position is decided
    for k, edge in enumerate(edges):
        u, v = edge
        reference[u].append(v)
        reference[v].append(u)
        if k < i:
            keep = prev[k]
        else:
            keep = False
            shared = None  # the probe's answer, once it has run
            for x in edge:
                deg = len(reference[x])
                if len(kept_adj[x]) < need1[deg]:
                    keep = True
                    break
                rule = action[deg]
                if rule == _PASS:
                    continue
                if shared is None:
                    shared = _share_kept_neighbor(kept_adj[u], kept_adj[v], mark, k)
                if shared:
                    continue
                if rule == _PROBE_THEN_KEEP or not _levels_ok(x, reference[x], kept_adj, ratios)[0]:
                    keep = True
                    break
        flags.append(keep)
        if keep:
            kept_adj[u].append(v)
            kept_adj[v].append(u)
        if k == j and prev is not None and _rejoins(flags, prev, i, j):
            flags.extend(prev[j + 1 :])
            break
    return flags


def _mask_levels_ok(
    x: int, deg: int, ref: int, kept: list[int], ratios: Sequence[tuple[int, int]]
) -> bool:
    """:func:`_levels_ok`'s verdict for ``x`` on bitmask rows, given that
    level 1 passes.

    ``ref`` is x's reference row as a mask, ``deg`` its popcount, and
    ``kept[w]`` w's kept row. Each level from 2 up ORs the kept rows of
    the frontier into the reached mask and counts the reference
    neighbours in it; the check stops once that count reaches
    ceil(p(t)·deg).
    """
    num, den = ratios[-1]
    need = -(-num * deg // den)
    frontier = kept[x]  # level 1: every kept neighbour is a reference one
    if frontier.bit_count() >= need:
        return True
    reach = frontier | 1 << x
    for num, den in ratios[1:]:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= kept[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~reach
        reach |= frontier
        count = (reach & ref).bit_count()
        if count >= need:
            return True
        if count * den < num * deg:
            return False
    raise AssertionError("level t passes only once the count reaches need")


def _mask_scan(
    n: int,
    edges: Sequence[Edge],
    pf: ProportionFunction,
    prev: Sequence[bool] | None = None,
    swap: tuple[int, int] = (0, 0),
) -> list[bool]:
    """:func:`_scan` on bitmask rows: bit w of ``ref[x]`` (``kept[x]``) is
    set when (x, w) is a reference (kept) edge. The probe is
    ``kept[u] & kept[v]`` and the depth-t check :func:`_mask_levels_ok`."""
    ratios = tuple((p.numerator, p.denominator) for p in pf.props)
    need1, action = _degree_rules(ratios, n)

    ref = [0] * n
    kept = [0] * n
    deg = [0] * n
    kept_deg = [0] * n
    flags: list[bool] = []
    i, j = swap  # without prev, i = 0: every position is decided
    for k, edge in enumerate(edges):
        u, v = edge
        ref[u] |= 1 << v
        ref[v] |= 1 << u
        deg[u] += 1
        deg[v] += 1
        if k < i:
            keep = prev[k]
        else:
            keep = False
            shared = None  # the probe's answer, once it has run
            for x in edge:
                d = deg[x]
                if kept_deg[x] < need1[d]:
                    keep = True
                    break
                rule = action[d]
                if rule == _PASS:
                    continue
                if shared is None:
                    shared = kept[u] & kept[v]
                if shared:
                    continue
                if rule == _PROBE_THEN_KEEP or not _mask_levels_ok(x, d, ref[x], kept, ratios):
                    keep = True
                    break
        flags.append(keep)
        if keep:
            kept[u] |= 1 << v
            kept[v] |= 1 << u
            kept_deg[u] += 1
            kept_deg[v] += 1
        if k == j and prev is not None and _rejoins(flags, prev, i, j):
            flags.extend(prev[j + 1 :])
            break
    return flags


def compress_basic(g: Graph, pf: ProportionFunction, order) -> CompressionResult:
    """Single incremental scan over the edges in the given order.

    Edges are replayed one by one into a growing reference graph; after
    appending (u, v) the hop constraints of u and v are re-checked against
    their reference degrees, and the edge is kept whenever either endpoint
    would otherwise fall short at some level. Keeping the edge restores
    every level for both endpoints at once (the new neighbor is within
    one hop), so the final kept set satisfies the constraints against the
    full graph under any ordering.

    ``order`` is an :class:`~hopcompress.orderings.EdgeOrdering` or a
    plain edge sequence; it must be a permutation of the edge set.
    """
    strategy = getattr(order, "strategy", "custom")
    seed = getattr(order, "seed", None)
    lp_iterations = getattr(order, "lp_iterations", None)
    edges: Sequence[Edge] = getattr(order, "edges", order)
    _validate_ordering(g, edges)

    start = time.perf_counter()
    flags = _scan(g.n, edges, pf)
    # canonical tuples of the order are shared, not rebuilt
    kept = frozenset(
        e if type(e) is tuple and e[0] < e[1] else canonical_edge(*e)
        for e, keep in zip(edges, flags)
        if keep
    )
    seconds = time.perf_counter() - start
    return CompressionResult(
        kept=kept,
        n=g.n,
        m=g.m,
        strategy=strategy,
        seed=seed,
        seconds=seconds,
        lp_iterations=lp_iterations,
    )


def require_subgraph(g: Graph, gc: Graph) -> None:
    """Raise unless ``gc`` has ``g``'s vertex set and only edges of ``g``.

    A vertex-count mismatch raises ValueError; an extra edge raises
    :class:`NotASubgraphError` naming the first one in canonical order.
    """
    if gc.n != g.n:
        raise ValueError(f"vertex count mismatch: {gc.n} != {g.n}")
    # the rows, not gc.edges(): a checked graph need not build its edge tuples
    for u, neighbors in enumerate(gc.adjacency):
        for v in neighbors:
            if u < v and not g.has_edge(u, v):
                raise NotASubgraphError((u, v))


def verify(g: Graph, gc: Graph, pf: ProportionFunction) -> VerificationReport:
    """Independently check a compressed graph against the original.

    ``gc`` must be on the same vertex set with edges drawn from ``g``
    (raises :class:`NotASubgraphError` naming the first extra edge).
    Every vertex is re-checked from scratch against its full original
    neighborhood with one depth-t BFS; all violations are reported.
    """
    require_subgraph(g, gc)
    ratios = [(p.numerator, p.denominator) for p in pf.props]
    violations: list[Violation] = []
    for v in range(g.n):
        base = g.adjacency[v]
        ok, level, count = _levels_ok(v, base, gc.adjacency, ratios)
        if not ok:
            violations.append(
                Violation(
                    vertex=v,
                    level=level,
                    required=pf.at(level) * len(base),
                    achieved=count,
                )
            )
    return VerificationReport(ok=not violations, violations=tuple(violations))
