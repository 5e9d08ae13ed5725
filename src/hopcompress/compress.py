"""Hop-constrained neighborhood preservation: constraints, compressor, verifier.

A compression keeps a subset of edges such that, for every vertex v and
every hop level i in 1..t, at least a proportion p(i) of v's original
neighbors stays within i hops of v in the compressed graph. Proportions
are exact rationals and every threshold comparison is exact.
"""

from __future__ import annotations

import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .errors import InvalidOrderingError, NotASubgraphError
from .graph import Edge, Graph, _edge_rows, canonical_edge


def parse_proportion(text: str) -> Fraction:
    """Parse one proportion given as a decimal ("0.5") or ratio ("1/2").

    A decimal with an exponent is refused before ``Fraction`` expands it
    into a power of ten: "1e-5000" gives a denominator too long to print,
    and "1e-999999999" one of a billion digits. Other text with an "e"
    ("one") gets ``Fraction``'s own message. A denominator with more
    digits than Python's int-to-str limit is refused too, since a report
    could not print it ("0.0…01" with 4300 decimals has 4301).
    """
    if re.fullmatch(r"\s*[-+]?(?=\.?\d)[\d_]*(\.[\d_]*)?e[-+]?[\d_]+\s*", text, re.IGNORECASE):
        raise ValueError(f"exponent in {text!r}; write a decimal or a ratio")
    try:
        value = Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    if not 0 <= value <= 1:
        raise ValueError(f"proportion {text!r} outside [0, 1]")
    digits = sys.get_int_max_str_digits()  # 0 means no limit
    if digits and value.denominator >= 10**digits:
        raise ValueError(f"denominator of {text!r} has more than {digits} digits")
    return value


@dataclass(frozen=True)
class ProportionFunction:
    """The kept-neighbor proportions p(1..t).

    ``props[i-1]`` is the proportion required at hop level i; the function
    is constant at ``props[-1]`` beyond level t. Must be monotone
    non-decreasing with every value an int or a Fraction in [0, 1].
    """

    props: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.props:
            raise ValueError("need at least one proportion")
        prev = Fraction(0)
        for i, p in enumerate(self.props, start=1):
            if not isinstance(p, (int, Fraction)):  # the scan reads numerator and denominator
                raise TypeError(f"p({i})={p!r} is a {type(p).__name__}, not an int or a Fraction")
            if not 0 <= p <= 1:
                raise ValueError(f"p({i})={p} outside [0, 1]")
            if p < prev:
                raise ValueError(f"p({i})={p} < p({i - 1})={prev}: must be non-decreasing")
            prev = p

    @property
    def t(self) -> int:
        return len(self.props)

    @cached_property
    def ratios(self) -> tuple[tuple[int, int], ...]:
        """(numerator, denominator) of p(1..t); cached, not a dataclass field."""
        return tuple((p.numerator, p.denominator) for p in self.props)

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
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class CompressionResult:
    """Kept-edge set plus run statistics."""

    kept: frozenset[Edge]
    n: int
    m: int
    seconds: float
    strategy: str = "custom"  # run_strategy stamps the strategy that ran
    seed: int | None = None
    lp_iterations: int | None = None  # HiGHS simplex iterations behind an "lp" order

    def kept_count(self) -> int:
        return len(self.kept)

    def subgraph(self) -> Graph:
        return Graph.from_edges(self.n, self.kept)


def _validate_ordering(g: Graph, edges: Sequence[Edge]) -> None:
    """Raise unless ``edges`` holds every edge of ``g`` once, either way round.

    Builds the order's rows as :meth:`Graph.from_edges` does and compares
    each, sorted, with g's row. All are equal exactly when the order is
    such a permutation: a repeat, a self-loop or a pair that is not an
    edge leaves some row different.
    """
    message = "ordering is not a permutation of the graph's edges"
    try:
        rows = _edge_rows(g.n, edges)
    except ValueError:  # an endpoint out of range
        raise InvalidOrderingError(message) from None
    if any(tuple(sorted(row)) != expected for row, expected in zip(rows, g.adjacency)):
        raise InvalidOrderingError(message)


# graphs with at most this many vertices are scanned on bitmask rows; a
# row is an n-bit int, so the masks cost up to n² bits over the whole graph
MASK_SCAN_MAX_N = 1024

# what a step does at an endpoint whose level-1 count already passes
_PASS, _PROBE_THEN_BFS, _PROBE_THEN_KEEP = 0, 1, 2


@lru_cache(maxsize=16)
def _degree_rules(
    ratios: tuple[tuple[int, int], ...], size: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The scan's decisions at each reference degree ``deg`` < ``size``,
    for the (numerator, denominator) pairs ``ratios`` of p(1..t). A scan
    of m edges on n vertices reaches no degree above min(n - 1, m), so it
    asks for ``size`` = min(n, m + 1).

    Returns ``(need1, action)``: ``need1[deg]`` = ceil(p(1)·deg), the
    kept degree level 1 needs, and ``action[deg]`` one of
    ``_PASS`` (no threshold above level 1 rose from deg - 1 to deg),
    ``_PROBE_THEN_KEEP`` (ceil(p(2)·deg) > deg - 1: without a shared kept
    neighbour level 2 fails) or ``_PROBE_THEN_BFS`` (any other rise).
    """
    (num1, den1), *upper = ratios
    need1 = [-(-num1 * deg // den1) for deg in range(size)]
    action = [_PASS] * size
    if upper:
        num2, den2 = upper[0]
        for deg in range(1, size):
            old = deg - 1
            if num2 * deg > den2 * old:
                action[deg] = _PROBE_THEN_KEEP
            elif any(-(-num * deg // den) != -(-num * old // den) for num, den in upper):
                action[deg] = _PROBE_THEN_BFS
    return tuple(need1), tuple(action)  # shared by every caller: read-only


@lru_cache(maxsize=16)
def _level_needs(ratios: tuple[tuple[int, int], ...], size: int) -> tuple[tuple[int, ...], ...]:
    """``needs[deg]``: the thresholds ceil(p(i)·deg) of levels i = 2..t at
    each reference degree ``deg`` < ``size``, sized as in
    :func:`_degree_rules`, which :func:`_mask_levels_ok` compares its
    counts with. Only the mask scan reads them, so ``size`` stays within
    :data:`MASK_SCAN_MAX_N`: at a million degrees they would hold ~90 MB.
    """
    return tuple(tuple(-(-num * deg // den) for num, den in ratios[1:]) for deg in range(size))


@lru_cache(maxsize=16)
def _bits(n: int) -> tuple[int, ...]:
    """``1 << w`` for every vertex w < n: the mask scan's one-bit rows."""
    return tuple(1 << w for w in range(n))


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


def _list_levels_ok(
    x: int, deg: int, ref: Sequence[int], kept: Sequence[Sequence[int]], ratios: Sequence[tuple[int, int]]
) -> bool:
    """The depth-t check of endpoint ``x`` on adjacency lists, given that
    level 1 passes: does x reach ceil(p(i)·deg) of its reference
    neighbours within i hops of kept edges at every level i >= 2?

    ``ref`` is x's reference row, ``deg`` its length, and ``kept[w]`` w's
    kept row. Level 1 is x's kept row: every kept neighbour is a
    reference one. Each level from 2 up walks the kept rows of the
    frontier into a reached set, counting the reference neighbours it
    finds, and the check stops once the count reaches ceil(p(t)·deg).
    :func:`_mask_levels_ok` is its twin on bitmask rows.
    """
    num, den = ratios[-1]
    need = -(-num * deg // den)
    frontier = kept[x]
    count = len(frontier)
    if count >= need:
        return True
    ref_set = set(ref)
    reach = set(frontier)
    reach.add(x)
    for num, den in ratios[1:]:
        nxt: list[int] = []
        for w in frontier:
            for y in kept[w]:
                if y not in reach:
                    reach.add(y)
                    nxt.append(y)
                    if y in ref_set:
                        count += 1
                        if count == need:
                            return True
        if count * den < num * deg:
            return False
        frontier = nxt
    raise AssertionError("level t passes only once the count reaches need")


def _list_scan(
    n: int,
    edges: Sequence[Edge],
    pf: ProportionFunction,
    prev: Sequence[bool] | None = None,
    swap: tuple[int, int] = (0, 0),
) -> list[bool]:
    """:func:`_scan` on adjacency lists: the probe is a set of the shorter
    kept row against the longer one, the depth-t check :func:`_list_levels_ok`."""
    ratios = pf.ratios
    need1, action = _degree_rules(ratios, min(n, len(edges) + 1))

    reference: list[list[int]] = [[] for _ in range(n)]
    kept_adj: list[list[int]] = [[] for _ in range(n)]
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
                    a, b = kept_adj[u], kept_adj[v]
                    if len(a) > len(b):
                        a, b = b, a
                    shared = not set(a).isdisjoint(b)
                if shared:
                    continue
                if rule == _PROBE_THEN_KEEP or not _list_levels_ok(x, deg, reference[x], kept_adj, ratios):
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


def _mask_levels_ok(x: int, ref: int, kept: list[int], needs: tuple[int, ...]) -> bool:
    """:func:`_list_levels_ok` on bitmask rows.

    ``ref`` is x's reference row as a mask, ``kept[w]`` w's kept row, and
    ``needs`` the thresholds ceil(p(i)·deg) of levels i = 2..t at x's
    reference degree deg, from :func:`_level_needs`. Each level from 2
    up ORs the kept rows of the frontier into the reached mask and counts
    the reference neighbours in it; the check stops once that count
    reaches ceil(p(t)·deg).
    """
    frontier = kept[x]  # level 1: every kept neighbour is a reference one
    if not needs or frontier.bit_count() >= needs[-1]:
        return True  # t = 1, or level 1 already reaches ceil(p(t)·deg)
    need = needs[-1]
    reach = frontier  # x joins it at level 2; x's bit is in no reference row
    for level_need in needs:
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
        if count < level_need:
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
    set when (x, w) is a reference (kept) edge, so a row's popcount is
    x's reference (kept) degree. The probe is ``kept[u] & kept[v]`` and
    the depth-t check :func:`_mask_levels_ok`.

    A step decides its endpoints in straight-line code. The keep flag is
    an OR of tests that each read one endpoint, so their order cannot
    change it: level 1 and a ``_PROBE_THEN_KEEP`` rule at u, then the
    same at v, then the depth-t checks, so no BFS runs while a cheaper
    test can still keep the edge. v's degree is read only once u's tests
    pass, and the level-1 tests are skipped at p(1) = 0, where no
    threshold is above 0.
    """
    size = min(n, len(edges) + 1)
    need1, action = _degree_rules(pf.ratios, size)
    needs = _level_needs(pf.ratios, size)
    level1 = need1 and need1[-1]  # need1 is non-decreasing: 0 means every entry is

    bit = _bits(n)
    ref = [0] * n
    kept = [0] * n
    i, j = swap  # without prev, i = 0: every position is decided
    for k in range(i):  # the prefix before the first swap keeps prev's edges
        u, v = edges[k]
        ref[u] |= bit[v]
        ref[v] |= bit[u]
        if prev[k]:
            kept[u] |= bit[v]
            kept[v] |= bit[u]
    flags = list(prev[:i]) if i else []
    for k in range(i, len(edges)):
        u, v = edges[k]
        ref_u = ref[u] = ref[u] | bit[v]
        ref_v = ref[v] = ref[v] | bit[u]
        kept_u = kept[u]
        kept_v = kept[v]
        deg_u = ref_u.bit_count()
        rule_u = action[deg_u]
        if level1 and kept_u.bit_count() < need1[deg_u]:
            keep = True
        elif rule_u == _PROBE_THEN_KEEP and not kept_u & kept_v:
            keep = True
        else:
            deg_v = ref_v.bit_count()
            rule_v = action[deg_v]
            if level1 and kept_v.bit_count() < need1[deg_v]:
                keep = True
            elif rule_u == _PROBE_THEN_KEEP or not (rule_u or rule_v) or kept_u & kept_v:
                keep = False  # at a probe-then-keep rule, u's probe found a shared neighbour
            elif rule_v == _PROBE_THEN_KEEP:
                keep = True
            else:
                keep = (rule_u != _PASS and not _mask_levels_ok(u, ref_u, kept, needs[deg_u])) or (
                    rule_v != _PASS and not _mask_levels_ok(v, ref_v, kept, needs[deg_v])
                )
        flags.append(keep)
        if keep:
            kept[u] |= bit[v]
            kept[v] |= bit[u]
        if k == j and prev is not None and _rejoins(flags, prev, i, j):
            flags.extend(prev[j + 1 :])
            break
    return flags


def compress_basic(g: Graph, pf: ProportionFunction, edges: Sequence[Edge]) -> CompressionResult:
    """Single incremental scan over the edges in the given order.

    Edges are replayed one by one into a growing reference graph; after
    appending (u, v) the hop constraints of u and v are re-checked against
    their reference degrees, and the edge is kept whenever either endpoint
    would otherwise fall short at some level. Keeping the edge restores
    every level for both endpoints at once (the new neighbor is within
    one hop), so the final kept set satisfies the constraints against the
    full graph under any ordering.

    ``edges`` must be a permutation of the edge set. The result keeps
    :class:`CompressionResult`'s defaults: strategy ``"custom"``, no seed.
    """
    _validate_ordering(g, edges)

    start = time.perf_counter()
    flags = _scan(g.n, edges, pf)
    # canonical tuples of the order are shared, not rebuilt
    kept = frozenset(
        e if type(e) is tuple and e[0] < e[1] else canonical_edge(*e)
        for e, keep in zip(edges, flags)
        if keep
    )
    return CompressionResult(kept=kept, n=g.n, m=g.m, seconds=time.perf_counter() - start)


def require_subgraph(g: Graph, gc: Graph) -> None:
    """Raise unless ``gc`` has ``g``'s vertex set and only edges of ``g``.

    A vertex-count mismatch raises ValueError; an extra edge raises
    :class:`NotASubgraphError` naming the first one in canonical order.
    Each of ``gc``'s rows is checked against ``g``'s row of the same
    vertex, stamped into one list.
    """
    if gc.n != g.n:
        raise ValueError(f"vertex count mismatch: {gc.n} != {g.n}")
    mark = [-1] * g.n  # mark[w] == u: (u, w) is an edge of g
    # the rows, not gc.edges(): a checked graph need not build its edge tuples
    for u, neighbors in enumerate(gc.adjacency):
        for w in g.adjacency[u]:
            mark[w] = u
        for v in neighbors:
            if mark[v] != u and u < v:
                raise NotASubgraphError((u, v))


def _short_level(
    v: int,
    base: Sequence[int],
    adjacency: Sequence[Sequence[int]],
    ratios: Sequence[tuple[int, int]],
    base_mark: list[int],
    seen: list[int],
) -> tuple[int, int]:
    """:func:`verify`'s check of one vertex: the first hop level at which
    ``v`` reaches too few of its original neighbours ``base`` in
    ``adjacency``, and the count reached by then; level 0 when every
    level passes.

    One BFS from ``v`` bounded by depth t, on stamps instead of sets:
    ``base_mark[w] = v`` marks v's original neighbours and ``seen[y] = v``
    the vertices reached, so nothing is cleared between sources. Level t
    reaches no further, so it only counts the original neighbours it
    finds. The BFS stops once the count reaches ceil(p(t)·deg), even
    mid-level; every level passes then, since p is non-decreasing.
    """
    deg = len(base)
    num, den = ratios[-1]
    need = -(-num * deg // den)
    if need == 0:
        return 0, 0
    for w in base:
        base_mark[w] = v
    seen[v] = v
    frontier = [v]
    count = 0
    for level, (num, den) in enumerate(ratios[:-1], start=1):
        nxt: list[int] = []
        for x in frontier:
            for y in adjacency[x]:
                if seen[y] != v:
                    seen[y] = v
                    nxt.append(y)
                    if base_mark[y] == v:
                        count += 1
                        if count == need:
                            return 0, count
        if count * den < num * deg:
            return level, count
        frontier = nxt
    for x in frontier:
        for y in adjacency[x]:
            if base_mark[y] == v and seen[y] != v:
                seen[y] = v
                count += 1
                if count == need:
                    return 0, count
    return len(ratios), count  # count < need, so count·den < num·deg


def verify(g: Graph, gc: Graph, pf: ProportionFunction) -> VerificationReport:
    """Independently check a compressed graph against the original.

    ``gc`` must be on the same vertex set with edges drawn from ``g``
    (raises :class:`NotASubgraphError` naming the first extra edge).
    Every vertex is re-checked from scratch against its full original
    neighborhood with one depth-t BFS (:func:`_short_level`), which
    shares no code with the scan; all violations are reported.
    """
    require_subgraph(g, gc)
    base_mark = [-1] * g.n
    seen = [-1] * g.n
    violations: list[Violation] = []
    for v, base in enumerate(g.adjacency):
        level, count = _short_level(v, base, gc.adjacency, pf.ratios, base_mark, seen)
        if level:
            violations.append(
                Violation(
                    vertex=v,
                    level=level,
                    required=pf.at(level) * len(base),
                    achieved=count,
                )
            )
    return VerificationReport(tuple(violations))
