"""Immutable simple undirected graphs with hop-bounded queries.

Vertices are dense integer ids ``0..n-1``. Graphs loaded from edge-list
files keep the original vertex labels in ``Graph.labels`` so results can
be written back in the caller's id space.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, insort
from typing import IO, Iterable, Iterator, Sequence

from .errors import EdgeListFormatError, SizeLimitError

Edge = tuple[int, int]
Path = tuple[int, ...]

# adjacency entries the path search of edge_paths may scan, about 10 s at
# the ~4M a second measured on 2 cores: K_30 at t=3 scans 9.9M (2.7 s),
# G(200,1000) at t=4 12.2M (3.0 s), G(200,1500) at t=4 86.7M (22 s)
MAX_PATH_SCANS = 40_000_000


def canonical_edge(u: int, v: int) -> Edge:
    """Return the endpoints as a ``(min, max)`` pair."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph, immutable after construction.

    Safe for unlimited concurrent readers; every traversal owns its own
    scratch state. The edge tuples are built on the first ``edges()``
    call; concurrent first calls build equal tuples and one of them wins.
    """

    __slots__ = ("n", "m", "adjacency", "labels", "_edges")

    def __init__(self, adjacency: Sequence[Iterable[int]], labels: Sequence[int] | None = None):
        self._assign(adjacency, labels)
        adj = self.adjacency
        n = self.n
        for u, neighbors in enumerate(adj):
            prev = -1
            for v in neighbors:
                if v == u:
                    raise ValueError(f"self-loop at vertex {u}")
                if not 0 <= v < n:
                    raise ValueError(f"neighbor {v} of vertex {u} out of range")
                if v == prev:
                    raise ValueError(f"duplicate edge ({u}, {v})")
                row = adj[v]
                k = bisect_left(row, u)
                if k == len(row) or row[k] != u:
                    raise ValueError(f"asymmetric adjacency: {u}->{v} but not {v}->{u}")
                prev = v
        if labels is not None and len(labels) != n:
            raise ValueError("labels must have one entry per vertex")

    @classmethod
    def _from_rows(cls, rows: Sequence[Iterable[int]], labels: Sequence[int] | None) -> Graph:
        """A graph on rows that are symmetric, duplicate-free and loop-free,
        with one label per row when labels are given; only sorts the rows."""
        g = object.__new__(cls)
        g._assign(rows, labels)
        return g

    def _assign(self, adjacency: Sequence[Iterable[int]], labels: Sequence[int] | None) -> None:
        """Sort each row and set every field; checks nothing."""
        adj = tuple(tuple(sorted(neighbors)) for neighbors in adjacency)
        object.__setattr__(self, "n", len(adj))
        # handshaking: every edge appears in exactly two adjacency rows
        object.__setattr__(self, "m", sum(map(len, adj)) // 2)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "labels", tuple(labels) if labels is not None else None)
        object.__setattr__(self, "_edges", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge], labels: Sequence[int] | None = None) -> Graph:
        """Build a graph on ``n`` vertices from an iterable of edges.

        A self-loop or a repeated edge is caught by the constructor's row
        checks, which name the smallest one, without a set of every edge.
        """
        return cls(_edge_rows(n, edges), labels=labels)

    def edges(self) -> Iterator[Edge]:
        """Iterate canonical ``u < v`` edges in ascending order.

        Every call serves the same tuples, so edge sets and orderings
        built from them share their memory.
        """
        if self._edges is None:
            edges = tuple(
                (u, v) for u, neighbors in enumerate(self.adjacency) for v in neighbors if u < v
            )
            object.__setattr__(self, "_edges", edges)
        return iter(self._edges)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges())

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        a, b = self.adjacency[u], self.adjacency[v]
        return v in a if len(a) <= len(b) else u in b

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.adjacency == other.adjacency
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.adjacency, self.labels))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _edge_rows(n: int, edges: Iterable[Edge]) -> list[list[int]]:
    """One unsorted row per vertex, each edge appended to both endpoints'
    rows as given: repeats and self-loops are kept. Raises ValueError
    for an endpoint outside ``0..n-1``."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        rows[u].append(v)
        rows[v].append(u)
    return rows


def load_edge_list(source: IO[str] | Iterable[str]) -> Graph:
    """Parse an edge-list text stream into a :class:`Graph`.

    Lines starting with ``#`` are comments; data lines hold two unsigned
    ASCII decimal integers separated by whitespace. Vertex ids are relabeled onto a
    dense ``0..n-1`` range (ascending original order); the original ids
    are kept in ``Graph.labels``. Each token gets its label's first-seen
    index as the lines are read, and a token seen before is not parsed
    again, so one int is kept per vertex, not per endpoint; the indices
    become ascending-label ranks after the last line. Each edge goes straight into both endpoints' rows, with no edge
    set; repeats are collapsed with one warning that counts them, and
    self-loops are rejected.
    """
    index: dict[int, int] = {}  # label -> first-seen index
    # each spelling of a label ("01", "1") -> its index, so a known token
    # is not parsed again and no int is kept per endpoint
    by_token: dict[str, int] = {}
    get = by_token.get
    rows: list[list[int]] = []
    for line_number, line in enumerate(source, start=1):
        parts = line.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2:
            raise EdgeListFormatError(
                f"expected two integers, got {line.strip()!r}", line_number
            )
        a, b = parts
        digits = a + b  # int() also takes "+2", "1_0", "-0" and non-ASCII digits
        if not (digits.isdigit() and digits.isascii()):
            try:
                negative = min(int(a), int(b)) < 0
            except ValueError:
                negative = False
            kind = "negative vertex id" if negative else "non-integer token"
            raise EdgeListFormatError(f"{kind} in {line.strip()!r}", line_number)
        u = get(a)
        if u is None:
            u = by_token[a] = index.setdefault(int(a), len(rows))
            if u == len(rows):
                rows.append([])
        v = get(b)
        if v is None:
            v = by_token[b] = index.setdefault(int(b), len(rows))
            if v == len(rows):
                rows.append([])
        if u == v:
            raise EdgeListFormatError(f"self-loop at vertex {int(a)}", line_number)
        rows[u].append(v)
        rows[v].append(u)

    ids = sorted(index)
    order = list(map(index.__getitem__, ids))  # first-seen index of each rank
    rank = [0] * len(ids)
    for r, i in enumerate(order):
        rank[i] = r
    for row in rows:
        row[:] = map(rank.__getitem__, row)
    rows = list(map(rows.__getitem__, order))
    repeats = 0  # a repeated edge, in either orientation, repeats in both rows
    for row in rows:
        distinct = set(row)
        if len(distinct) < len(row):
            repeats += len(row) - len(distinct)
            row[:] = distinct
    if repeats:
        warnings.warn(f"collapsed {repeats // 2} duplicate edge(s)", stacklevel=2)
    return Graph._from_rows(rows, ids)


def write_edge_list(g: Graph, out: IO[str]) -> None:
    """Write canonical ``u < v`` edges ascending, one per line.

    Original labels are emitted when the graph carries them (the label
    map is ascending, so canonical order is preserved either way). Walks
    the rows rather than ``g.edges()``, so writing a graph does not build
    its shared edge tuples.
    """
    labels = g.labels
    for u, neighbors in enumerate(g.adjacency):
        for v in neighbors:
            if u < v:
                if labels is not None:
                    out.write(f"{labels[u]} {labels[v]}\n")
                else:
                    out.write(f"{u} {v}\n")


def edge_paths(g: Graph, t: int) -> Iterator[list[Path]]:
    """For each canonical edge ``(u, v)``, in :meth:`Graph.edges` order, the
    simple paths of at most ``t`` edges between its endpoints, each once,
    in lexicographic order of their vertex sequences; the direct path
    ``(u, v)`` is one of them.

    Up to ``t = 2`` they are read from the rows: the direct path and, at
    ``t = 2``, one ``(u, w, v)`` per common neighbour w. From ``t = 3`` on
    a search from ``u`` lists them, and the searches may scan
    :data:`MAX_PATH_SCANS` adjacency entries in all, or
    :class:`~hopcompress.errors.SizeLimitError` is raised. It is raised
    before any search when the first two levels pass the budget: the
    search from ``u`` scans the row of ``u``, the row of every neighbour
    ``a`` but ``v``, and the row of every neighbour of such an ``a`` but
    ``u`` and ``v``. At ``t = 3`` that is the whole search, so the count
    is exact. Otherwise it is raised mid-search, once the entries counted
    so far pass the budget.
    """
    adjacency = g.adjacency
    if t <= 2:
        for u, v in g.edges():
            paths = [(u, w, v) for w in _common(adjacency[u], adjacency[v])] if t == 2 else []
            insort(paths, (u, v))
            yield paths
        return
    degree = list(map(len, adjacency))
    # S(x), the entries in the rows of x's neighbours, and T(x), the sum
    # of S over them
    s_of = [sum(map(degree.__getitem__, row)) for row in adjacency]
    first_level = sum(degree[u] + s_of[u] - degree[v] for u, v in g.edges())
    too_many = (
        f"more than {MAX_PATH_SCANS} adjacency entries to scan for paths of at most {t} "
        "edges exceed the path-search guard; use fewer hop levels or the random ordering instead"
    )
    if first_level > MAX_PATH_SCANS:
        raise SizeLimitError(too_many)
    # the second level: for each a in N(u) - {v}, the rows of a's
    # neighbours but u and v; u is one of them deg(u) - 1 times, v once
    # per common neighbour of u and v
    t_of = [sum(map(s_of.__getitem__, row)) for row in adjacency]
    second_level = sum(
        t_of[u] - s_of[v] - degree[u] * (degree[u] - 1)
        - degree[v] * len(_common(adjacency[u], adjacency[v]))
        for u, v in g.edges()
    )
    if first_level + second_level > MAX_PATH_SCANS:
        raise SizeLimitError(too_many)
    scans_left = MAX_PATH_SCANS
    for u, v in g.edges():
        paths, scans = _simple_paths(g, u, v, t, scans_left)
        scans_left -= scans
        if scans_left < 0:
            raise SizeLimitError(too_many)
        yield paths


def _common(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The entries two sorted rows share, ascending: walks the shorter row
    and bisects into the longer, so a hub row is not scanned per edge."""
    if len(a) > len(b):
        a, b = b, a
    return [w for w in a if (k := bisect_left(b, w)) < len(b) and b[k] == w]


def _simple_paths(
    g: Graph, u: int, v: int, max_len: int, max_scans: float
) -> tuple[list[Path], int]:
    """The simple paths from ``u`` to ``v != u`` of at most ``max_len``
    edges, in lexicographic order (a DFS over sorted rows emits them so),
    and the number of adjacency entries the DFS scans for them, which is
    what its time grows with; stops early, with the count past
    ``max_scans``, once the count passes it."""
    adjacency = g.adjacency
    paths: list[Path] = []
    on_path = {u}  # a set, not n flags: one search runs per edge
    path = [u]
    scans = len(adjacency[u])
    # stack of per-vertex neighbor cursors, mirroring `path`
    cursors = [0]
    while cursors:
        x = path[-1]
        i = cursors[-1]
        neighbors = adjacency[x]
        if i >= len(neighbors):
            cursors.pop()
            path.pop()
            on_path.remove(x)
            continue
        cursors[-1] = i + 1
        y = neighbors[i]
        if y == v:
            paths.append(tuple(path) + (v,))
            continue
        if y not in on_path and len(path) <= max_len - 1:
            scans += len(adjacency[y])  # every entry of a row pushed is scanned once
            if scans > max_scans:
                break
            on_path.add(y)
            path.append(y)
            cursors.append(0)
    return paths, scans
