"""Synthetic instances and bundled reference graphs."""

from __future__ import annotations

import random
from dataclasses import dataclass
from importlib import resources

from .graph import Graph, load_edge_list

BUILTIN_NAMES = ("diamond", "triangle", "path3", "star4", "zachary")


@dataclass(frozen=True)
class FamilySpec:
    """A family of same-sized random instances."""

    count: int
    n: int
    m: int
    seed: int = 0

    def __post_init__(self):
        for name, low in (("count", 1), ("n", 0), ("m", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.m > self.n * (self.n - 1) // 2:
            raise ValueError(f"m={self.m} exceeds capacity of n={self.n}")

    def describe(self) -> str:
        return f"G({self.n},{self.m}) x{self.count} seed={self.seed}"


def _pair_from_index(n: int, k: int) -> tuple[int, int]:
    # pairs (u, v), u < v, in lexicographic order; row u starts at
    # u*(2n - u - 1)/2
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid * (2 * n - mid - 1) // 2 <= k:
            lo = mid
        else:
            hi = mid - 1
    u = lo
    v = u + 1 + (k - u * (2 * n - u - 1) // 2)
    return u, v


def gen_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform random simple graph with exactly ``n`` vertices, ``m`` edges.

    Samples ``m`` distinct pair indices out of the n(n-1)/2 possible
    ones; deterministic for a fixed seed.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    capacity = n * (n - 1) // 2
    if m > capacity:
        raise ValueError(f"m={m} exceeds the {capacity} possible edges for n={n}")
    picks = random.Random(seed).sample(range(capacity), m)
    return Graph.from_edges(n, (_pair_from_index(n, k) for k in picks))


def builtin(name: str) -> Graph:
    """A canonical small graph by name (see ``BUILTIN_NAMES``)."""
    if name == "diamond":
        # K4 minus one edge
        return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    if name == "triangle":
        return Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    if name == "path3":
        return Graph.from_edges(3, [(0, 1), (1, 2)])
    if name == "star4":
        return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    if name == "zachary":
        data = resources.files("hopcompress").joinpath("data/zachary.txt")
        with data.open("r", encoding="utf-8") as handle:
            return load_edge_list(handle)
    raise KeyError(f"unknown builtin graph {name!r}; choose from {BUILTIN_NAMES}")
