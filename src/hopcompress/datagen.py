"""Synthetic instances and bundled reference graphs."""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from importlib import resources

from .graph import Edge, Graph, load_edge_list

BUILTIN_NAMES = ("diamond", "triangle", "path3", "star4", "zachary")


@dataclass(frozen=True)
class FamilySpec:
    """A family of same-sized random instances."""

    count: int
    n: int
    m: int
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        _pair_count(self.n, self.m)

    def describe(self) -> str:
        return f"G({self.n},{self.m}) x{self.count} seed={self.seed}"


def _pair_count(n: int, m: int) -> int:
    """G(n, m)'s n(n-1)/2 vertex pairs, after refusing n < 0, m < 0, m above
    that count, and a count above ``sys.maxsize``: ``random.sample`` takes
    the ``len()`` of their range, so n = 2**32 is the largest n."""
    for name, value in (("n", n), ("m", m)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0")
    capacity = n * (n - 1) // 2
    if capacity > sys.maxsize:
        raise ValueError(f"n={n} has {capacity} vertex pairs, more than {sys.maxsize}")
    if m > capacity:
        raise ValueError(f"m={m} exceeds capacity of n={n}")
    return capacity


def _pair_from_index(n: int, k: int) -> tuple[int, int]:
    # pairs (u, v), u < v, in lexicographic order; row u starts at
    # u*(2n - u - 1)/2. The last j rows hold j(j + 1)/2 pairs, so the
    # pair r places from the end lies in row n - 2 - j for the largest j
    # with j(j + 1)/2 <= r.
    r = n * (n - 1) // 2 - 1 - k
    u = n - 2 - (math.isqrt(8 * r + 1) - 1) // 2
    return u, k - u * (2 * n - u - 1) // 2 + u + 1


def gnm_pairs(n: int, m: int, seed: int) -> list[Edge]:
    """The edges of :func:`gen_gnm`, as canonical pairs in ascending order.

    Samples ``m`` distinct pair indices out of the n(n-1)/2 possible
    ones; deterministic for a fixed seed. Nothing is allocated per vertex.
    """
    picks = random.Random(seed).sample(range(_pair_count(n, m)), m)
    return [_pair_from_index(n, k) for k in sorted(picks)]


def gen_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform random simple graph with exactly ``n`` vertices, ``m`` edges."""
    return Graph.from_edges(n, gnm_pairs(n, m, seed))


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
