"""Seeded input generators owned by the benchmark.

The program under test receives only the edge-list files written here, so
a change to the program's own generators cannot change these inputs.
"""

from __future__ import annotations

import bisect
import itertools
import random

# ca-AstroPh as published by SNAP: 18772 authors, 198110 collaboration edges.
ASTRO_AUTHORS = 18772
ASTRO_EDGES = 198110


def collab_edges(seed: int, authors: int = ASTRO_AUTHORS, edges: int = ASTRO_EDGES) -> list[tuple[int, int]]:
    """A co-authorship-like graph: a union of per-paper author cliques.

    Each paper has 2 + min(floor(Exp(0.45)), 12) distinct authors, drawn
    with activity proportional to 1/(rank+1)**0.4, so a few prolific
    authors become hubs. Papers are added until exactly ``edges``
    distinct edges exist (the last clique is cut short if needed).
    Author ids are a seeded permutation of ranks, so hubs are not the
    smallest ids. Returns canonical ``u < v`` edges, sorted.
    """
    rng = random.Random(seed)
    cum = list(itertools.accumulate(1.0 / (rank + 1) ** 0.4 for rank in range(authors)))
    total = cum[-1]
    ids = list(range(authors))
    rng.shuffle(ids)
    found: set[tuple[int, int]] = set()
    while len(found) < edges:
        size = min(2 + min(int(rng.expovariate(0.45)), 12), authors)
        team: list[int] = []
        while len(team) < size:
            a = ids[min(bisect.bisect_right(cum, rng.random() * total), authors - 1)]
            if a not in team:
                team.append(a)
        for u, v in itertools.combinations(team, 2):
            found.add((u, v) if u < v else (v, u))
            if len(found) == edges:
                break
    return sorted(found)


def gnm_edges(seed: int, n: int, m: int) -> list[tuple[int, int]]:
    """Uniform random simple graph with ``n`` vertices and exactly ``m`` edges."""
    if m > n * (n - 1) // 2:
        raise ValueError(f"m={m} exceeds the capacity of n={n}")
    rng = random.Random(seed)
    found: set[tuple[int, int]] = set()
    while len(found) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            found.add((u, v) if u < v else (v, u))
    return sorted(found)


def write_edges(path, edges) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(f"{u} {v}\n" for u, v in edges)
