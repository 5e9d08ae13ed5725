"""Metrics, oracles, and the ordering benchmark."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from .compress import ProportionFunction, require_subgraph, verify
from .datagen import FamilySpec, gen_gnm
from .errors import SizeLimitError
from .graph import Graph
from .orderings import SaParams, normalize_strategy, run_strategy

BRUTE_FORCE_EDGE_LIMIT = 20
BENCH_MAX_N = 10**6  # each vertex costs ~140 bytes: one edge at this n took ~4 s, ~150 MB


def compression_ratio(g: Graph, gc: Graph) -> Fraction:
    """Deleted-edge fraction (|E| - |E_c|) / |E|, exact."""
    require_subgraph(g, gc)
    if g.m == 0:
        raise ValueError("compression ratio undefined for an edgeless graph")
    return Fraction(g.m - gc.m, g.m)


@dataclass(frozen=True)
class SpHistogram:
    """Unordered connected pair counts per hop distance."""

    lengths: dict[int, int]
    disconnected: int

    def total_pairs(self) -> int:
        return sum(self.lengths.values()) + self.disconnected


def _levels(adjacency, source: int, stamp: list[int]) -> Iterator[list[int]]:
    """Yield the non-empty levels of a BFS from ``source``: the vertices first
    reached at depth 1, 2, ... Each vertex reached, ``source`` too, is marked
    ``stamp[y] = source``, so one stamp list serves every source uncleared."""
    stamp[source] = source
    frontier = [source]
    while True:
        nxt: list[int] = []
        for x in frontier:
            for y in adjacency[x]:
                if stamp[y] != source:
                    stamp[y] = source
                    nxt.append(y)
        if not nxt:
            return
        yield nxt
        frontier = nxt


def sp_histogram(g: Graph) -> SpHistogram:
    """All-pairs BFS; every unordered pair counted once.

    One BFS per source over a shared stamp list. Each level adds its size
    to its depth; every pair is reached from both ends, so halve.
    """
    n = g.n
    reached: dict[int, int] = {}
    stamp = [-1] * n
    for u in range(n):
        for depth, level in enumerate(_levels(g.adjacency, u, stamp), start=1):
            reached[depth] = reached.get(depth, 0) + len(level)
    lengths = {depth: count // 2 for depth, count in sorted(reached.items())}
    return SpHistogram(lengths, disconnected=n * (n - 1) // 2 - sum(lengths.values()))


@dataclass(frozen=True)
class StretchReport:
    ok: bool
    max_stretch: float  # 1.0 when nothing was removed; inf when disconnected


def stretch_check(g: Graph, gc: Graph, t: int) -> StretchReport:
    """Bound the detour of every removed edge.

    Each edge of ``g`` missing from ``gc`` must be bridged by a path of
    at most ``t`` hops; reports the longest such detour. An edge across
    two components of ``gc`` makes it ``inf`` at once; otherwise one BFS
    per lower endpoint stops at the depth where it has reached all of
    that endpoint's removed neighbours.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    require_subgraph(g, gc)
    removed: dict[int, set[int]] = {}
    for u, v in g.edges():
        if not gc.has_edge(u, v):
            removed.setdefault(u, set()).add(v)
    label = [-1] * g.n  # ends as the smallest vertex of each vertex's component
    for s in range(g.n):
        if label[s] < 0:
            for _ in _levels(gc.adjacency, s, label):
                pass
    if any(label[v] != label[u] for u, far in removed.items() for v in far):
        return StretchReport(ok=False, max_stretch=math.inf)
    worst = 1.0
    stamp = [-1] * g.n
    for u, far in removed.items():
        for depth, level in enumerate(_levels(gc.adjacency, u, stamp), start=1):
            far.difference_update(level)
            if not far:
                break
        worst = max(worst, float(depth))
    return StretchReport(ok=worst <= t, max_stretch=worst)


def brute_force_optimal(g: Graph, pf: ProportionFunction) -> tuple[int, Graph]:
    """Exhaustive minimum kept-edge count, with one witness subgraph.

    Enumerates edge subsets by ascending cardinality and returns the
    first that verifies; adding edges never breaks a constraint, so the
    first hit is a true minimum. Guarded to :data:`BRUTE_FORCE_EDGE_LIMIT` edges.
    """
    if g.m > BRUTE_FORCE_EDGE_LIMIT:
        raise SizeLimitError(
            f"{g.m} edges exceeds the brute-force guard of {BRUTE_FORCE_EDGE_LIMIT}"
        )
    edges = tuple(g.edges())
    start = -(-(g.m * pf.props[0].numerator) // pf.props[0].denominator)  # ceil
    for k in range(start, g.m + 1):
        for subset in combinations(edges, k):
            candidate = Graph.from_edges(g.n, subset)
            if verify(g, candidate, pf).ok:
                return k, candidate
    raise AssertionError("the full edge set always verifies")  # pragma: no cover


@dataclass(frozen=True)
class StrategyStats:
    strategy: str
    mean_kept: float
    mean_seconds: float


@dataclass(frozen=True)
class BenchReport:
    """Mean kept-edge counts and wall times per strategy over one family."""

    dataset: str
    proportions: str
    seeds: tuple[int, ...]
    stats: tuple[StrategyStats, ...]

    @property
    def trials(self) -> int:
        return len(self.seeds)

    def to_json(self) -> str:
        payload = {
            "dataset": self.dataset,
            "p": self.proportions,
            "trials": self.trials,
            "seed_list": list(self.seeds),
            "strategies": [
                {
                    "strategy": s.strategy,
                    "mean_ec": s.mean_kept,
                    "mean_seconds": s.mean_seconds,
                    "trials": self.trials,
                    "seed_list": list(self.seeds),
                }
                for s in self.stats
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def format_table(self) -> str:
        header = f"{'strategy':<14} {'mean |E_c|':>12} {'mean seconds':>14}"
        lines = [
            f"dataset: {self.dataset}   p: {self.proportions}   trials: {self.trials}",
            header,
            "-" * len(header),
        ]
        for s in self.stats:
            lines.append(f"{s.strategy:<14} {s.mean_kept:>12.2f} {s.mean_seconds:>14.6f}")
        return "\n".join(lines) + "\n"


def _bench_trial(args) -> list[tuple[str, int, float]]:
    family, pf, strategies, seed, sa_params = args
    g = gen_gnm(family.n, family.m, seed)
    rows = []
    for strategy in strategies:
        result = run_strategy(g, pf, strategy, seed=seed, sa_params=sa_params)
        report = verify(g, result.subgraph(), pf)
        if not report.ok:
            raise RuntimeError(
                f"soundness violation: strategy {strategy} seed {seed} "
                f"produced {len(report.violations)} violation(s); first: "
                f"{report.violations[0]}"
            )
        rows.append((strategy, result.kept_count(), result.seconds))
    return rows


def bench_orderings(
    family: FamilySpec,
    pf: ProportionFunction,
    strategies,
    sa_params: SaParams | None = None,
    jobs: int = 1,
) -> BenchReport:
    """Run each strategy over a family's instances and aggregate means.

    Trial i compresses ``gen_gnm(family.n, family.m, family.seed + i)``
    under every strategy, with ``family.seed + i`` as its seed.

    Every output is re-verified; a failure aborts loudly since it can
    only mean a compressor bug. Trials are independent, so ``jobs > 1``
    fans them out across at most ``min(jobs, trials, cpu count)`` worker
    processes without changing any result; the process pool is imported
    only then. ``jobs < 1``, n above :data:`BENCH_MAX_N`, an empty strategy
    list, or one naming a strategy twice (aliases included) raises ValueError.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if family.n > BENCH_MAX_N:
        raise ValueError(f"n={family.n} exceeds the bench guard of {BENCH_MAX_N} vertices")
    strategies = [normalize_strategy(s) for s in strategies]
    if not strategies:
        raise ValueError("no strategy given")
    for i, strategy in enumerate(strategies):
        if strategy in strategies[:i]:
            raise ValueError(f"strategy {strategy!r} named more than once")
    count = family.count
    seeds = tuple(range(family.seed, family.seed + count))
    tasks = [(family, pf, strategies, seed, sa_params) for seed in seeds]
    workers = min(jobs, count, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(_bench_trial, tasks))
    else:
        per_trial = [_bench_trial(task) for task in tasks]

    stats = []
    for idx, strategy in enumerate(strategies):
        kept = [trial[idx][1] for trial in per_trial]
        secs = [trial[idx][2] for trial in per_trial]
        stats.append(
            StrategyStats(
                strategy=strategy,
                mean_kept=sum(kept) / count,
                mean_seconds=sum(secs) / count,
            )
        )
    return BenchReport(
        dataset=family.describe(),
        proportions=str(pf),
        seeds=seeds,
        stats=tuple(stats),
    )
