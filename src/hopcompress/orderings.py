"""Edge-ordering strategies feeding the incremental compressor.

The compressor's output depends only on the order in which it scans the
edges, so better orderings buy smaller kept sets. Provided here: seeded
uniform shuffles, a local edge-connectivity greedy order, the relaxed-LP
order, a simulated-annealing search over the permutation space, and
:func:`run_strategy`, which runs any of them by name.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from dataclasses import dataclass

from .compress import CompressionResult, ProportionFunction, _scan, compress_basic
from .errors import SizeLimitError
from .graph import Edge, Graph, edge_paths
from .lp import _highs_core, build_lp, solve_lp

# swap trials times edges that sa_order may run, about 5-75 s: a trial
# rescans at most the m edges of the order, at the 0.5 us an edge-trial
# measured on 2 cores on zachary, 0.9 us on G(200,1000), 1.25 us on
# G(1000,5000), 3.9-4.6 us on G(3000,30000) and 7.5 us on a 198 110-edge
# co-author graph at p=0,1/2; 1000 trials make 5M on G(1000,5000) (6 s)
# and would make 30M on G(3000,30000) (~2 min) and 198M on the co-author
# graph (~25 min)
MAX_SA_EDGE_TRIALS = 10_000_000

# every accepted strategy name -> its canonical name; the CLI choices and
# normalize_strategy read this table
STRATEGIES = {
    "random": "basic-random",
    "basic": "basic-random",
    "basic-random": "basic-random",
    "lp": "lp",
    "ec": "ec",
    "sa": "sa",
}
STRATEGY_NAMES = tuple(dict.fromkeys(STRATEGIES.values()))


def normalize_strategy(name: str) -> str:
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}")
    return STRATEGIES[name]


@dataclass(frozen=True)
class SaParams:
    """Annealing schedule: ``iterations`` swap trials starting at
    temperature ``t0``, cooled geometrically by ``alpha`` each trial."""

    iterations: int = 1000
    t0: float = 10.0
    alpha: float = 0.99
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if not 0 < self.t0 < math.inf:
            raise ValueError("t0 must be positive and finite")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")


def random_order(g: Graph, seed: int) -> tuple[Edge, ...]:
    """Uniformly random edge permutation (seeded Fisher-Yates shuffle)."""
    edges = list(g.edges())
    random.Random(seed).shuffle(edges)
    return tuple(edges)


def ec_scores(g: Graph, t: int) -> dict[Edge, int]:
    """Bounded-length path counts per edge.

    For every edge (u, v), every simple path of at most ``t`` edges
    between u and v adds one to the score of each edge it traverses
    (the direct edge counts itself). High scores mark bridge-like
    edges whose removal would hurt many short detours.

    Up to ``t = 2`` the paths are counted, not listed. A detour of two
    edges closes a triangle with the edge it joins, so an edge scores 1,
    plus, at ``t = 2``, 2 per triangle through it (the detours of the
    triangle's other two edges). The count walks each edge from its
    endpoint of lower (degree, id) rank, so its cost is the sum over
    edges of the smaller degree. Longer horizons enumerate the paths with
    :func:`~hopcompress.graph.edge_paths`, which raises
    :class:`~hopcompress.errors.SizeLimitError` past its scan budget,
    :data:`~hopcompress.graph.MAX_PATH_SCANS`.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if t > 2:
        scores = dict.fromkeys(g.edges(), 0)
        for paths in edge_paths(g, t):
            for path in paths:
                for a, b in zip(path, path[1:]):
                    scores[(a, b) if a < b else (b, a)] += 1
        return scores
    scores = dict.fromkeys(g.edges(), 1)
    if t == 1:
        return scores
    adj = g.adjacency
    order = sorted(range(g.n), key=lambda v: len(adj[v]))  # stable: (degree, id)
    rank = [0] * g.n
    for r, v in enumerate(order):
        rank[v] = r
    for u in order:
        ru = rank[u]
        lower = [v for v in adj[u] if rank[v] < ru]
        if not lower:
            continue
        row = set(adj[u])  # one set at a time, for the higher-ranked endpoint
        for v in lower:
            scores[(u, v) if u < v else (v, u)] += 2 * len(row.intersection(adj[v]))
    return scores


def _descending(scores: dict[Edge, float]) -> tuple[Edge, ...]:
    """Edges by descending score, ties by canonical id.

    A reverse sort keeps equal keys in input order, so the canonical
    edges sorted by score alone come out with their ties broken, and no
    key tuple is built per edge.
    """
    return tuple(sorted(sorted(scores), key=scores.__getitem__, reverse=True))


def ec_order(g: Graph, t: int) -> tuple[Edge, ...]:
    """Edges sorted by descending connectivity score, ties by canonical id."""
    return _descending(ec_scores(g, t))


def lp_order(g: Graph, pf: ProportionFunction) -> tuple[Edge, ...]:
    """Edges sorted by descending relaxation score, ties by canonical id.

    Scores are the snapped ``edge_values`` of :func:`~hopcompress.lp.solve_lp`:
    two values that round to the same 1e-9 grid point tie, while two less
    than 1e-9 apart that round to different points stay ordered by value.
    Raises :class:`~hopcompress.errors.SizeLimitError` past the size guards
    of :func:`~hopcompress.lp.build_lp`, when HiGHS ends in a status other
    than optimal, or when its answer breaks a row.
    """
    return _descending(solve_lp(build_lp(g, pf)).edge_values)


def _swap_positions(rng: random.Random, m: int) -> tuple[int, int]:
    """``sorted(rng.sample(range(m), 2))`` for ``m`` >= 2: two distinct
    positions, drawn with the calls ``sample`` makes, so the stream is
    left where ``sample`` leaves it.

    For two picks CPython's ``sample`` draws from a pool when m <= 21:
    first a = randrange(m), then an index randrange(m - 1) into the pool,
    whose slot a now holds m - 1. Above 21 it draws randrange(m) until
    the draw differs from a. Each randrange(k) is one ``_randbelow(k)``,
    the call ``sample`` makes.
    """
    a = rng.randrange(m)
    if m <= 21:
        b = rng.randrange(m - 1)
        if b == a:
            b = m - 1
    else:
        b = rng.randrange(m)
        while b == a:
            b = rng.randrange(m)
    return (a, b) if a < b else (b, a)


def sa_order(g: Graph, pf: ProportionFunction, params: SaParams) -> tuple[Edge, ...]:
    """The best order a simulated-annealing search over the ordering space finds.

    The initial state equals ``random_order(g, params.seed)``; the swap
    positions and acceptance draws continue from the same seeded stream.
    Each trial swaps two distinct positions, recompresses, keeps the
    swapped order on strict improvement and otherwise with probability
    exp((current cost - new cost) / T); the exponent is never positive,
    so the acceptance chance shrinks as T cools. Once T underflows to 0
    only an equal-cost swap is accepted, the limit of that chance; the
    draw is still made, so the stream does not shift. The best order
    seen is returned.

    A trial does not rescan the whole order: it replays the decisions
    before the first swapped position from the current order's keep
    flags and, when the kept edges up to the second swapped position
    match, reuses the current order's later decisions too. The costs,
    and so the search, are identical to a full rescan per trial.

    With fewer than two edges no swap exists, and the initial order is
    returned at once. Otherwise more than :data:`MAX_SA_EDGE_TRIALS`
    trials times edges raise :class:`~hopcompress.errors.SizeLimitError`
    before the first scan.
    """
    rng = random.Random(params.seed)
    current = list(g.edges())
    rng.shuffle(current)
    m = len(current)
    if m < 2:
        return tuple(current)
    if params.iterations * m > MAX_SA_EDGE_TRIALS:
        raise SizeLimitError(
            f"{params.iterations} annealing trials over {m} edges exceed the SA guard of "
            f"{MAX_SA_EDGE_TRIALS} edge-trials; lower --sa-iters or use the ec or random "
            "ordering instead"
        )

    flags = _scan(g.n, current, pf)
    cost_current = sum(flags)
    best = current
    cost_best = cost_current

    temperature = params.t0
    for _ in range(params.iterations):
        i, j = _swap_positions(rng, m)
        candidate = list(current)
        candidate[i], candidate[j] = candidate[j], candidate[i]
        candidate_flags = _scan(g.n, candidate, pf, flags, (i, j))
        cost = sum(candidate_flags)
        if cost < cost_best:
            best = candidate
            cost_best = cost
        if cost < cost_current:
            current, flags = candidate, candidate_flags
            cost_current = cost
        else:
            r = rng.random()
            if temperature:
                accept = math.exp((cost_current - cost) / temperature) > r
            else:
                accept = cost == cost_current  # the limit at T = 0
            if accept:
                current, flags = candidate, candidate_flags
                cost_current = cost
        temperature *= params.alpha

    return tuple(best)


def sa_compress(g: Graph, pf: ProportionFunction, params: SaParams) -> CompressionResult:
    """Compress under :func:`sa_order`'s best order; ``seconds`` covers the
    whole search."""
    return run_strategy(g, pf, "sa", seed=params.seed, sa_params=params)


def run_strategy(
    g: Graph,
    pf: ProportionFunction,
    strategy: str,
    seed: int = 0,
    sa_params: SaParams | None = None,
) -> CompressionResult:
    """Compress under one named strategy; ``seconds`` spans the ordering
    (or the annealing search) and the scan, but not the one-time load of
    the LP solver, so strategies compare by their own work.

    ``seed`` drives the random order and the annealing stream (it
    overrides ``sa_params.seed`` so paired trials share their start).
    The result records the strategy (``"random"`` for ``basic-random``),
    the seed (``None`` for lp and ec) and lp's simplex iterations.
    """
    strategy = normalize_strategy(strategy)
    if strategy == "lp":
        _highs_core()  # loads numpy with it
    start = time.perf_counter()
    lp_iterations = None
    if strategy == "sa":
        order = sa_order(g, pf, dataclasses.replace(sa_params or SaParams(), seed=seed))
    elif strategy == "lp":
        solution = solve_lp(build_lp(g, pf))
        order, lp_iterations, seed = _descending(solution.edge_values), solution.iterations, None
    elif strategy == "ec":
        order, seed = ec_order(g, pf.t), None
    else:
        strategy, order = "random", random_order(g, seed)
    result = compress_basic(g, pf, order)
    seconds = time.perf_counter() - start
    return dataclasses.replace(
        result, strategy=strategy, seed=seed, lp_iterations=lp_iterations, seconds=seconds
    )
