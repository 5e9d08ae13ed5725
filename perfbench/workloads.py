"""The benchmark's workloads: inputs, set-up and one pass of each.

A pass makes the library calls that the CLI makes for the same job
(``cmd_compress``, ``cmd_eval sp-hist``, ``cmd_bench`` with ``jobs=1``).
Traced, a pass instead makes the public calls that those wrap, one span
around each, so every layer's self time can be read off. Both forms must
give identical outputs; the worker compares them.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from inputs import ASTRO_AUTHORS, ASTRO_EDGES, collab_edges, gnm_edges, write_edges

# counters summed over one pass; each workload fills the ones its layers run
COUNTERS = (
    "graph.deg2_sum",
    "graph.max_degree",
    "compress.kept",
    "orderings.ec_score_sum",
    "orderings.sa_scans",
    "orderings.sa_saved",
    "evaluate.sp_pairs",
    "lp.rows",
    "lp.vars",
    "lp.nnz",
    "lp.objective_sum",
)


@dataclass
class Op:
    """One strategy's compressions in a pass; compared across passes by strategy."""

    strategy: str
    weight: int  # (instance, strategy) compressions this entry stands for
    ratio: float  # mean fraction of edges deleted over them
    output: object  # deterministic; must repeat exactly on every pass
    failed: int = 0
    errors: list[str] = field(default_factory=list)


@dataclass
class Outcome:
    ops: list[Op]
    counters: Counter


def describe_graph(g) -> dict:
    degrees = [len(nbrs) for nbrs in g.adjacency]
    return {
        "n": g.n,
        "m": g.m,
        "max_degree": max(degrees, default=0),
        "deg2_sum": sum(d * d for d in degrees),
    }


def compress_with(h, g, pf, strategy, seed, sa_params, tr, counters):
    """One compression, as ``run_strategy`` does it.

    Untraced this is the ``run_strategy`` call itself. Traced, it is the
    ordering and scan calls that ``run_strategy`` makes, each in a span.
    """
    if not tr.enabled:
        return h.run_strategy(g, pf, strategy, seed=seed, sa_params=sa_params)
    if strategy == "sa":
        counters["orderings.sa_scans"] += sa_params.iterations + 2
        with tr.span("orderings.sa_compress"):
            return h.sa_compress(g, pf, dataclasses.replace(sa_params, seed=seed))
    if strategy == "random":
        with tr.span("orderings.random_order"):
            order = h.random_order(g, seed)
    elif strategy == "ec":
        with tr.span("orderings.ec_order"):
            scores = h.ec_scores(g, pf.t)
            order = sorted(scores, key=lambda e: (-scores[e], e))
        counters["orderings.ec_score_sum"] += sum(scores.values())
    elif strategy == "lp":
        with tr.span("lp.build_lp"):
            model = h.build_lp(g, pf)
        with tr.span("lp.solve_lp"):
            solution = h.solve_lp(model)
        if solution.status != "optimal":
            raise RuntimeError(f"LP solve ended with status {solution.status}")
        values = solution.edge_values
        order = sorted(values, key=lambda e: (-values[e], e))
        counters["lp.rows"] += len(model.rows)
        counters["lp.vars"] += model.num_vars
        counters["lp.nnz"] += sum(len(row.coeffs) for row in model.rows)
        counters["lp.objective_sum"] += solution.objective
    with tr.span("compress.compress_basic"):
        return h.compress_basic(g, pf, order)


def _verify_failures(report) -> list[str]:
    if report.ok:
        return []
    return [f"{len(report.violations)} violation(s); first: {report.violations[0]}"]


class _Workload:
    name = ""
    p = ""

    def __init__(self, h, seed: int, scale: float):
        self.h = h
        self.seed = seed
        self.pf = h.ProportionFunction.parse(self.p)

    def load(self, files, tr) -> None:
        """Set-up after the import: read the input files into graphs."""

    def failed(self, exc: Exception) -> Outcome:
        """A pass that raised: every operation in it failed."""
        message = f"{type(exc).__name__}: {exc}"
        return Outcome([Op(s, w, 0.0, None, w, [message]) for s, w in self.weights().items()], Counter())


class _FileWorkload(_Workload):
    """One edge-list input, compressed once per pass and written back."""

    strategy = ""

    def load(self, files, tr) -> None:
        with tr.span("graph.load_edge_list"):
            with open(files[0], "r", encoding="utf-8") as handle:
                self.g = self.h.load_edge_list(handle)
        self.stats = describe_graph(self.g)
        self.out = Path(files[0]).with_suffix(".out")

    def describe(self) -> dict:
        return {"p": self.p, "strategy": self.strategy, "seed": self.seed, **self.stats}

    def weights(self) -> dict[str, int]:
        """Operations per pass, by strategy."""
        return {self.strategy: 1}

    def _compress(self, tr, counters):
        """The ``cmd_compress`` steps: compress, rebuild, verify, write."""
        h, g, pf = self.h, self.g, self.pf
        counters["graph.deg2_sum"] += self.stats["deg2_sum"]
        counters["graph.max_degree"] = self.stats["max_degree"]
        result = compress_with(h, g, pf, self.strategy, self.seed, None, tr, counters)
        with tr.span("graph.Graph.from_edges"):
            gc = h.Graph.from_edges(g.n, result.kept, labels=g.labels)
        with tr.span("compress.verify"):
            report = h.verify(g, gc, pf)
        with tr.span("graph.write_edge_list"):
            with open(self.out, "w", encoding="utf-8") as handle:
                h.write_edge_list(gc, handle)
        counters["compress.kept"] += gc.m
        return result.kept, gc, report


class CollabAstro(_FileWorkload):
    """Large co-authorship stand-in at p=1/2,1 under the random order."""

    name = "collab-astro"
    strategy = "random"
    p = "1/2,1"

    @staticmethod
    def write_inputs(seed: int, scale: float, workdir: Path) -> list[str]:
        path = workdir / "collab.txt"
        write_edges(path, collab_edges(seed, round(ASTRO_AUTHORS * scale), round(ASTRO_EDGES * scale)))
        return [str(path)]

    def run_pass(self, tr) -> Outcome:
        counters = Counter()
        kept, _, report = self._compress(tr, counters)
        errors = _verify_failures(report)
        op = Op(self.strategy, 1, 1 - len(kept) / self.g.m, kept, len(errors), errors)
        return Outcome([op], counters)


class GnmEcEval(_FileWorkload):
    """Uniform G(3000,30000) at p=0,1/2 under the ec order, then sp-hist."""

    name = "gnm-ec-eval"
    strategy = "ec"
    p = "0,1/2"
    N, M = 3000, 30000

    @classmethod
    def write_inputs(cls, seed: int, scale: float, workdir: Path) -> list[str]:
        path = workdir / "gnm.txt"
        write_edges(path, gnm_edges(seed, round(cls.N * scale), round(cls.M * scale)))
        return [str(path)]

    def run_pass(self, tr) -> Outcome:
        h, g = self.h, self.g
        counters = Counter()
        kept, gc, report = self._compress(tr, counters)
        hists = []
        for graph in (g, gc):
            with tr.span("evaluate.sp_histogram"):
                hists.append(h.sp_histogram(graph))
        errors = _verify_failures(report)
        for graph, hist in zip((g, gc), hists):
            counters["evaluate.sp_pairs"] += sum(hist.lengths.values())
            if hist.total_pairs() != graph.n * (graph.n - 1) // 2 or hist.lengths.get(1, 0) != graph.m:
                errors.append(f"sp_histogram of {graph!r} miscounts pairs: {hist}")
        output = (kept, tuple((hist.lengths, hist.disconnected) for hist in hists))
        op = Op(self.strategy, 1, 1 - len(kept) / g.m, output, len(errors), errors)
        return Outcome([op], counters)


class FamilyG20(_Workload):
    """The ordering comparison on 30 uniform G(20,60) instances at p=0,1/2."""

    name = "family-g20"
    p = "0,1/2"
    STRATEGIES = ("random", "lp", "ec", "sa")

    def __init__(self, h, seed: int, scale: float):
        super().__init__(h, seed, scale)
        # --seed 0 is the family with seed 1000; each seed owns 30 instance seeds
        self.family = h.FamilySpec(count=max(1, round(30 * scale)), n=20, m=60, seed=1000 + 30 * seed)
        self.sa_params = h.SaParams(iterations=max(1, round(1000 * scale)), t0=10.0, alpha=0.99)

    @staticmethod
    def write_inputs(seed: int, scale: float, workdir: Path) -> list[str]:
        return []  # bench_orderings generates its own instances

    def describe(self) -> dict:
        return {
            "family": self.family.describe(),
            "p": self.p,
            "strategies": list(self.STRATEGIES),
            "sa": dataclasses.asdict(self.sa_params),
        }

    def weights(self) -> dict[str, int]:
        return dict.fromkeys(self.STRATEGIES, self.family.count)

    def run_pass(self, tr) -> Outcome:
        if tr.enabled:
            return self._traced_pass(tr)
        report = self.h.bench_orderings(
            self.family, self.pf, self.STRATEGIES, sa_params=self.sa_params, jobs=1
        )
        means = {s.strategy: s.mean_kept for s in report.stats}
        means["random"] = means.pop("basic-random")
        m, count = self.family.m, self.family.count
        ops = [Op(s, count, 1 - means[s] / m, means[s]) for s in self.STRATEGIES]
        return Outcome(ops, Counter())

    def _traced_pass(self, tr) -> Outcome:
        """``_bench_trial`` for every instance, through public calls."""
        h, pf, family = self.h, self.pf, self.family
        counters = Counter()
        kept = {s: [] for s in self.STRATEGIES}
        errors = {s: [] for s in self.STRATEGIES}
        for seed in range(family.seed, family.seed + family.count):
            with tr.span("datagen.gen_gnm"):
                g = h.gen_gnm(family.n, family.m, seed)
            stats = describe_graph(g)
            counters["graph.deg2_sum"] += stats["deg2_sum"]
            counters["graph.max_degree"] = max(counters["graph.max_degree"], stats["max_degree"])
            for s in self.STRATEGIES:
                try:
                    result = compress_with(h, g, pf, s, seed, self.sa_params, tr, counters)
                    with tr.span("graph.Graph.from_edges"):
                        sub = h.Graph.from_edges(g.n, result.kept)
                    with tr.span("compress.verify"):
                        report = h.verify(g, sub, pf)
                except Exception as exc:  # counted as a failed operation
                    errors[s].append(f"seed {seed}: {type(exc).__name__}: {exc}")
                    continue
                errors[s] += [f"seed {seed}: {e}" for e in _verify_failures(report)]
                kept[s].append(len(result.kept))
        counters["compress.kept"] += sum(sum(k) for k in kept.values())
        # SA starts from random_order(g, seed), the order the random strategy scans
        counters["orderings.sa_saved"] += sum(kept["random"]) - sum(kept["sa"])
        ops = []
        for s in self.STRATEGIES:
            mean = sum(kept[s]) / family.count
            ops.append(Op(s, family.count, 1 - mean / family.m, mean, len(errors[s]), errors[s]))
        return Outcome(ops, counters)


WORKLOADS = {w.name: w for w in (CollabAstro, GnmEcEval, FamilyG20)}
