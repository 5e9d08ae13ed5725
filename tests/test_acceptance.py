"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success). Criterion 8 needs external datasets and is skipped unless
``HOPCOMPRESS_DATASET_DIR`` points at a directory holding them.
"""

import math
import os
import random
import time
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from hopcompress import (
    Graph,
    ProportionFunction,
    SaParams,
    builtin,
    build_lp,
    compress_basic,
    compression_ratio,
    exact_minimum,
    gen_gnm,
    load_edge_list,
    random_order,
    run_strategy,
    solve_lp,
    sp_histogram,
    stretch_check,
    verify,
)

from conftest import oracle_distances, oracle_minimum


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_instance(rng, max_n=40):
    n = rng.randint(5, max_n)
    m = rng.randint(0, min(n * (n - 1) // 2, 3 * n))
    return gen_gnm(n, m, seed=rng.randrange(2**30))


def test_criterion_1_soundness_suite():
    rng = random.Random(20240)
    failures = []
    start = time.perf_counter()
    for i in range(200):
        g = random_instance(rng)
        t = rng.randint(1, 3)
        props = tuple(sorted(Fraction(rng.randint(0, 4), 4) for _ in range(t)))
        pf = ProportionFunction(props)
        strategies = ["basic-random", "ec", "sa"]
        if g.m <= 100:
            strategies.append("lp")
        for strategy in strategies:
            result = run_strategy(
                g, pf, strategy, seed=i, sa_params=SaParams(iterations=100)
            )
            if not verify(g, result.subgraph(), pf).ok:
                failures.append((i, strategy, "verification"))
            if Fraction(result.kept_count()) < pf.props[0] * g.m:
                failures.append((i, strategy, "kept-edge lower bound"))
    elapsed = time.perf_counter() - start
    report(
        1,
        not failures,
        f"200 instances x 4 strategies sound in {elapsed:.1f}s"
        if not failures
        else f"failures: {failures[:5]}",
    )


def test_criterion_2_spanner_property():
    rng = random.Random(20241)
    bad = []
    for i in range(50):
        t = 2 if i % 2 == 0 else 3
        pf = ProportionFunction(tuple([Fraction(0)] * (t - 1) + [Fraction(1)]))
        g = random_instance(rng, max_n=34)
        result = compress_basic(g, pf, random_order(g, seed=i))
        gc = result.subgraph()
        removed = stretch_check(g, gc, t)
        if not removed.ok:
            bad.append((i, "removed edge", removed.max_stretch))
        if g.n <= 30:
            for u in range(g.n):
                dg = oracle_distances(g, u)
                dc = oracle_distances(gc, u)
                for v, d in dg.items():
                    if dc.get(v, math.inf) > t * d:
                        bad.append((i, "pair stretch", (u, v)))
    report(2, not bad, "50 instances, removed edges and all pairs within stretch t"
           if not bad else f"violations: {bad[:5]}")


def test_criterion_3_oracle_agreement():
    diamond_best, _ = exact_minimum(builtin("diamond"), ProportionFunction.parse("1/2,1"))
    triangle_best, _ = exact_minimum(builtin("triangle"), ProportionFunction.parse("0,1"))
    problems = []
    if diamond_best != 3:
        problems.append(f"diamond oracle {diamond_best} != 3")
    if triangle_best != 2:
        problems.append(f"triangle oracle {triangle_best} != 2")

    graphs = [
        builtin("diamond"),
        builtin("triangle"),
        builtin("path3"),
        builtin("star4"),
        gen_gnm(5, 8, 0),
        gen_gnm(6, 10, 1),
        gen_gnm(7, 12, 2),
        gen_gnm(6, 12, 3),
    ]
    grid = ["0,0", "0,1/2", "0,1", "1/2,1/2", "1/2,1", "1,1"]
    for g in graphs:
        assert g.m <= 12
        for text in grid:
            pf = ProportionFunction.parse(text)
            best, witness = exact_minimum(g, pf)
            if best != oracle_minimum(g, pf) or not verify(g, witness, pf).ok:
                problems.append(f"exact minimum {best} wrong on {g} pf={text}")
            for strategy in ("basic-random", "lp", "ec", "sa"):
                result = run_strategy(
                    g, pf, strategy, seed=0, sa_params=SaParams(iterations=60)
                )
                if result.kept_count() < best:
                    problems.append(f"{strategy} beat the oracle on {g} pf={text}")
    report(3, not problems, "diamond=3, triangle=2, all strategies >= oracle on pf grid"
           if not problems else "; ".join(problems[:5]))


def test_criterion_4_ordering_trends():
    from hopcompress import FamilySpec, bench_orderings

    family = FamilySpec(count=30, n=20, m=60, seed=1000)
    pf = ProportionFunction.parse("0,1/2")
    bench = bench_orderings(
        family,
        pf,
        ["basic", "lp", "ec", "sa"],
        sa_params=SaParams(iterations=1000, t0=10.0, alpha=0.99),
    )
    stats = {s.strategy: s for s in bench.stats}
    basic = stats["basic-random"]
    problems = []
    if not 28 * 0.85 <= basic.mean_kept <= 28 * 1.15:
        problems.append(f"basic mean {basic.mean_kept:.2f} outside 28 +/- 15%")
    for name in ("ec", "sa", "lp"):
        if stats[name].mean_kept > basic.mean_kept:
            problems.append(f"{name} mean {stats[name].mean_kept:.2f} above basic")
    for name in ("ec", "sa", "lp"):
        if stats[name].mean_seconds < basic.mean_seconds:
            problems.append(f"{name} ran faster than basic")
    detail = ", ".join(
        f"{s.strategy}={s.mean_kept:.2f}" for s in bench.stats
    )
    report(4, not problems, f"means: {detail}" if not problems else "; ".join(problems))


def test_criterion_5_zachary_reproduction():
    g = builtin("zachary")
    pf = ProportionFunction.parse("1/2,1")
    ratios = []
    for seed in range(20):
        result = compress_basic(g, pf, random_order(g, seed))
        ratios.append(compression_ratio(g, result.subgraph()))
    mean = sum(ratios) / len(ratios)
    ok = Fraction(1, 5) <= mean <= Fraction(2, 5)
    report(5, ok, f"mean compression ratio {float(mean):.3f} over 20 seeds")


def test_criterion_6_diamond_order_space():
    g = builtin("diamond")
    pf = ProportionFunction.parse("1/2,1")
    best = min(
        compress_basic(g, pf, list(order)).kept_count()
        for order in permutations(g.edges())
    )
    report(6, best == 3, f"minimum over all 120 edge orders = {best}")


def test_criterion_7_lp_sanity():
    single = Graph.from_edges(2, [(0, 1)])
    solution = solve_lp(build_lp(single, ProportionFunction.parse("1")))
    problems = []
    if abs(solution.edge_values[(0, 1)] - 1) > 1e-7:
        problems.append(f"single-edge x = {solution.edge_values[(0, 1)]}")

    graphs = [
        builtin("diamond"),
        builtin("triangle"),
        builtin("path3"),
        builtin("star4"),
        gen_gnm(5, 8, 0),
        gen_gnm(6, 10, 1),
        gen_gnm(5, 10, 4),
    ]
    for g in graphs:
        assert g.m <= 10
        for text in ("0,1", "1/2,1", "1,1"):
            pf = ProportionFunction.parse(text)
            lp = solve_lp(build_lp(g, pf))
            best = oracle_minimum(g, pf)
            if exact_minimum(g, pf)[0] != best:
                problems.append(f"exact minimum differs from the oracle {best} on {g} pf={text}")
            if lp.objective > best + 1e-7:
                problems.append(f"LP {lp.objective:.6f} above oracle {best} on {g} pf={text}")
    report(7, not problems, "x_e = 1 on the single edge; LP below oracle everywhere"
           if not problems else "; ".join(problems[:5]))


DATASET_DIR = os.environ.get("HOPCOMPRESS_DATASET_DIR")


def _dataset(name):
    if not DATASET_DIR:
        return None
    path = Path(DATASET_DIR) / name
    return path if path.exists() else None


@pytest.mark.skipif(
    not (_dataset("ca-AstroPh.txt") and _dataset("ca-HepTh.txt")),
    reason="set HOPCOMPRESS_DATASET_DIR to a directory with ca-AstroPh.txt "
    "and ca-HepTh.txt (SNAP edge lists) to run the extended criterion",
)
def test_criterion_8_extended_real_datasets():
    pf = ProportionFunction.parse("0.5,1.0")

    with open(_dataset("ca-AstroPh.txt"), encoding="utf-8") as handle:
        astro = load_edge_list(handle)
    result = compress_basic(astro, pf, random_order(astro, 0))
    ratio = float(compression_ratio(astro, result.subgraph()))
    ok_ratio = abs(ratio - 0.4582) <= 0.05

    with open(_dataset("ca-HepTh.txt"), encoding="utf-8") as handle:
        hep = load_edge_list(handle)
    hep_result = compress_basic(hep, pf, random_order(hep, 0))
    t0 = time.perf_counter()
    sp_histogram(hep)
    full = time.perf_counter() - t0
    t0 = time.perf_counter()
    sp_histogram(hep_result.subgraph())
    compressed = time.perf_counter() - t0
    speedup = full / compressed
    report(
        8,
        ok_ratio and speedup >= 1.0,
        f"astro ratio {ratio:.4f} (target 0.4582 +/- 0.05), "
        f"hep all-pairs BFS speed-up {speedup:.3f}",
    )
