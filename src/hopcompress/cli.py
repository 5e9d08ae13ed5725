"""Command-line interface: gen, compress, verify, eval, bench.

Exit codes: 0 success, 1 invalid configuration or a size guard, 2 I/O
failure, 3 internal self-check failure (a bug), 4 verification found
violations.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import warnings
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, TextIO

from .compress import ProportionFunction, verify
from .datagen import BUILTIN_NAMES, FamilySpec, builtin, gnm_pairs
from .errors import EdgeListFormatError, HopCompressError, UnsoundOutputError
from .evaluate import bench_orderings, compression_ratio, sp_histogram, stretch_check
from .graph import Graph, canonical_edge, load_edge_list, write_edge_list
from .orderings import STRATEGIES, SaParams, run_strategy

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_INTERNAL = 3
EXIT_VIOLATION = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # invalid flags/values: exit 1, as argparse's 2 is EXIT_IO
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _ForeignEdgeError(CliError):
    """An edge of a compressed file that the original graph lacks."""

    def __init__(self, message: str):
        super().__init__(message, EXIT_CONFIG)


def _load_graph(path: str) -> Graph:
    """The builtin graph or edge-list file named ``path``; each of the
    loader's warnings prints as one ``warning: <path>: ...`` line on stderr."""
    if path in BUILTIN_NAMES:
        return builtin(path)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with open(path, "r", encoding="utf-8") as handle:
                g = load_edge_list(handle)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from exc
    except (EdgeListFormatError, UnicodeDecodeError) as exc:
        raise CliError(f"{path}: {exc}", EXIT_CONFIG) from exc
    for warning in caught:
        print(f"warning: {path}: {warning.message}", file=sys.stderr)
    return g


def _load_onto(g: Graph, path: str) -> Graph:
    """The graph at ``path`` on ``g``'s vertex ids, matched by label.

    A compressed file names only the vertices its kept edges touch, so
    its own dense ids are not ``g``'s. An edge that ``g`` lacks raises
    :class:`_ForeignEdgeError` naming it by labels, first in canonical
    order.
    """
    raw = _load_graph(path)
    dense = {label: i for i, label in enumerate(g.labels or range(g.n))}
    labels = raw.labels or range(raw.n)
    edges = []
    for u, v in raw.edges():
        lu, lv = labels[u], labels[v]
        if lu not in dense or lv not in dense:
            raise _ForeignEdgeError(f"edge ({lu}, {lv}) uses a vertex absent from the original")
        if not g.has_edge(dense[lu], dense[lv]):
            raise _ForeignEdgeError(f"edge ({lu}, {lv}) is not present in the original graph")
        edges.append(canonical_edge(dense[lu], dense[lv]))
    return Graph.from_edges(g.n, edges, labels=g.labels)


def _integer(text: str) -> int:
    """An integer option's value: ASCII digits after an optional ``-``.
    ``int()`` alone also takes ``+2``, ``1_0``, `` 1`` and non-ASCII digits."""
    digits = text.removeprefix("-")
    try:
        if digits.isdigit() and digits.isascii():
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _family(text: str) -> list[int]:
    """``--family N,M,COUNT`` as three :func:`_integer` fields."""
    fields = text.split(",")
    if len(fields) != 3:
        raise argparse.ArgumentTypeError(f"expected N,M,COUNT, got {text!r}")
    return [_integer(field) for field in fields]


def _parse_pf(text: str) -> ProportionFunction:
    try:
        return ProportionFunction.parse(text)
    except ValueError as exc:
        raise CliError(f"invalid --p value {text!r}: {exc}", EXIT_CONFIG) from exc


def _sa_params(args) -> SaParams:
    """The annealing schedule; ``run_strategy`` seeds it with ``--seed``."""
    try:
        return SaParams(iterations=args.sa_iters, t0=args.sa_t0, alpha=args.sa_alpha)
    except ValueError as exc:
        raise CliError(f"invalid SA parameters: {exc}", EXIT_CONFIG) from exc


def _write(path: str | Path, fill: Callable[[TextIO], object]) -> None:
    """Open ``path`` for text and let ``fill`` write to it; an I/O failure
    is a :class:`CliError` with exit code 2."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            fill(handle)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO) from exc


def cmd_compress(args) -> int:
    pf = _parse_pf(args.p)
    g = _load_graph(args.input)
    sa = _sa_params(args)
    result = run_strategy(g, pf, args.ordering, seed=args.seed, sa_params=sa)
    gc = Graph.from_edges(g.n, result.kept, labels=g.labels)
    report = verify(g, gc, pf)
    if not report.ok:
        first = report.violations[0]
        first = dataclasses.replace(first, vertex=(g.labels or range(g.n))[first.vertex])
        raise UnsoundOutputError(f"output fails verification ({first})")

    if args.output:
        _write(args.output, partial(write_edge_list, gc))

    ratio = Fraction(g.m - gc.m, g.m) if g.m else Fraction(0)
    payload = {
        "input": args.input,
        "n": g.n,
        "m": g.m,
        "kept": gc.m,
        "ratio": float(ratio),
        "ratio_exact": str(ratio),
        "p": str(pf),
        "t": pf.t,
        "strategy": result.strategy,
        "seed": result.seed,
        "seconds": result.seconds,
        "verified": report.ok,
    }
    if result.lp_iterations is not None:
        payload["lp_iterations"] = result.lp_iterations
    text = json.dumps(payload, indent=2) + "\n"
    if args.report:
        _write(args.report, lambda handle: handle.write(text))
    print(text, end="")
    return EXIT_OK


def cmd_verify(args) -> int:
    pf = _parse_pf(args.p)
    g = _load_graph(args.original)
    try:
        gc = _load_onto(g, args.compressed)
    except _ForeignEdgeError as exc:
        print(exc)
        return EXIT_VIOLATION
    report = verify(g, gc, pf)
    if report.ok:
        print("ok")
        return EXIT_OK
    g_labels = g.labels or range(g.n)
    for violation in report.violations:
        label = g_labels[violation.vertex]
        print(
            f"violation: vertex {label} level {violation.level}: "
            f"{violation.achieved} reachable, needs {violation.required}"
        )
    return EXIT_VIOLATION


def cmd_gen(args) -> int:
    try:
        spec = FamilySpec(count=args.count, n=args.n, m=args.m, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_CONFIG) from exc
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create {outdir}: {exc}", EXIT_IO) from exc
    for i in range(spec.count):
        lines = [f"{u} {v}\n" for u, v in gnm_pairs(spec.n, spec.m, spec.seed + i)]
        _write(outdir / f"gnm_n{spec.n}_m{spec.m}_{i:03d}.txt", lambda handle: handle.writelines(lines))
    print(f"wrote {spec.count} instance(s) to {outdir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    g = _load_graph(args.graph)
    gc = None if args.compressed is None else _load_onto(g, args.compressed)
    if args.metric == "sp-hist":
        start = time.perf_counter()
        hist_g = sp_histogram(g)
        secs_g = time.perf_counter() - start
        if gc is None:
            print(f"{'length':>8} {'pairs':>12}")
            for length, count in hist_g.lengths.items():
                print(f"{length:>8} {count:>12}")
            print(f"{'disc':>8} {hist_g.disconnected:>12}")
            print(f"bfs seconds: {secs_g:.6f}")
            return EXIT_OK
        start = time.perf_counter()
        hist_c = sp_histogram(gc)
        secs_c = time.perf_counter() - start
        all_lengths = sorted(set(hist_g.lengths) | set(hist_c.lengths))
        print(f"{'length':>8} {'original':>12} {'compressed':>12}")
        for length in all_lengths:
            print(
                f"{length:>8} {hist_g.lengths.get(length, 0):>12} "
                f"{hist_c.lengths.get(length, 0):>12}"
            )
        print(f"{'disc':>8} {hist_g.disconnected:>12} {hist_c.disconnected:>12}")
        speedup = secs_g / secs_c if secs_c > 0 else float("inf")
        print(f"bfs seconds: original {secs_g:.6f}, compressed {secs_c:.6f}, speed-up {speedup:.3f}")
        return EXIT_OK
    try:
        if args.metric == "stretch":
            report = stretch_check(g, gc, args.t)
            print(f"ok: {report.ok}  max stretch: {report.max_stretch}")
            return EXIT_OK if report.ok else EXIT_VIOLATION
        ratio = compression_ratio(g, gc)
        print(f"{float(ratio):.4f} ({ratio})")
        return EXIT_OK
    except ValueError as exc:  # t < 1, or an edgeless original
        raise CliError(str(exc), EXIT_CONFIG) from exc


def cmd_bench(args) -> int:
    pf = _parse_pf(args.p)
    n, m, count = args.family
    try:
        family = FamilySpec(count=count, n=n, m=m, seed=args.seed)
    except ValueError as exc:
        raise CliError(f"invalid --family value '{n},{m},{count}': {exc}", EXIT_CONFIG) from exc
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    sa = _sa_params(args)
    try:
        report = bench_orderings(family, pf, strategies, sa_params=sa, jobs=args.jobs)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_CONFIG) from exc
    print(report.format_table(), end="")
    if args.report:
        _write(args.report, lambda handle: handle.write(report.to_json()))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hopcompress", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compress = sub.add_parser("compress", help="compress a graph", add_help=True)
    p_compress.add_argument("input", help="edge-list file or builtin name")
    p_compress.add_argument("--p", required=True, help='proportions, e.g. "0.5,1" or "1/2,1"')
    p_compress.add_argument("--ordering", default="random", choices=list(STRATEGIES))
    p_compress.add_argument("--seed", type=_integer, default=0)
    p_compress.add_argument("-o", "--output", help="write the kept edge list here")
    p_compress.add_argument("--report", help="write the JSON run report here")
    _add_sa_flags(p_compress)
    p_compress.set_defaults(func=cmd_compress)

    p_verify = sub.add_parser("verify", help="check a compressed graph")
    p_verify.add_argument("original")
    p_verify.add_argument("compressed")
    p_verify.add_argument("--p", required=True)
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate random instances")
    p_gen.add_argument("outdir")
    p_gen.add_argument("--n", type=_integer, required=True)
    p_gen.add_argument("--m", type=_integer, required=True)
    p_gen.add_argument("--count", type=_integer, default=1)
    p_gen.add_argument("--seed", type=_integer, default=0)
    p_gen.set_defaults(func=cmd_gen)

    p_eval = sub.add_parser("eval", help="graph metrics")
    eval_sub = p_eval.add_subparsers(dest="metric", required=True)
    p_hist = eval_sub.add_parser("sp-hist", help="shortest-path length histogram")
    p_hist.add_argument("graph")
    p_hist.add_argument("compressed", nargs="?")
    p_hist.set_defaults(func=cmd_eval)
    p_stretch = eval_sub.add_parser("stretch", help="removed-edge detour check")
    p_stretch.add_argument("graph")
    p_stretch.add_argument("compressed")
    p_stretch.add_argument("--t", type=_integer, required=True)
    p_stretch.set_defaults(func=cmd_eval)
    p_ratio = eval_sub.add_parser("ratio", help="deleted-edge fraction")
    p_ratio.add_argument("graph")
    p_ratio.add_argument("compressed")
    p_ratio.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="compare ordering strategies")
    p_bench.add_argument("--family", required=True, type=_family, help="N,M,COUNT")
    p_bench.add_argument("--p", required=True)
    p_bench.add_argument("--strategies", default="basic,lp,ec,sa")
    p_bench.add_argument("--seed", type=_integer, default=0)
    p_bench.add_argument("--jobs", type=_integer, default=1, help="worker processes (default 1)")
    p_bench.add_argument("--report", help="write the JSON report here")
    _add_sa_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def _add_sa_flags(parser) -> None:
    defaults = SaParams()
    parser.add_argument("--sa-iters", type=_integer, default=defaults.iterations)
    parser.add_argument("--sa-t0", type=float, default=defaults.t0)
    parser.add_argument("--sa-alpha", type=float, default=defaults.alpha)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except HopCompressError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnsoundOutputError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
