"""One measured process of the benchmark; started by ``run.py``.

It imports ``hopcompress`` from ``<root>/src``, loads the workload's input
files, and with ``--mode setup`` stops there. With ``--mode run`` it
repeats untraced passes for ``--seconds``; with ``--mode trace`` it makes
one untraced pass and then traced passes for the rest of the time. It
prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import NullTracer, Tracer
from workloads import COUNTERS, WORKLOADS

# per-layer time metric -> span whose self time it reports
LAYER_SPANS = {
    "graph.from_edges_s": "graph.Graph.from_edges",
    "graph.write_s": "graph.write_edge_list",
    "compress.scan_s": "compress.compress_basic",
    "compress.verify_s": "compress.verify",
    "orderings.random_s": "orderings.random_order",
    "orderings.ec_s": "orderings.ec_order",
    "orderings.sa_s": "orderings.sa_compress",
    "evaluate.sp_hist_s": "evaluate.sp_histogram",
    "lp.build_s": "lp.build_lp",
    "lp.solve_s": "lp.solve_lp",
    "datagen.gen_s": "datagen.gen_gnm",
}
SETUP_PASS = 0  # spans recorded while loading carry this pass id


def _canonical(x):
    if isinstance(x, (set, frozenset)):
        return tuple(sorted(x))
    if isinstance(x, dict):
        return tuple(sorted((k, _canonical(v)) for k, v in x.items()))
    if isinstance(x, (tuple, list)):
        return tuple(_canonical(v) for v in x)
    return x


class Ledger:
    """Counts operations and failures; compares each output to the first pass's."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._first: dict[str, str] = {}

    def add(self, outcome) -> None:
        for op in outcome.ops:
            digest = hashlib.sha256(repr(_canonical(op.output)).encode()).hexdigest()
            failed, errors = op.failed, list(op.errors)
            if self._first.setdefault(op.strategy, digest) != digest:
                failed = op.weight
                errors.append("output differs from the first pass")
            self.attempted += op.weight
            self.failed += failed
            self.errors += [f"{op.strategy}: {e}" for e in errors]


def environment() -> dict:
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        # the simplex runs its numba kernel when numba imports, numpy otherwise
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, help="checkout that holds src/hopcompress")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spans", help="file the traced spans are written to")
    parser.add_argument("inputs", nargs="*")
    args = parser.parse_args(argv)

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import hopcompress

    import_s = time.perf_counter() - start
    if src not in Path(hopcompress.__file__).resolve().parents:
        print(f"imported hopcompress from {hopcompress.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.mode == "trace" else NullTracer()
    tracer.pass_id = SETUP_PASS
    workload = WORKLOADS[args.workload](hopcompress, args.seed, args.scale)
    start = time.perf_counter()
    workload.load(args.inputs, tracer)
    load_s = time.perf_counter() - start
    result = {"setup_s": import_s + load_s, "import_s": import_s, "load_s": load_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    ledger = Ledger()
    outcomes = []
    passes = []  # (traced, seconds)
    begin = time.perf_counter()
    while True:
        traced = args.mode == "trace" and bool(passes)
        tr = tracer if traced else NullTracer()
        tr.pass_id = len(passes) + 1
        start = time.perf_counter()
        try:
            with tr.span("bench.pass"):
                outcome = workload.run_pass(tr)
        except Exception as exc:  # counted as failed operations, never silent
            traceback.print_exc()
            outcome = workload.failed(exc)
        seconds = time.perf_counter() - start
        passes.append((traced, seconds))
        outcomes.append((traced, outcome))
        ledger.add(outcome)
        if args.mode == "trace" and not traced:
            continue  # a traced pass always follows the untraced one
        if time.perf_counter() - begin + seconds > args.seconds:
            break

    first = outcomes[0][1]
    weight = sum(op.weight for op in first.ops)
    result.update(
        env=environment(),
        input=workload.describe(),
        passes=[{"traced": t, "seconds": s} for t, s in passes],
        attempted=ledger.attempted,
        failed=ledger.failed,
        errors=ledger.errors[:20],
        ratios={op.strategy: op.ratio for op in first.ops},
        compression_ratio=sum(op.ratio * op.weight for op in first.ops) / weight,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if args.mode == "trace":
        result["layers"] = layer_metrics(tracer, passes, outcomes)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


def layer_metrics(tracer: Tracer, passes, outcomes) -> dict[str, float]:
    """Per-layer self times (median over traced passes), counters and ratios."""
    traced_ids = [i for i, (traced, _) in enumerate(passes, start=1) if traced]
    self_times = [tracer.self_seconds(i) for i in traced_ids]
    layers = {
        name: statistics.median(t.get(span, 0.0) for t in self_times)
        for name, span in LAYER_SPANS.items()
    }
    layers["graph.load_s"] = tracer.self_seconds(SETUP_PASS).get("graph.load_edge_list", 0.0)
    traced_outcome = next(o for traced, o in outcomes if traced)
    layers.update({name: traced_outcome.counters.get(name, 0) for name in COUNTERS})
    ratios = {op.strategy: op.ratio for op in traced_outcome.ops}
    for strategy in ("random", "ec", "lp", "sa"):
        layers[f"compress.ratio.{strategy}"] = ratios.get(strategy, 0.0)
    layers["trace.overhead_s"] = statistics.median(
        s for traced, s in passes if traced
    ) - statistics.median(s for traced, s in passes if not traced)
    return layers


if __name__ == "__main__":
    sys.exit(main())
