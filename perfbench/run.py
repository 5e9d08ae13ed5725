"""Benchmark of the hopcompress library; run from the root of a checkout.

    python3 perfbench/run.py --workload collab-astro --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from ``--seed`` under ``.perfbench/``,
measures set-up in fresh processes, then runs the workload in one more
process (``worker.py``) for ``--seconds``. With ``--trace 0`` it reports
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer ones from a traced run. Details (environment, input, pass
times, errors) go to the next-to-last stdout line; the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6  # extra fresh processes that only import and load
DEADLINE_S = 170  # the whole run must end within 180 s


def _worker(root: Path, args, mode: str, inputs: list[str], timeout: float, spans: Path | None = None) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--root", str(root),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scale", repr(args.scale),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # subprocess.run kills and reaps the worker if it outlives the timeout
    proc = subprocess.run(cmd + inputs, stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(root: Path, args) -> tuple[dict, dict]:
    """Run the workload; return (details, metric values by name)."""
    begin = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - begin)

    state = root / ".perfbench"
    workdir = state / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = WORKLOADS[args.workload].write_inputs(args.seed, args.scale, workdir)
        setup = []
        if not args.trace:
            setup = [_worker(root, args, "setup", inputs, remaining())["setup_s"] for _ in range(SETUP_PROBES)]
        spans = state / f"spans-{args.workload}-seed{args.seed}.json" if args.trace else None
        run = _worker(root, args, "trace" if args.trace else "run", inputs, remaining(), spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup.append(run["setup_s"])
    details = {k: v for k, v in run.items() if k != "layers"}
    details.update(workload=args.workload, seed=args.seed, scale=args.scale, setup_samples=setup)
    if args.trace:
        details["spans_file"] = str(spans.relative_to(root))
        return details, run["layers"]
    untraced = [p["seconds"] for p in run["passes"]]
    return details, {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(untraced),
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_rate": (run["attempted"] - run["failed"]) / run["attempted"],
        "compression_ratio": run["compression_ratio"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure passes for this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink the inputs, for the smoke test (0.01..1)")
    args = parser.parse_args(argv)
    if not 0.01 <= args.scale <= 1:
        parser.error("--scale must be within 0.01..1")
    root = HERE.parent
    if not (root / "src" / "hopcompress" / "__init__.py").is_file():
        print(f"{root} holds no src/hopcompress; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        details, values = measure(root, args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark does not measure {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:<26} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    for error in details["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
