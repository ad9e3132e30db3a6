"""Remos benchmark: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload wan-flow --seed 1 --seconds 20 --trace 0

Workloads: ``lan-topology``, ``wan-flow``, ``wan-churn`` (see
``perfbench/WORKLOADS.md``).  ``--trace 0`` prints every end-to-end
metric; ``--trace 1`` alternates untraced and traced slices and prints
every per-layer metric plus the tracing overhead.  The metric names and
units are the ones ``BENCHMARK.json`` lists.

Human-readable report lines go first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed output check prints ``"correct": false`` and
exits 1.  Default seed: 1.  Held-out seed, not used while the
benchmark or a change measured by it is being written: 7919.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})",
    )
    p.add_argument("--seconds", type=float, default=None,
                   help="measured wall seconds (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no Remos source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from harness import run_workload
    from workloads import WORKLOADS

    spec = load_spec()
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    loop_errors: list[dict] = []

    async def run():
        loop = asyncio.get_running_loop()

        def count_and_log(loop, context):
            # counted for service.http.loop_errors, then logged as usual
            loop_errors.append(context)
            loop.default_exception_handler(context)

        loop.set_exception_handler(count_and_log)
        return await run_workload(workload, args.seed, seconds, bool(args.trace), loop_errors)

    outcome = asyncio.run(run())
    if args.trace:
        # loop errors raised while asyncio.run shut the loop down land
        # after the traced metrics were assembled
        outcome.metrics["service.http.loop_errors"] = (float(len(loop_errors)), "count")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{workload.name}-{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "t0", "t1", "sim_s", "request", "parent_layer"],
                       "spans": outcome.spans}, fh)
        outcome.report.append(f"spans written to {path.relative_to(ROOT)}")
    outcome.report.append(f"loop errors (exception handler calls): {len(loop_errors)}")

    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for line in outcome.report:
        print(line)
    metrics = {}
    for m in wanted:
        value, unit = outcome.metrics[m["name"]]
        if unit != m["unit"]:
            print(f"error: {m['name']} measured in {unit}, BENCHMARK.json says {m['unit']}",
                  file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": unit}
        print(f"{m['name']} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    # keep numpy/BLAS single-threaded: the benchmark is one process on
    # one event loop, and a thread pool would only add scheduler noise
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.exit(main())
