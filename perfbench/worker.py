"""Run one workload in this process and print its figures as one JSON line.

Started by run.py in a fresh child process with ``src`` on PYTHONPATH, so
that the child's peak RSS belongs to this workload alone.  Usage::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

The first pass warms caches and is not timed.  Timed passes follow until
the time is spent.  With ``--trace 1`` untraced and traced passes
alternate: the untraced ones give the end-to-end figures, the traced ones
the per-layer figures, and the difference of their median wall times is
the tracing overhead.  Every pass's outputs are checked either way.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDENS = os.path.join(ROOT, "tests", "data", "cost_goldens.json")
#: Spans and scratch files go here, inside the checkout.
OUT_DIR = os.path.join(ROOT, ".perfbench")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    main = workloads.requests(workload, seed)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        with open(GOLDENS) as handle:
            goldens = json.load(handle)
        runner = workloads.Runner(workdir, goldens)
        runner.prepare([*main, *workloads.COVERAGE])
        runner.run_pass(main)  # warm-up

        plain: list[workloads.PassResult] = []
        traced: list[workloads.PassResult] = []
        tr = tracer.Tracer()
        start = time.perf_counter()
        while True:
            plain.append(runner.run_pass(main))
            if trace:
                restore = tracer.install(tr)
                try:
                    traced.append(runner.run_pass(main))
                finally:
                    restore()
            elapsed = time.perf_counter() - start
            step = elapsed / len(plain)
            if elapsed + step > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {"workload": workload, "seed": seed, "attempted": runner.attempted,
           "failed": runner.failed, "failures": runner.failures, "passes": len(plain),
           "metrics": {name: {"value": value, "unit": unit} for name, (value, unit)
                       in workloads.end_to_end(workload, plain).items()}}
    if trace:
        totals = tracer.layer_totals(tr.spans, tr.counts)
        layers = {name: totals[name] / len(traced) for name in totals}
        layers.update(workloads.circuit_costs(traced[0].stats_rows))
        layers["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                      - statistics.median(r.wall for r in plain))
        layers["trace.spans"] = len(tr.spans) / len(traced)
        out["per_layer"] = {name: {"value": layers[name], "unit": unit}
                            for name, unit in tracer.LAYER_METRICS}
        tr.write(os.path.join(OUT_DIR, f"spans-{workload}.jsonl"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
