"""fpminpoly benchmark: run a workload, check every output, print its figures.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dense-p3 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 [--out FILE]

Each workload runs in its own fresh child process (perfbench/worker.py),
one at a time, driven in a closed loop by a single client.  Set-up time is
measured apart from it: fresh processes, before the worker and after it,
each import fpminpoly, build the CLI parser and send one warm-up request.
``setup_s`` is the median of their times in reference seconds (see
workloads.REFERENCE_S), ``setup_wall_s`` the median of their wall times.  ``peak_rss_mb`` is the worker's ``ru_maxrss``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Every figure the workload has, the ones BENCHMARK.json does
not list included, goes to standard error.  With ``--workload all`` the
metrics of every workload are printed, keyed ``<workload>/<metric>``.  The
exit code is 1 when any output check failed and 2 when the benchmark
cannot run, for instance outside a checkout that holds ``src/fpminpoly``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")
#: Set-up probes run before the worker and as many again after it, so their
#: median spans the run instead of one moment of a host whose speed drifts.
SETUP_PROBES = 4
#: Seconds a worker may run past its measuring time before it is killed.
WORKER_GRACE = 120

#: One set-up probe.  After the set-up it times the reference loop in the
#: same process, so the two see the same host speed, and it prints that
#: time and how long everything after the set-up took.
PROBE = """\
import contextlib, io, sys, time
import fpminpoly.cli as cli
cli.build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
done = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from workloads import ReferenceClock
reference = ReferenceClock(reps=5).sample()
print(reference, time.perf_counter() - done)
sys.exit(code)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("FPMINPOLY_MAX_TABLE_SIZE", None)
    return env


def setup_probes(workload: str) -> list[tuple[float, float] | None]:
    """Fresh-process set-up probes: (set-up wall seconds, reference seconds)
    for each, None for a probe that failed."""
    out = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE, HERE, *workloads.WARMUP_ARGV[workload]],
                              env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=60)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            out.append(None)
            continue
        reference, after = map(float, proc.stdout.split())
        out.append((wall - after, reference))
    return out


def run_worker(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict | None, float]:
    """Run the worker; return its result (None if it failed) and its peak RSS in MiB."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE)
    watchdog = threading.Timer(seconds + WORKER_GRACE, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, rss_mb
    return json.loads(lines[-1]), rss_mb


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    probes = setup_probes(workload)
    result, rss_mb = run_worker(workload, seed, seconds, trace)
    if result is None:
        raise RuntimeError(f"the {workload} worker exited without a result")
    probes += setup_probes(workload)
    ok = [t for t in probes if t is not None]
    if not ok:
        raise RuntimeError(f"every {workload} set-up probe failed")
    result["attempted"] += len(probes)
    result["failed"] += len(probes) - len(ok)
    metrics = result["metrics"]
    metrics["setup_s"] = {"value": statistics.median(t / ref for t, ref in ok)
                          * workloads.REFERENCE_S, "unit": "s"}
    metrics["setup_wall_s"] = {"value": statistics.median(t for t, _ref in ok), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MiB"}
    metrics["fail_rate"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
    return result


def describe(result: dict) -> str:
    lines = [f"{result['workload']} seed={result['seed']} passes={result['passes']} "
             f"attempted={result['attempted']} failed={result['failed']}"]
    for section in ("metrics", "per_layer"):
        for name, m in result.get(section, {}).items():
            lines.append(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    lines.extend(f"  FAILED {message}" for message in result["failures"])
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fpminpoly benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every figure of the run to this JSON file")
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print(describe(result), file=sys.stderr)

    section = "per_layer" if args.trace else "metrics"
    picked = {}
    for result in results:
        figures = result[section]
        keys = figures if args.trace else END_TO_END
        prefix = "" if len(results) == 1 else result["workload"] + "/"
        picked.update({prefix + key: figures[key] for key in keys})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seconds": args.seconds, "trace": args.trace, "results": results},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": picked}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # The benchmark measures the checkout's sources, never an installed copy.
    if not os.path.isfile(os.path.join(SRC, "fpminpoly", "__init__.py")):
        print(f"perfbench: no fpminpoly sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import workloads
    sys.exit(main())
