"""Seeded request lists for the four workloads, and the checked runner.

A workload is a list of requests made from the seed alone; the program
sees only those requests.  One pass runs the workload's main requests in
the seeded order, then the same small coverage tail, which touches every
traced layer once so that no per-layer figure is a constant zero.  The
tail's latencies stay out of the request percentiles.

Every workload runs a fixed multiset of operations and lets the seed set
their order (and, for eval, the point, the strategy and CSE), so pass times
compare across seeds.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
import io
import json
import os
import random
import statistics
import time

from fpminpoly import circuit, cli, formulas

WORKLOADS = ("dense-p3", "dense-p2", "circuit-stats", "catalog-requests")
STRATEGIES = ("naive_monomial", "nested_horner")

#: verify cases of the general-p constructors (p in {3, 5}, p^n near 3^9).
DENSE_P3 = (("max", 3, 9, 0), ("argmax", 3, 9, 0), ("nummax0", 3, 9, 0),
            ("max", 5, 6, 0))

#: verify cases of the p = 2 forms at arity 16 and 17.
DENSE_P2 = (("max2", 2, 17, 0), ("argmax2", 2, 16, 1), ("nummax2", 2, 17, 1),
            ("ismax2bit", 2, 7, 0), ("argmax2sel", 2, 15, 1))

#: Cases whose tables are small but whose naive lowering is large, plus the
#: three cases anchored in tests/data/cost_goldens.json.
CIRCUIT_CASES = (("max2", 2, 14, 0), ("argmax2", 2, 14, 1), ("max", 3, 6, 0),
                 ("argmax", 3, 6, 0), ("ismax3", 3, 5, 0), ("max", 5, 4, 0),
                 ("carry", 13, 2, 0), ("maxn2", 13, 2, 0),
                 ("max2", 2, 8, 0), ("argmax3n3", 3, 3, 0), ("maxn2", 7, 2, 0))

#: Golden label -> (func, p, n, r) of the nested_horner + CSE anchors.
GOLDEN_CASES = {"max_p2_8": ("max2", 2, 8, 0), "argmax_p3_n3": ("argmax3n3", 3, 3, 0),
                "max_n2_7": ("maxn2", 7, 2, 0)}

#: catalog-requests runs these kinds on every grid entry, plus one list
#: request per LIST_EVERY operations.
CATALOG_KINDS = ("gen-pair", "verify", "verify-file", "stats", "eval", "eval")
LIST_EVERY = 40

#: Request kinds whose summed time per pass is reported as ``<kind>_s``.
PHASES = {"dense-p3": ("verify",), "dense-p2": ("verify",),
          "circuit-stats": ("stats", "preserve")}

#: The small request each set-up probe sends after building the parser.
WARMUP_ARGV = {
    "dense-p3": ["verify", "--func", "max", "--p", "3", "--n", "3"],
    "dense-p2": ["verify", "--func", "max2", "--p", "2", "--n", "4"],
    "circuit-stats": ["stats", "--func", "max2", "--p", "2", "--n", "4"],
    "catalog-requests": ["list"],
}


def _grid(ps, ns, rs=(0,)):
    return [(p, n, r) for p in ps for n in ns for r in rs]


#: A frozen copy of every catalog entry's verify_grid, so that a change to
#: the catalog does not silently change this workload.
CATALOG_GRID = {
    "max": _grid((2, 3), (1, 2, 3)), "max2": _grid((2,), range(1, 7)),
    "min2": _grid((2,), range(1, 7)), "max3": _grid((3,), range(1, 5)),
    "min3": _grid((3,), range(1, 5)), "max5": _grid((5,), (2, 3)),
    "maxn2": _grid((3, 5, 7), (2,)), "argmax": _grid((2, 3), (1, 2, 3), (0, 1)),
    "argmax2": _grid((2,), range(1, 9), (0, 1, 2)),
    "argmax2sel": _grid((2,), range(1, 8), (0, 1, 2)),
    "argmax3n3": [(3, 3, 0)],
    "argmax0": _grid((2, 3, 5, 7), (2,)) + _grid((2, 3), (3,)),
    "carry": _grid((2, 3, 5, 7, 11), (2,)), "ismax": _grid((2, 3), (1, 2)),
    "ismax2": _grid((2,), range(1, 7)), "ismax3": _grid((3,), range(1, 4)),
    "nummax0": _grid((2, 3), (1, 2, 3)), "nummax": _grid((2, 3), (1, 2, 3), (0, 1)),
    "nummax2": _grid((2,), range(1, 7), (0, 1, 2)), "ismax2bit": _grid((2,), (1, 2, 3)),
}


def arity(func: str, n: int) -> int:
    """Input count of a catalog entry: ismax forms take y, argmax2sel x_0..x_n."""
    if func == "ismax2bit":
        return 2 * n + 2
    if func in ("ismax", "ismax2", "ismax3", "argmax2sel"):
        return n + 1
    return n


@dataclass(frozen=True)
class Request:
    """One operation: a CLI request, or the benchmark's own preservation check."""

    kind: str  # verify | verify-file | gen-pair | stats | eval | list | preserve
    func: str = ""
    p: int = 0
    n: int = 0
    r: int = 0
    point: tuple[int, ...] = ()
    strategy: str = "nested_horner"
    cse: bool = False

    @property
    def case(self) -> tuple[str, int, int, int]:
        return (self.func, self.p, self.n, self.r)

    def params(self) -> list[str]:
        out = ["--func", self.func, "--p", str(self.p), "--n", str(self.n)]
        return out + (["--r", str(self.r)] if self.r else [])


#: Run at the end of every pass in every workload: one small request per
#: traced layer entry point.
COVERAGE = (Request("gen-pair", "max", 3, 2), Request("verify-file", "max", 3, 2),
            Request("stats", "max", 3, 2), Request("preserve", "max", 3, 2),
            Request("eval", "max", 3, 2, point=(1, 2), strategy="naive_monomial",
                    cse=True))


def requests(workload: str, seed: int) -> list[Request]:
    """The main requests of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    if workload in ("dense-p3", "dense-p2"):
        cases = list(DENSE_P3 if workload == "dense-p3" else DENSE_P2)
        rng.shuffle(cases)
        return [Request("verify", *case) for case in cases]
    if workload == "circuit-stats":
        cases = list(CIRCUIT_CASES)
        rng.shuffle(cases)
        return [Request(kind, *case) for case in cases for kind in ("stats", "preserve")]
    if workload != "catalog-requests":
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    ops = [(kind, (func, p, n, r)) for func, cases in CATALOG_GRID.items()
           for p, n, r in cases for kind in CATALOG_KINDS]
    rng.shuffle(ops)
    out = []
    strategies = {}  # alternate the two strategies over each case's eval requests
    for i, (kind, case) in enumerate(ops):
        if i % LIST_EVERY == 0:
            out.append(Request("list"))
        if kind == "eval":
            func, p, n, _r = case
            strategy = STRATEGIES[strategies.setdefault(case, rng.randrange(2))]
            strategies[case] ^= 1
            point = tuple(rng.randrange(p) for _ in range(arity(func, n)))
            out.append(Request("eval", *case, point=point, strategy=strategy,
                               cse=rng.random() < 0.5))
        else:
            out.append(Request(kind, *case))
    return out


# -- running and checking -------------------------------------------------------------

class CheckFailed(Exception):
    """An operation completed but its output was wrong."""


def call_cli(argv: list[str]) -> tuple[str, float]:
    """Run one in-process CLI request; return its stdout and seconds.

    A nonzero exit raises CheckFailed.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    if code != 0:
        raise CheckFailed(f"exit {code}: {err.getvalue().strip()[:200]}")
    return out.getvalue(), seconds


def _ensure(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class PassResult:
    """Timings of one pass: its wall time and one sample per main request.

    A sample is (kind, seconds, reference seconds at that moment).  Every
    pass of a run makes the same requests in the same order, so
    ``samples[i]`` is the same request in every pass.
    """

    wall: float
    samples: list[tuple[str, float, float]]
    requests: int
    stats_rows: dict[tuple, list]


#: Median time of one ``reference_loop`` run on the host the benchmark was
#: built on (2 vCPUs, Python 3.11.7).  Times divided by the loop's current
#: time and multiplied by this are "reference seconds": what the time would
#: be on that host at its usual speed.
REFERENCE_S = 0.00078


def reference_loop() -> int:
    """A fixed piece of pure-Python work: int arithmetic, lists, tuples, a dict.

    It never changes with the program, so its time tracks only the host's
    speed.  On a shared host that speed drifts by tens of percent over
    seconds to minutes, and it moves this loop and the workloads alike.
    """
    acc = 0
    for i in range(3000):
        acc = (acc + i * i) % 1000003
    vals = list(range(1500))
    for _ in range(3):
        vals = tuple([(a * 7 + 3) % 5 for a in vals])
    table: dict[int, int] = {}
    for i in range(1000):
        table[i & 127] = table.get(i & 127, 0) + i
    return acc + sum(vals) + len(table)


class ReferenceClock:
    """Times ``reference_loop`` between requests, at most every EVERY seconds.

    ``current`` is the median of the latest sample's ``reps`` runs.
    """

    EVERY = 0.05

    def __init__(self, reps: int = 3):
        self.reps = reps
        self.current = REFERENCE_S
        self._last = float("-inf")

    def sample(self) -> float:
        runs = []
        for _ in range(self.reps):
            start = time.perf_counter()
            reference_loop()
            runs.append(time.perf_counter() - start)
        self.current = statistics.median(runs)
        self._last = time.perf_counter()
        return self.current

    def sample_if_due(self) -> float:
        if time.perf_counter() - self._last >= self.EVERY:
            self.sample()
        return self.current


class Runner:
    """Runs requests, checks every output and counts each failure.

    ``workdir`` holds the polynomial files that verify-file requests read;
    ``goldens`` maps golden labels to their expected cost rows.  Before each
    operation ``clock`` gets the chance to time the reference loop; those
    samples are outside every request latency.
    """

    def __init__(self, workdir: str, goldens: dict):
        self.clock = ReferenceClock()
        self.workdir = workdir
        self.goldens = {GOLDEN_CASES[label]: row for label, row in goldens.items()}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._circuits: dict[tuple, tuple] = {}

    def poly_path(self, case) -> str:
        return os.path.join(self.workdir, "{}-p{}-n{}-r{}.json".format(*case))

    def prepare(self, reqs) -> None:
        """Write the files verify-file reads and lower the circuits preserve runs."""
        for req in reqs:
            if req.kind == "verify-file" and not os.path.exists(self.poly_path(req.case)):
                poly = formulas.build_formula(*req.case)
                with open(self.poly_path(req.case), "w") as handle:
                    handle.write(poly.to_json())
            elif req.kind == "preserve" and req.case not in self._circuits:
                poly = formulas.build_formula(*req.case)
                self._circuits[req.case] = (poly, [
                    circuit.eliminate_common_subexpressions(circuit.lower(poly, s))
                    for s in STRATEGIES])

    def run_pass(self, main, tail=COVERAGE) -> PassResult:
        result = PassResult(0.0, [], 0, {})
        start = time.perf_counter()
        for req in main:
            self._run(req, result, record=True)
        for req in tail:
            self._run(req, result, record=False)
        result.wall = time.perf_counter() - start
        return result

    def _run(self, req: Request, result: PassResult, record: bool) -> None:
        reference = self.clock.sample_if_due()
        self.attempted += 1
        try:
            seconds = self._execute(req, result, record)
        except (Exception, SystemExit) as exc:  # every failure is counted, none dropped
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{req}: {type(exc).__name__}: {exc}")
            return
        result.requests += len(seconds)
        if record:
            result.samples.extend((req.kind, t, reference) for t in seconds)

    def _execute(self, req: Request, result: PassResult, record: bool) -> list[float]:
        """Run one operation and check its output; return its request latencies."""
        kind = req.kind
        if kind == "verify" or kind == "verify-file":
            argv = ["verify", *req.params()]
            if kind == "verify-file":
                argv += ["--file", self.poly_path(req.case)]
            out, seconds = call_cli(argv)
            report = json.loads(out)
            _ensure(report.get("status") == "pass", f"verify verdict {report}")
            return [seconds]
        if kind == "gen-pair":
            closed, t_closed = call_cli(["gen", *req.params()])
            interp, t_interp = call_cli(["gen", *req.params(), "--form", "interpolated"])
            _ensure(closed == interp and closed.startswith("{"),
                    "closed and interpolated gen output differ")
            return [t_closed, t_interp]
        if kind == "stats":
            out, seconds = call_cli(["stats", *req.params()])
            rows = json.loads(out)
            _ensure([(row["strategy"], row["cse"]) for row in rows]
                    == [(s, c) for s in STRATEGIES for c in (False, True)],
                    f"stats rows {rows}")
            golden = self.goldens.get(req.case)
            if golden is not None:
                row = rows[3]
                got = {"mul_count": row["mul_count"], "mul_depth": row["mul_depth"]}
                _ensure(got == golden, f"cost {got} differs from golden {golden}")
            if record:
                result.stats_rows[req.case] = rows
            return [seconds]
        if kind == "eval":
            argv = ["eval", *req.params(), "--point", ",".join(map(str, req.point)),
                    "--circuit", "--strategy", req.strategy] + (["--cse"] if req.cse else [])
            out, seconds = call_cli(argv)
            entry, p, n, r = formulas.resolve_params(*req.case)
            expected = entry.spec_of(p, n, r).evaluate(req.point)
            _ensure(int(out) == expected, f"eval printed {out.strip()}, expected {expected}")
            return [seconds]
        if kind == "list":
            out, seconds = call_cli(["list"])
            names = {line.split()[0] for line in out.splitlines() if line[:1].strip()}
            _ensure(set(CATALOG_GRID) <= names, "list is missing catalog entries")
            return [seconds]
        if kind == "preserve":
            poly, circuits = self._circuits[req.case]
            start = time.perf_counter()
            values = poly.values()
            same = [circuit.run_all(c) == values for c in circuits]
            seconds = time.perf_counter() - start
            _ensure(all(same), f"run_all disagrees with values() for {req.case}")
            return [seconds]
        raise ValueError(f"unknown request kind {kind!r}")


# -- figures ----------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def circuit_costs(rows_by_case: dict) -> dict[str, int]:
    """Sums over cases of CSE'd cost per strategy and of the best strategy."""
    out = {f"circuit.{what}.{s}": 0 for what in ("mul_count", "mul_depth", "gates")
           for s in STRATEGIES}
    out.update({"circuit.mul_count.best": 0, "circuit.mul_depth.best": 0})
    for rows in rows_by_case.values():
        cse_rows = [row for row in rows if row["cse"]]
        for row in cse_rows:
            s = row["strategy"]
            out[f"circuit.mul_count.{s}"] += row["mul_count"]
            out[f"circuit.mul_depth.{s}"] += row["mul_depth"]
            out[f"circuit.gates.{s}"] += row["gates"]
        out["circuit.mul_count.best"] += min(row["mul_count"] for row in cse_rows)
        out["circuit.mul_depth.best"] += min(row["mul_depth"] for row in cse_rows)
    return out


def end_to_end(workload: str, passes: list[PassResult]) -> dict[str, tuple[float, str]]:
    """The workload's end-to-end figures from its untraced timed passes.

    Each request's time is taken as its median over the passes, which
    rejects a slow moment in one request without discarding the rest of that
    pass.  ``pass_s`` and the per-kind sums are in reference seconds: each
    latency is divided by the reference loop's time sampled just before it
    and multiplied by REFERENCE_S.  ``pass_wall_s`` is the same sum in
    plain wall seconds.
    """
    latencies = [t for res in passes for _kind, t, _ref in res.samples]
    columns = list(zip(*(res.samples for res in passes)))
    kinds = [col[0][0] for col in columns]
    wall = [statistics.median(t for _k, t, _r in col) for col in columns]
    scaled = [statistics.median(t / ref for _k, t, ref in col) * REFERENCE_S for col in columns]
    references = [ref for res in passes for _k, _t, ref in res.samples]
    out = {
        "pass_s": (sum(scaled), "s"),
        "pass_wall_s": (sum(wall), "s"),
        "reference_ms": (statistics.median(references) * 1e3, "ms"),
        "request_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "requests_per_s": (sum(res.requests for res in passes)
                           / sum(res.wall for res in passes), "1/s"),
        "latency_samples": (len(latencies), "count"),
    }
    if len(latencies) >= 1000:  # at least ten samples beyond the 99th percentile
        out["request_p99_ms"] = (percentile(latencies, 99) * 1e3, "ms")
    for kind in PHASES.get(workload, ()):
        out[f"{kind}_s"] = (sum(t for k, t in zip(kinds, scaled) if k == kind), "s")
    if workload == "circuit-stats":
        costs = circuit_costs(passes[0].stats_rows)
        out["mul_count"] = (costs["circuit.mul_count.best"], "count")
        out["mul_depth"] = (costs["circuit.mul_depth.best"], "count")
    return out
