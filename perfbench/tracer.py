"""Spans and counters recorded around fpminpoly's public entry points.

The tracer lives entirely in the benchmark: ``install`` rebinds each entry
point to a recording wrapper in every module that looks the name up, and
the returned callable puts the originals back.  Spans are kept in memory as
``[name, start, end, parent, request]`` lists and written out once, when the
run ends.  A layer's self time is its spans' duration minus the part of that
interval their child spans cover, so nested calls (``__pow__`` calling
``__mul__``, ``__rsub__`` calling ``__sub__``) are each counted once.
"""

from __future__ import annotations

from collections import defaultdict
import dataclasses
import functools
import json
import threading
import time

STRATEGIES = ("naive_monomial", "nested_horner")

#: Per-layer metrics in the order they are reported, with their units.
#: ``*_s`` figures are self time except ``cli.main_s``, which is inclusive.
LAYER_METRICS = (
    ("formulas.build_s", "s"), ("formulas.builds", "count"),
    ("formulas.compare_s", "s"),
    ("polyring.mul_s", "s"), ("polyring.mul_calls", "count"),
    ("polyring.mul_pairs", "count"), ("polyring.addsub_s", "s"),
    ("polyring.entries_touched", "count"), ("polyring.values_s", "s"),
    ("polyring.axis_transform_s", "s"), ("polyring.from_coeffs_s", "s"),
    ("oracle.interpolate_s", "s"), ("oracle.tabulate_s", "s"),
    ("oracle.tabulate_points", "count"),
    *((f"circuit.lower_s.{s}", "s") for s in STRATEGIES),
    ("circuit.cse_s", "s"), ("circuit.cse_kept_ratio", "ratio"),
    ("circuit.cost_s", "s"), ("circuit.run_all_s", "s"),
    ("circuit.run_all_gate_points", "count"),
    *((f"circuit.{what}.{s}", "count")
      for what in ("mul_count", "mul_depth", "gates") for s in (*STRATEGIES, "best")
      if not (what == "gates" and s == "best")),
    ("cli.main_s", "s"), ("cli.self_s", "s"), ("cli.requests", "count"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)

#: Span name -> per-layer self-time metric.
_SELF_TIME = {
    "formulas.build": "formulas.build_s",
    "formulas.compare": "formulas.compare_s",
    "polyring.mul": "polyring.mul_s",
    "polyring.addsub": "polyring.addsub_s",
    "polyring.values": "polyring.values_s",
    "polyring.axis_transform": "polyring.axis_transform_s",
    "polyring.from_coeffs": "polyring.from_coeffs_s",
    "oracle.interpolate": "oracle.interpolate_s",
    "oracle.tabulate": "oracle.tabulate_s",
    **{f"circuit.lower.{s}": f"circuit.lower_s.{s}" for s in STRATEGIES},
    "circuit.cse": "circuit.cse_s",
    "circuit.cost": "circuit.cost_s",
    "circuit.run_all": "circuit.run_all_s",
    "cli.main": "cli.self_s",
}


class Tracer:
    """In-memory span and counter store for one traced run.

    Each thread keeps its own span stack.  A span opened on the main thread
    with an empty stack is a request: it starts a new request id, which its
    descendants share.  A span opened on another thread with an empty stack
    (a worker of a verify pool) gets the latest request span as its parent,
    so its time is still charged inside the request that caused it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request = 0
        self._root: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def begin(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        main = threading.current_thread() is threading.main_thread()
        parent = stack[-1] if stack else (None if main else self._root)
        with self._lock:
            if parent is None:
                self.request += 1
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.request])
        if parent is None:
            self._root = idx
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, fn, name, before=None, after=None):
        """A wrapper recording one span per call of ``fn``.

        ``name`` is a span name or a function of (args, kwargs) giving one.
        ``before(counts, args)`` runs inside the span before the call and
        ``after(counts, args, result)`` after it, so counting is charged to
        the layer whose work it counts.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                if before is not None:
                    before(self.counts, args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self.counts, args, result)
                return result
            finally:
                self.end(idx)
        return traced

    def write(self, path: str) -> None:
        """Write every recorded span as one JSON object per line."""
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval; overlapping children
    (from worker threads) are merged before their coverage is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent, _req in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for idx, (_name, start, end, _parent, _req) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def layer_totals(spans, counts) -> dict[str, float]:
    """Every per-layer metric except the two ``trace.*`` ones, summed."""
    totals = {name: 0.0 for name, _unit in LAYER_METRICS}
    for span, self_s in zip(spans, self_times(spans)):
        metric = _SELF_TIME.get(span[0])
        if metric is not None:
            totals[metric] += self_s
        if span[0] == "cli.main":
            totals["cli.main_s"] += span[2] - span[1]
    for name, value in counts.items():
        if name in totals:
            totals[name] += value
    before = counts.get("circuit.cse_gates_in", 0)
    totals["circuit.cse_kept_ratio"] = (counts.get("circuit.cse_gates_out", 0) / before
                                        if before else 0.0)
    return totals


# -- installing the wrappers ----------------------------------------------------------

def _nnz(poly) -> int:
    return len(poly.coeffs) - poly.coeffs.count(0)


def _count_mul(counts, args):
    a, b = args
    counts["polyring.mul_calls"] += 1
    counts["polyring.entries_touched"] += a.ring.size
    if hasattr(b, "coeffs"):
        counts["polyring.mul_pairs"] += _nnz(a) * _nnz(b)


def _count_addsub(counts, args):
    counts["polyring.entries_touched"] += args[0].ring.size


def _count_build(counts, args, result):
    counts["formulas.builds"] += 1


def _count_tabulate(counts, args, result):
    counts["oracle.tabulate_points"] += len(result.values)


def _count_cse(counts, args, result):
    counts["circuit.cse_gates_in"] += len(args[0].gates)
    counts["circuit.cse_gates_out"] += len(result.gates)


def _count_run_all(counts, args, result):
    circ = args[0]
    counts["circuit.run_all_gate_points"] += len(circ.gates) * len(result)


def _count_request(counts, args, result):
    counts["cli.requests"] += 1


def _lower_span(args, kwargs) -> str:
    strategy = args[1] if len(args) > 1 else kwargs.get("strategy", "nested_horner")
    return f"circuit.lower.{strategy}"


def install(tracer: Tracer):
    """Rebind fpminpoly's entry points to traced wrappers; return the undo.

    Each wrapper goes where its callers look the name up: ``cli`` binds
    ``lower``, ``cost``, CSE, ``tabulate``, ``interpolate`` and
    ``first_mismatch`` by name, ``formulas`` binds ``tabulate`` and
    ``interpolate``, and both ``oracle`` and ``polyring`` bind
    ``apply_axis_transform``.  Catalog builders are lambdas stored in the
    catalog entries, so the entries are swapped for traced copies.
    """
    from fpminpoly import circuit, cli, formulas, oracle, polyring

    saved: list[tuple[object, str, object]] = []

    def patch(owners, attr, wrapper):
        for owner in owners:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    w = tracer.wrap
    Poly = polyring.Polynomial
    mul = w(Poly.__mul__, "polyring.mul", before=_count_mul)
    rmul = w(Poly.__rmul__, "polyring.mul", before=_count_mul)
    patch([Poly], "__mul__", mul)
    patch([Poly], "__rmul__", rmul)
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
        patch([Poly], attr, w(getattr(Poly, attr), "polyring.addsub",
                              before=_count_addsub))
    patch([Poly], "values", w(Poly.values, "polyring.values"))
    patch([Poly], "__eq__", w(Poly.__eq__, "formulas.compare"))
    patch([polyring.PolyRing], "from_coeffs",
          w(polyring.PolyRing.from_coeffs, "polyring.from_coeffs"))
    patch([polyring, oracle], "apply_axis_transform",
          w(polyring.apply_axis_transform, "polyring.axis_transform"))
    patch([oracle, formulas, cli], "tabulate",
          w(oracle.tabulate, "oracle.tabulate", after=_count_tabulate))
    patch([oracle, formulas, cli], "interpolate",
          w(oracle.interpolate, "oracle.interpolate"))
    patch([formulas, cli], "first_mismatch",
          w(formulas.first_mismatch, "formulas.compare"))
    patch([circuit, cli], "lower", w(circuit.lower, _lower_span))
    patch([circuit, cli], "eliminate_common_subexpressions",
          w(circuit.eliminate_common_subexpressions, "circuit.cse", after=_count_cse))
    patch([circuit, cli], "cost", w(circuit.cost, "circuit.cost"))
    patch([circuit], "run_all", w(circuit.run_all, "circuit.run_all",
                                  after=_count_run_all))
    patch([cli], "main", w(cli.main, "cli.main", after=_count_request))

    catalog = formulas.CATALOG
    originals = dict(catalog)
    for key, entry in originals.items():
        catalog[key] = dataclasses.replace(
            entry, build=w(entry.build, "formulas.build", after=_count_build))

    def restore():
        catalog.update(originals)
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
