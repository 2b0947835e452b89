"""Command-line front end: generate, verify, evaluate and cost polynomials.

Subcommands
-----------
gen     build a polynomial (closed form or interpolated) and write it out
verify  check closed forms against interpolation of the exact semantics
eval    evaluate a polynomial at one point, optionally through a circuit
stats   report circuit costs per lowering strategy, before and after CSE
list    show the formula catalog with parameter constraints

Exit codes: 0 success, 2 bad flags or parameters, 3 size-guard refusal,
4 verification mismatch.

All artifacts are deterministic: identical invocations produce byte
identical files (sorted JSON keys, fixed monomial order, atomic writes).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Sequence

# eliminate_common_subexpressions is unused here; perfbench/tracer.py rebinds it by name.
from .circuit import (STRATEGIES, _lower_shared, cost, eliminate_common_subexpressions,
                      lower, run)
# first_mismatch is unused here; perfbench/tracer.py rebinds cli.first_mismatch by name.
from .formulas import (CATALOG, FormulaParamError, build_formula, first_mismatch,
                       resolve_params, verify_formula)
from .oracle import TruthTable, interpolate, tabulate
from .polyring import (DEFAULT_MAX_TABLE_SIZE, Polynomial, SizeGuardError,
                       format_terms)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SIZE_GUARD = 3
EXIT_MISMATCH = 4

ENV_MAX_TABLE_SIZE = "FPMINPOLY_MAX_TABLE_SIZE"


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename.

    An ``OSError`` names ``path``, not the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fpminpoly-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def _table_size_cap(args) -> int | None:
    if getattr(args, "max_table_size", None) is not None:
        cap = args.max_table_size
        if cap < 0:
            raise FormulaParamError(f"--max-table-size must be nonnegative, got {cap}")
        if cap > DEFAULT_MAX_TABLE_SIZE:
            # Stored tables take 1 byte an entry below p = 128, else an 8-byte
            # reference to a shared int up to 256 or to a ~32-byte int above.
            print(f"size guard raised to {cap} entries (roughly {cap / 2**20:.0f} MiB "
                  f"per dense table when p < 128, {cap * 8 / 2**20:.0f} MiB when "
                  f"p <= 257, {cap * 40 / 2**20:.0f} MiB above)", file=sys.stderr)
        return cap
    env = os.environ.get(ENV_MAX_TABLE_SIZE)
    if env:
        try:
            cap = int(env)
        except ValueError:
            cap = None
        if cap is None or cap < 0:
            raise FormulaParamError(
                f"environment variable {ENV_MAX_TABLE_SIZE} must be a nonnegative int, "
                f"got {env!r}")
        return cap
    return DEFAULT_MAX_TABLE_SIZE


def _build_requested(args, cap: int | None) -> Polynomial:
    """The polynomial a gen/eval/stats request names, closed or interpolated."""
    if getattr(args, "table", None):
        with open(args.table) as handle:
            table = TruthTable.from_json(handle.read())
        return interpolate(table, max_table_size=cap)
    if not args.func:
        raise FormulaParamError("either --func or --table is required")
    if args.form == "closed":
        return build_formula(args.func, args.p, args.n, args.r, max_table_size=cap)
    entry, p, n, r = resolve_params(args.func, args.p, args.n, args.r)
    table = tabulate(entry.spec_of(p, n, r), max_table_size=cap)
    return interpolate(table, max_table_size=cap)


# -- subcommand handlers -------------------------------------------------------

def cmd_gen(args) -> int:
    cap = _table_size_cap(args)
    poly = _build_requested(args, cap)
    if args.format == "json":
        _emit(args, _dump_json(poly.to_dict()))
    else:
        _emit(args, format_terms(poly) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    cap = _table_size_cap(args)
    if args.all:
        if args.file:
            raise FormulaParamError("verify takes --all or --file, not both")
        given = [f"--{name}" for name in ("func", "p", "n", "r")
                 if getattr(args, name) is not None]
        if given:
            raise FormulaParamError(
                f"--all verifies every catalog entry over its own grid; "
                f"drop {', '.join(given)}")
        reports = [verify_formula(name, p, n, r, max_table_size=cap)
                   for name, entry in CATALOG.items()
                   for (p, n, r) in entry.verify_grid]
    else:
        candidate = None
        if args.file:
            if not args.func:
                raise FormulaParamError("--file needs --func to know the reference function")
            with open(args.file) as handle:
                candidate = Polynomial.from_json(handle.read(), max_table_size=cap)
        elif not args.func:
            raise FormulaParamError("verify needs --func, --file or --all")
        reports = [verify_formula(args.func, args.p, args.n, args.r,
                                  max_table_size=cap, candidate=candidate)]

    ok = all(rep["status"] == "pass" for rep in reports)
    if args.format == "json":
        _emit(args, _dump_json(reports if len(reports) > 1 else reports[0]))
    else:
        lines = []
        for rep in reports:
            head = (f"{rep['formula']:<12} p={rep['p']:<6} n={rep['n']:<3} "
                    f"r={rep['r']:<2} points={rep['points_checked']:<8}")
            if rep["status"] == "pass":
                lines.append(f"{head} pass")
            else:
                detail = ""
                if "mismatch_point" in rep:
                    detail = (f" first mismatch at {tuple(rep['mismatch_point'])}: "
                              f"expected {rep['expected']}, got {rep['got']}")
                lines.append(f"{head} MISMATCH"
                             f" (coefficients {'ok' if rep['coefficient_match'] else 'differ'})"
                             + detail)
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_eval(args) -> int:
    if not args.circuit:
        given = [flag for flag, on in (("--strategy", args.strategy is not None),
                                       ("--cse", args.cse)) if on]
        if given:
            raise FormulaParamError(f"eval uses {' and '.join(given)} only with --circuit")
    cap = _table_size_cap(args)
    poly = _build_requested(args, cap)
    try:
        point = tuple(int(v) for v in args.point.split(","))
    except ValueError:
        raise FormulaParamError(f"could not parse --point {args.point!r}")
    value = poly.eval(point)
    if args.circuit:
        strategy = args.strategy or "nested_horner"
        circ = _lower_shared(poly, strategy)[0] if args.cse else lower(poly, strategy)
        via_circuit = run(circ, point)
        if via_circuit != value:
            print(f"fpminpoly: mismatch: circuit evaluation disagrees with the "
                  f"polynomial: {via_circuit} vs {value}", file=sys.stderr)
            return EXIT_MISMATCH
    print(value)
    return EXIT_OK


def _stats_rows(poly: Polynomial) -> list[dict]:
    """Per strategy, the cost rows of ``lower`` without and with CSE.

    Both come from the shared lowering: the cse=true row is its circuit's
    cost, and the cse=false row its count of the unshared circuit's mul,
    add and scale gates, at the shared depth, with the shared input and
    const gates added to the gate count.
    """
    rows = []
    for strategy in STRATEGIES:
        shared, (muls, adds, scales) = _lower_shared(poly, strategy)
        report = cost(shared)
        leaves = (len(shared.gates) - report.mul_count - report.add_count
                  - report.scale_count)
        rows.append({"strategy": strategy, "cse": False,
                     "gates": muls + adds + scales + leaves, **report.to_dict(),
                     "mul_count": muls, "add_count": adds, "scale_count": scales})
        rows.append({"strategy": strategy, "cse": True,
                     "gates": len(shared.gates), **report.to_dict()})
    return rows


def cmd_stats(args) -> int:
    cap = _table_size_cap(args)
    rows = _stats_rows(_build_requested(args, cap))
    if args.format == "json":
        _emit(args, _dump_json(rows))
    else:
        header = (f"{'strategy':<16} {'cse':<5} {'muls':>6} {'adds':>6} "
                  f"{'scales':>7} {'depth':>6} {'gates':>6}")
        lines = [header]
        for row in rows:
            lines.append(f"{row['strategy']:<16} {str(row['cse']).lower():<5} "
                         f"{row['mul_count']:>6} {row['add_count']:>6} "
                         f"{row['scale_count']:>7} {row['mul_depth']:>6} "
                         f"{row['gates']:>6}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_list(args) -> int:
    if args.format == "json":
        entries = [{"name": e.name, "summary": e.summary, "constraints": e.constraints,
                    "uses_r": e.uses_r} for e in CATALOG.values()]
        _emit(args, _dump_json(entries))
    else:
        lines = []
        for e in CATALOG.values():
            lines.append(f"{e.name:<12} {e.summary}")
            lines.append(f"{'':<12} constraints: {e.constraints}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


# -- parser ---------------------------------------------------------------------

def _add_common(sub, *, source=True, point=False, output=True):
    sub.add_argument("--func", help="catalog formula name (see `list`)")
    sub.add_argument("--p", type=int, default=None, help="field modulus")
    sub.add_argument("--n", type=int, default=None, help="input count")
    sub.add_argument("--r", type=int, default=None, help="digit index")
    if source:
        sub.add_argument("--form", choices=("closed", "interpolated"), default="closed",
                         help="closed formula or independent interpolation path")
        sub.add_argument("--table", help="truth-table JSON file to interpolate instead")
    if point:
        sub.add_argument("--point", required=True,
                         help="comma-separated input values, x0 first")
        sub.add_argument("--circuit", action="store_true",
                         help="also evaluate via a lowered circuit and cross-check")
        sub.add_argument("--strategy", choices=STRATEGIES, default=None,
                         help="lowering strategy for --circuit (default nested_horner)")
        sub.add_argument("--cse", action="store_true",
                         help="apply common-subexpression elimination first (with --circuit)")
    if output:
        sub.add_argument("--out", help="output file (default: stdout)")
        sub.add_argument("--format", choices=("json", "human"), default="json")
    sub.add_argument("--max-table-size", type=int, default=None,
                     help=f"override the p^n size guard "
                          f"(default {DEFAULT_MAX_TABLE_SIZE}; env {ENV_MAX_TABLE_SIZE})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpminpoly", allow_abbrev=False,
        description="Minimal-degree polynomial expressions of max/argmax-style "
                    "functions over F_p, with interpolation cross-checks and "
                    "circuit cost reports.")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", allow_abbrev=False, help="generate a polynomial artifact")
    _add_common(gen)
    gen.set_defaults(handler=cmd_gen)

    verify = subs.add_parser("verify", allow_abbrev=False,
                             help="verify closed forms against interpolation")
    _add_common(verify, source=False)
    verify.add_argument("--file", help="polynomial JSON file to check against --func")
    verify.add_argument("--all", action="store_true",
                        help="verify every catalog entry over its default grid")
    verify.set_defaults(handler=cmd_verify)

    ev = subs.add_parser("eval", allow_abbrev=False, help="evaluate a polynomial at a point")
    _add_common(ev, point=True, output=False)
    ev.set_defaults(handler=cmd_eval)

    stats = subs.add_parser("stats", allow_abbrev=False, help="circuit cost table per strategy")
    _add_common(stats)
    stats.set_defaults(handler=cmd_stats)

    lst = subs.add_parser("list", allow_abbrev=False, help="list the formula catalog")
    lst.add_argument("--out", help="output file (default: stdout)")
    lst.add_argument("--format", choices=("json", "human"), default="human")
    lst.set_defaults(handler=cmd_list)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SizeGuardError as exc:
        print(f"fpminpoly: size guard: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except (FormulaParamError, ValueError, OSError) as exc:
        print(f"fpminpoly: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
