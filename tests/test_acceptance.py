"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is exact field arithmetic, so every comparison is identity
(zero tolerance).  Criterion 1 carries an explicit wall-clock budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import pathlib
import time

import pytest

from fpminpoly.circuit import (STRATEGIES, cost, eliminate_common_subexpressions,
                               lower, run, run_all)
from fpminpoly.cli import EXIT_MISMATCH, EXIT_OK, main as cli_main
from fpminpoly.formulas import (argmax0_n2, argmax_digit_general, argmax_p2,
                                argmax_p2_selector, argmax_p3_n3,
                                carry, involution_conjugate, ismax_2bit_p2,
                                ismax_general, ismax_p2, ismax_p3, max_general,
                                max_n2, max_p2, max_p3, max_p5_n2, max_p5_n3,
                                min_p2, min_p3, nummax_digit_general, nummax_p2)
from fpminpoly.oracle import FunctionSpec, interpolate, point_at, tabulate
from fpminpoly.polyring import PolyRing

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "cost_goldens.json"


def _report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _suite1_instances():
    """Every (label, polynomial, semantic spec) pair of the flagship suite."""
    items = []

    def add(label, poly, spec):
        items.append((label, poly, spec))

    for p in (2, 3, 5):
        for n in range(1, 5):
            add(f"max_general p={p} n={n}", max_general(PolyRing(p, n)),
                FunctionSpec("max", p, n))
    for n in range(1, 11):
        add(f"max_p2 n={n}", max_p2(PolyRing(2, n)), FunctionSpec("max", 2, n))
        add(f"min_p2 n={n}", min_p2(PolyRing(2, n)), FunctionSpec("min", 2, n))
    for n in range(1, 7):
        add(f"max_p3 n={n}", max_p3(PolyRing(3, n)), FunctionSpec("max", 3, n))
        add(f"min_p3 n={n}", min_p3(PolyRing(3, n)), FunctionSpec("min", 3, n))
    add("max_p5_n2", max_p5_n2(PolyRing(5, 2)), FunctionSpec("max", 5, 2))
    add("max_p5_n3", max_p5_n3(PolyRing(5, 3)), FunctionSpec("max", 5, 3))
    for p in (2, 3):
        for n in range(1, 5):
            for r in (0, 1):
                add(f"argmax_digit_general p={p} n={n} r={r}",
                    argmax_digit_general(PolyRing(p, n), r),
                    FunctionSpec("argmax_digit", p, n, r))
    for n in range(1, 13):
        for r in range(4):
            add(f"argmax_p2 n={n} r={r}", argmax_p2(PolyRing(2, n), r),
                FunctionSpec("argmax_digit", 2, n, r))
    for n in range(1, 13):
        for r in range(4):
            add(f"argmax_p2_selector n={n} r={r}", argmax_p2_selector(PolyRing(2, n + 1), r),
                FunctionSpec("argmax_digit", 2, n + 1, r))
    add("argmax_p3_n3", argmax_p3_n3(PolyRing(3, 3)), FunctionSpec("argmax_digit", 3, 3, 0))
    for p in (2, 3, 5, 7, 11):
        add(f"carry p={p}", carry(PolyRing(p, 2)), FunctionSpec("carry", p, 2))
        add(f"argmax0_n2 p={p}", argmax0_n2(PolyRing(p, 2)),
            FunctionSpec("argmax_digit", p, 2, 0))
    for p in (3, 5, 7, 11, 13):
        add(f"max_n2 p={p}", max_n2(PolyRing(p, 2)), FunctionSpec("max", p, 2))
    for p in (2, 3):
        for n in range(1, 4):
            add(f"ismax_general p={p} n={n}", ismax_general(PolyRing(p, n + 1)),
                FunctionSpec("ismax", p, n))
            for r in (0, 1):
                add(f"nummax_digit_general p={p} n={n} r={r}",
                    nummax_digit_general(PolyRing(p, n), r),
                    FunctionSpec("nummax_digit", p, n, r))
    for n in range(1, 11):
        add(f"ismax_p2 n={n}", ismax_p2(PolyRing(2, n + 1)), FunctionSpec("ismax", 2, n))
    for n in range(1, 6):
        add(f"ismax_p3 n={n}", ismax_p3(PolyRing(3, n + 1)), FunctionSpec("ismax", 3, n))
    for n in range(1, 11):
        for r in range(4):
            add(f"nummax_p2 n={n} r={r}", nummax_p2(PolyRing(2, n), r),
                FunctionSpec("nummax_digit", 2, n, r))
    for n in range(1, 7):
        add(f"ismax_2bit_p2 n={n}", ismax_2bit_p2(PolyRing(2, 2 * n + 2)),
            FunctionSpec("ismax_2bit", 2, n))

    return items


@pytest.fixture(scope="module")
def suite1():
    return _suite1_instances()


def _printed_argmax0_forms():
    forms = {}
    ring = PolyRing(2, 2)
    x0, x1 = ring.variable(0), ring.variable(1)
    forms[2] = (x0 + 1) * x1
    ring = PolyRing(3, 2)
    x0, x1 = ring.variable(0), ring.variable(1)
    forms[3] = -((x0 + 1) * (x0 - x1) * x1)
    ring = PolyRing(5, 2)
    x0, x1 = ring.variable(0), ring.variable(1)
    forms[5] = -((x0 + 1) * (x0**2 - x0 * x1 + x0 + x1**2) * (x0 - x1) * x1)
    ring = PolyRing(7, 2)
    x0, x1 = ring.variable(0), ring.variable(1)
    forms[7] = -((x0**4 + 5 * x0**3 * x1 + 2 * x0**3 + 3 * x0**2 * x1**2
                  + x0**2 * x1 + 4 * x0**2 + 5 * x0 * x1**3 + 6 * x0 * x1**2
                  + 3 * x0 + x1**4) * (x0 + 1) * (x0 - x1) * x1)
    return forms


def test_criterion_1_flagship_minimality(suite1):
    """Every constructor output is coefficient-identical to the interpolated
    semantic truth table, within a 60 second budget."""
    start = time.perf_counter()
    failures = []
    for label, poly, spec in suite1:
        table = tabulate(spec)
        if poly != interpolate(table):
            failures.append(label)
    for p, printed in _printed_argmax0_forms().items():
        if argmax0_n2(PolyRing(p, 2)) != printed:
            failures.append(f"argmax0_n2 printed form p={p}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(1, ok, f"flagship minimality: {len(suite1) + 4} checks, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 60.0, f"flagship suite took {elapsed:.1f}s, budget is 60s"


def test_criterion_2_cross_identities():
    """Exact algebraic identities linking the constructors to each other."""
    failures = []

    for p in (2, 3, 5, 7, 11):
        c = carry(PolyRing(p, 2))
        ring = c.ring
        conj = c.compose([(p - 1) - ring.variable(0), ring.variable(1)])
        if conj != argmax0_n2(PolyRing(p, 2)):
            failures.append(f"carry/argmax0 relation p={p}")

    for p in (3, 5, 7, 11, 13):
        A = argmax0_n2(PolyRing(p, 2))
        ring = A.ring
        x0, x1 = ring.variable(0), ring.variable(1)
        if x0 * (1 - A) + x1 * A != max_n2(PolyRing(p, 2)):
            failures.append(f"select-by-argmax max p={p}")

    for n in range(1, 11):
        if involution_conjugate(max_p2(PolyRing(2, n))) != min_p2(PolyRing(2, n)):
            failures.append(f"p2 duality n={n}")
    for n in range(1, 7):
        if involution_conjugate(max_p3(PolyRing(3, n))) != min_p3(PolyRing(3, n)):
            failures.append(f"p3 duality n={n}")

    # Extending argmax by one input: with A the indicator that the new last
    # input beats the maximum of the others, digit r of the least maximizing
    # index is prefix * (1 - A) + digit_r(n) * A.
    checks = 0
    for p, n_max in ((2, 6), (3, 3)):
        for n in range(1, n_max):
            big = PolyRing(p, n + 1)
            first = [big.variable(i) for i in range(n)]
            beats = argmax0_n2(PolyRing(p, 2)).compose(
                [max_general(PolyRing(p, n)).compose(first), big.variable(n)])
            for r in range(3):
                prefix = argmax_digit_general(PolyRing(p, n), r).compose(first)
                extended = prefix * (1 - beats) + beats.scale(big.field.digit(n, r))
                if extended != argmax_digit_general(big, r):
                    failures.append(f"argmax extension p={p} n={n} r={r}")
                checks += 1
    if argmax_digit_general(PolyRing(3, 3), 0) != argmax_p3_n3(PolyRing(3, 3)):
        failures.append("argmax p=3 n=3 compact form")

    _report(2, not failures, f"cross identities incl. {checks} argmax extension checks")
    assert not failures, failures


def test_criterion_3_degree_bound(suite1):
    """Per-variable degree at most p-1 across the whole catalog output."""
    failures = [label for label, poly, _ in suite1 if not poly.is_minimal_form()]
    _report(3, not failures, f"degree bound over {len(suite1)} polynomials")
    assert not failures, failures


def test_criterion_4_compiler_preservation(suite1, tmp_path):
    """Circuits compute exactly the polynomial at every point, under both
    strategies; CSE never makes any cost field worse; a corrupted artifact
    makes verification exit nonzero."""
    failures = []
    for label, poly, spec in suite1:
        expected = poly.values()
        for strategy in STRATEGIES:
            circ = lower(poly, strategy)
            if run_all(circ) != expected:
                failures.append(f"{label} [{strategy}]")
                continue
            shared = eliminate_common_subexpressions(circ)
            if run_all(shared) != expected:
                failures.append(f"{label} [{strategy}+cse]")
            before, after = cost(circ), cost(shared)
            if (after.mul_count > before.mul_count
                    or after.add_count > before.add_count
                    or after.scale_count > before.scale_count
                    or after.mul_depth > before.mul_depth):
                failures.append(f"{label} [{strategy} cse regressed cost]")

    # spot-check the single-point evaluator against the vectorized one
    sample = argmax_p3_n3(PolyRing(3, 3))
    circ = lower(sample, "nested_horner")
    vals = run_all(circ)
    for idx in (0, 13, 26):
        if run(circ, point_at(3, 3, idx)) != vals[idx]:
            failures.append("run/run_all disagreement")

    # negative control: a corrupted polynomial file must fail verification
    good = tmp_path / "good.json"
    assert cli_main(["gen", "--func", "argmax3n3", "--out", str(good)]) == EXIT_OK
    data = json.loads(good.read_text())
    data["coeffs"][5] = (data["coeffs"][5] + 1) % 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    if cli_main(["verify", "--func", "argmax3n3", "--file", str(bad),
                 "--out", str(tmp_path / "report.json")]) != EXIT_MISMATCH:
        failures.append("corrupted artifact not flagged")
    if cli_main(["verify", "--func", "argmax3n3", "--file", str(good),
                 "--out", str(tmp_path / "report2.json")]) != EXIT_OK:
        failures.append("intact artifact flagged")

    _report(4, not failures,
            f"preservation over {len(suite1)} formulas x {len(STRATEGIES)} strategies")
    assert not failures, failures


def test_criterion_5_cost_regression_anchors():
    """Frozen mul_count/mul_depth anchors for three lowered formulas."""
    goldens = json.loads(GOLDEN_PATH.read_text())
    current = {}
    for label, poly in (("max_p2_8", max_p2(PolyRing(2, 8))),
                        ("argmax_p3_n3", argmax_p3_n3(PolyRing(3, 3))),
                        ("max_n2_7", max_n2(PolyRing(7, 2)))):
        circ = eliminate_common_subexpressions(lower(poly, "nested_horner"))
        rep = cost(circ)
        current[label] = {"mul_count": rep.mul_count, "mul_depth": rep.mul_depth}
    ok = current == goldens
    _report(5, ok, f"cost anchors {current}")
    assert current == goldens


def test_criterion_6_determinism(tmp_path):
    """Re-running gen with identical flags yields byte-identical artifacts."""
    specs = [
        ["gen", "--func", "max", "--p", "5", "--n", "3"],
        ["gen", "--func", "argmax2", "--n", "8", "--r", "1"],
        ["gen", "--func", "ismax2bit", "--n", "3"],
        ["gen", "--func", "maxn2", "--p", "11", "--format", "human"],
        ["gen", "--func", "nummax", "--p", "3", "--n", "3", "--r", "1"],
    ]
    failures = []
    for i, spec in enumerate(specs):
        first = tmp_path / f"first{i}"
        second = tmp_path / f"second{i}"
        assert cli_main([*spec, "--out", str(first)]) == EXIT_OK
        assert cli_main([*spec, "--out", str(second)]) == EXIT_OK
        if first.read_bytes() != second.read_bytes():
            failures.append(" ".join(spec))
    _report(6, not failures, f"{len(specs)} specs generated twice")
    assert not failures, failures
