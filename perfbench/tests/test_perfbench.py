"""The benchmark's own tests: seeded inputs, self-time arithmetic, failure counting.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json

import pytest

from fpminpoly import cli
import tracer
from worker import GOLDENS
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_requests(workload):
    first = workloads.requests(workload, 7)
    assert first == workloads.requests(workload, 7)
    other = workloads.requests(workload, 8)
    assert other != first
    # The seed orders a fixed multiset, so pass times compare across seeds.
    key = lambda req: (req.kind, req.case, req.strategy)
    assert sorted(map(key, other)) == sorted(map(key, first))


def test_self_time_subtracts_merged_child_coverage():
    spans = [
        ["root", 0.0, 10.0, None, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 3.0, 6.0, 0, 1],    # overlaps a, as a pool thread's span would
        ["a.child", 2.0, 3.0, 1, 1],
        ["late", 8.0, 12.0, 0, 1],  # clipped to its parent's end
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])

    spans = [["cli.main", 0.0, 5.0, None, 1], ["polyring.mul", 1.0, 2.0, 0, 1],
             ["polyring.mul", 1.2, 1.5, 1, 1]]  # __pow__-style nesting
    totals = tracer.layer_totals(spans, {"polyring.mul_calls": 2})
    assert totals["cli.main_s"] == pytest.approx(5.0)
    assert totals["cli.self_s"] == pytest.approx(4.0)
    assert totals["polyring.mul_s"] == pytest.approx(1.0)
    assert totals["polyring.mul_calls"] == 2


def test_install_records_nested_spans_and_restores():
    original = cli.main
    tr = tracer.Tracer()
    restore = tracer.install(tr)
    try:
        out, _seconds = workloads.call_cli(["verify", "--func", "max", "--p", "3", "--n", "2"])
    finally:
        restore()
    assert cli.main is original
    assert json.loads(out)["status"] == "pass"
    names = [span[0] for span in tr.spans]
    assert names[0] == "cli.main" and tr.spans[0][3] is None
    for expected in ("formulas.build", "oracle.tabulate", "oracle.interpolate",
                     "polyring.axis_transform", "formulas.compare"):
        assert expected in names
    assert all(span[3] is not None for span in tr.spans[1:])
    assert {span[4] for span in tr.spans} == {1}  # one request id
    assert tr.counts["cli.requests"] == 1 and tr.counts["formulas.builds"] == 1


def test_corrupted_polynomial_file_counts_as_failure(tmp_path):
    with open(GOLDENS) as handle:
        goldens = json.load(handle)
    runner = workloads.Runner(str(tmp_path), goldens)
    good = workloads.Request("verify", "max", 3, 2)
    suspect = workloads.Request("verify-file", "max", 3, 2)
    runner.prepare([suspect])
    path = runner.poly_path(suspect.case)
    data = json.loads(open(path).read())
    data["coeffs"][1] = (data["coeffs"][1] + 1) % 3
    with open(path, "w") as handle:
        json.dump(data, handle)

    result = runner.run_pass([good, suspect], tail=())
    assert (runner.attempted, runner.failed) == (2, 1)
    assert [sample[0] for sample in result.samples] == ["verify"]
    assert "verify-file" in runner.failures[0]
