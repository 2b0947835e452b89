import itertools
import math
import random

import pytest

from fpminpoly import circuit as circuit_module
from fpminpoly.circuit import (STRATEGIES, Circuit, CircuitBuilder, CostReport,
                               cost, eliminate_common_subexpressions, lower,
                               run, run_all)
from fpminpoly.formulas import argmax_p2, argmax_p3_n3, carry, max_n2, max_p3
from fpminpoly.oracle import point_at
from fpminpoly.polyring import PolyRing, SizeGuardError


def longest_mul_path(circuit):
    """Independent depth computation: explicit reverse DFS with a stack."""
    depth = {}
    for idx in range(len(circuit.gates)):
        gate = circuit.gates[idx]
        op = gate[0]
        if op in ("input", "const"):
            depth[idx] = 0
        elif op == "scale":
            depth[idx] = depth[gate[2]]
        elif op in ("add", "sub"):
            depth[idx] = max(depth[gate[1]], depth[gate[2]])
        else:
            depth[idx] = 1 + max(depth[gate[1]], depth[gate[2]])
    return depth[circuit.output]


def random_poly(ring, rng):
    return ring.from_coeffs([rng.randrange(ring.p) for _ in range(ring.size)])


class TestLowering:
    def test_zero_lowers_to_single_const(self):
        circ = lower(PolyRing(3, 2).zero())
        assert circ.gates == (("const", 0),)
        assert cost(circ).mul_count == 0

    def test_variable_lowers_to_input_only(self):
        for strategy in STRATEGIES:
            circ = lower(PolyRing(5, 3).variable(0), strategy)
            assert circ.gates == (("input", 0),)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            lower(PolyRing(2, 1).one(), "magic")

    def test_run_matches_eval_on_random_polynomials(self):
        rng = random.Random(21)
        ring = PolyRing(3, 3)
        for _ in range(4):
            f = random_poly(ring, rng)
            for strategy in STRATEGIES:
                circ = lower(f, strategy)
                for idx in range(ring.size):
                    point = point_at(3, 3, idx)
                    assert run(circ, point) == f.eval(point), (strategy, point)

    def test_horner_agrees_on_max_p3(self):
        f = max_p3(PolyRing(3, 3))
        circ = lower(f, "nested_horner")
        for point in itertools.product(range(3), repeat=3):
            assert run(circ, point) == f.eval(point)

    def test_carry_circuit_value(self):
        circ = lower(carry(PolyRing(5, 2)))
        assert run(circ, (4, 4)) == 1
        assert run(circ, (0, 4)) == 0

    def test_run_const_circuit(self):
        circ = Circuit(5, 0, (("const", 3),), 0)
        assert run(circ, ()) == 3

    def test_run_validates_point(self):
        circ = lower(PolyRing(3, 2).variable(0))
        with pytest.raises(ValueError):
            run(circ, (1,))
        with pytest.raises(ValueError):
            run(circ, (1, 3))


class TestRunAll:
    def test_matches_pointwise_run_p2(self):
        f = argmax_p2(PolyRing(2, 5), 1)
        for strategy in STRATEGIES:
            circ = lower(f, strategy)
            vals = run_all(circ)
            for idx in range(2**5):
                assert vals[idx] == run(circ, point_at(2, 5, idx))

    def test_matches_pointwise_run_p3(self):
        rng = random.Random(22)
        ring = PolyRing(3, 3)
        f = random_poly(ring, rng)
        circ = lower(f, "naive_monomial")
        vals = run_all(circ)
        for idx in range(27):
            assert vals[idx] == run(circ, point_at(3, 3, idx))

    def test_agrees_with_polynomial_values(self):
        f = max_p3(PolyRing(3, 4))
        for strategy in STRATEGIES:
            assert run_all(lower(f, strategy)) == f.values()

    def test_size_guard_fires_before_any_table(self, monkeypatch):
        # Past the 2^24 cap in each stored form: without the guard the p = 2
        # path would ask for a 2^40-bit mask, the p = 3 planes for 3^16-bit
        # masks and the bytes path for 17^6 bytes.  Everything after the
        # guard is made to fail loudly instead, so a missing guard cannot
        # allocate anything here.
        def reached(_circuit):
            raise AssertionError("run_all went past its size guard")

        monkeypatch.setattr(circuit_module, "_last_uses", reached)
        for p, n in ((2, 40), (3, 16), (17, 6)):
            circ = Circuit(p, n, (("input", n - 1),), 0)
            with pytest.raises(SizeGuardError, match=rf"{p}\^{n} exceeds the cap"):
                run_all(circ)


class TestCSE:
    def test_shares_repeated_subterm(self):
        # (1+x0)(1+x1) + (1+x0)(1+x2) built without sharing
        b = CircuitBuilder(2, 3)
        one = b.const(1)
        left = b.mul(b.add(one, b.input(0)), b.add(one, b.input(1)))
        dup = b._emit(("add", one, b.input(0)))  # deliberate duplicate gate
        right = b.mul(dup, b.add(one, b.input(2)))
        circ = b.finish(b.add(left, right))
        shared = eliminate_common_subexpressions(circ)
        assert len(shared.gates) < len(circ.gates)
        assert run(shared, (1, 0, 1)) == run(circ, (1, 0, 1))

    def test_idempotent(self):
        circ = lower(max_p3(PolyRing(3, 3)), "naive_monomial")
        once = eliminate_common_subexpressions(circ)
        assert eliminate_common_subexpressions(once) == once

    def test_commutative_normalization_merges(self):
        b = CircuitBuilder(3, 2)
        ab = b._emit(("mul", b.input(0), b.input(1)))
        ba = b._emit(("mul", b.input(1), b.input(0)))
        circ = b.finish(b.add(ab, ba))
        shared = eliminate_common_subexpressions(circ)
        assert sum(1 for g in shared.gates if g[0] == "mul") == 1

    def test_argmax_p2_n8_post_cse_still_correct(self):
        f = argmax_p2(PolyRing(2, 8), 0)
        circ = eliminate_common_subexpressions(lower(f, "naive_monomial"))
        assert run_all(circ) == f.values()

    def test_never_increases_any_cost_field(self):
        rng = random.Random(23)
        samples = [max_p3(PolyRing(3, 4)), argmax_p2(PolyRing(2, 6), 1), carry(PolyRing(7, 2)),
                   random_poly(PolyRing(3, 3), rng)]
        for f in samples:
            for strategy in STRATEGIES:
                before = lower(f, strategy)
                after = eliminate_common_subexpressions(before)
                cb, ca = cost(before), cost(after)
                assert ca.mul_count <= cb.mul_count
                assert ca.add_count <= cb.add_count
                assert ca.scale_count <= cb.scale_count
                assert ca.mul_depth <= cb.mul_depth


class TestCost:
    def test_const_only_circuit_is_free(self):
        report = cost(lower(PolyRing(3, 2).constant(2)))
        assert report == CostReport(0, 0, 0, 0)

    def test_balanced_product_depth(self):
        b = CircuitBuilder(2, 8)
        leaves = [b.add(b.const(1), b.input(i)) for i in range(8)]
        circ = b.finish(b.product(leaves))
        assert cost(circ).mul_depth == 3  # ceil(log2 8)

    def test_power_depth_is_log(self):
        for k in range(1, 13):
            b = CircuitBuilder(13, 1)
            circ = b.finish(b.power(b.input(0), k))
            assert cost(circ).mul_depth == math.ceil(math.log2(k)) if k > 1 \
                else cost(circ).mul_depth == 0

    def test_depth_cross_check_second_implementation(self):
        for f in (max_p3(PolyRing(3, 4)), argmax_p3_n3(PolyRing(3, 3)), max_n2(PolyRing(7, 2)),
                  argmax_p2(PolyRing(2, 8), 0)):
            for strategy in STRATEGIES:
                circ = lower(f, strategy)
                assert cost(circ).mul_depth == longest_mul_path(circ)
                shared = eliminate_common_subexpressions(circ)
                assert cost(shared).mul_depth == longest_mul_path(shared)

    def test_depth_bounded_by_mul_count(self):
        for f in (max_p3(PolyRing(3, 3)), carry(PolyRing(11, 2)), max_n2(PolyRing(13, 2))):
            report = cost(lower(f))
            if report.mul_count > 0:
                assert report.mul_depth <= report.mul_count

    def test_horner_depth_bound(self):
        # depth <= sum_i ceil(log2(deg_i + 1)) + ceil(log2 n) for the
        # variable-by-variable strategy (a sanity bound, not tightness)
        samples = [max_p3(PolyRing(3, 4)), max_n2(PolyRing(5, 2)), max_n2(PolyRing(13, 2)),
                   argmax_p3_n3(PolyRing(3, 3)), argmax_p2(PolyRing(2, 8), 0),
                   carry(PolyRing(11, 2))]
        for f in samples:
            degs = f.max_degree_per_variable()
            bound = sum(math.ceil(math.log2(d + 1)) for d in degs if d)
            bound += math.ceil(math.log2(f.ring.n)) if f.ring.n > 1 else 0
            assert cost(lower(f, "nested_horner")).mul_depth <= bound


class TestCircuitStructure:
    def test_a_given_gate_list_is_stored_as_tuples(self):
        gates = [["input", 0], ["mul", 0, 0]]
        c = Circuit(3, 1, gates, 1)
        stored = Circuit(3, 1, (("input", 0), ("mul", 0, 0)), 1)
        assert c.gates == stored.gates and hash(c) == hash(stored)
        assert eliminate_common_subexpressions(c) == stored
        gates.append(["add", 5, 7])
        gates[1][1] = 9
        assert run_all(c) == bytes((0, 1, 1))
        assert cost(c) == CostReport(1, 0, 0, 1)

    def test_validation_rejects_forward_references(self):
        with pytest.raises(ValueError):
            Circuit(3, 1, (("add", 0, 1), ("input", 0)), 0)

    def test_validation_rejects_bad_ops_and_values(self):
        with pytest.raises(ValueError):
            Circuit(3, 1, (("nand", 0, 0),), 0)
        with pytest.raises(ValueError):
            Circuit(3, 1, (("const", 3),), 0)
        with pytest.raises(ValueError):
            Circuit(3, 1, (("input", 1),), 0)

    @pytest.mark.parametrize("gates", [
        (("input",),),
        ((),),
        (("const",),),
        (("input", 0), ("add", 0)),
        (("input", 0), ("scale", 2)),
        (("input", 0), ("mul", 0, 0, 0)),
    ])
    def test_validation_rejects_wrong_gate_lengths(self, gates):
        with pytest.raises(ValueError):
            Circuit(2 if len(gates) == 1 else 3, 1, gates, 0)

    @pytest.mark.parametrize("gates", [
        ({"op": "input", "index": 0},),
        (5,),
        (("input", 0), 7),
    ])
    def test_validation_rejects_gates_that_are_not_sequences(self, gates):
        with pytest.raises(ValueError, match=f"gate {len(gates) - 1}: malformed gate"):
            Circuit(3, 1, gates, 0)

    @pytest.mark.parametrize("gates", [5, None, 2.5])
    def test_validation_rejects_gates_that_are_not_iterable(self, gates):
        with pytest.raises(ValueError, match="gates must be an iterable of gates"):
            Circuit(3, 1, gates, 0)

    @pytest.mark.parametrize("n_inputs, gates, output", [
        (1, (("input", 0), ("add", 0.5, 0)), 1),
        (1, (("input", 0), ("mul", 0, "0")), 1),
        (1, (("input", 0), ("sub", None, 0)), 1),
        (1, (("input", 0), ("scale", 2, 0.0)), 1),
        (1, (("input", 0), ("scale", 2, True)), 1),
        (2, (("input", True),), 0),
        (2, (("input", 1.0),), 0),
        (1, (("input", 0),), 0.0),
        (1, (("input", 0),), True),
        (1.5, (("input", 1),), 0),
        (True, (("input", 0),), 0),
    ])
    def test_validation_rejects_non_int_references(self, n_inputs, gates, output):
        with pytest.raises(ValueError, match="not an int"):
            Circuit(3, n_inputs, gates, output)

    @pytest.mark.parametrize("text", [
        '{"p": 3, "inputs": 1, "gates": [{"op": "input", "index": 0}, '
        '{"op": "scale", "value": 2, "args": [0.0]}], "output": 1}',
        '{"p": 3, "inputs": 1, "gates": [{"op": "input", "index": 0}, '
        '{"op": "add", "args": [0, 0.5]}], "output": 1}',
        '{"p": 3, "inputs": 2, "gates": [{"op": "input", "index": 1.0}], "output": 0}',
        '{"p": 3, "inputs": 1, "gates": [{"op": "input", "index": true}], "output": 0}',
        '{"p": 3, "inputs": 1, "gates": [{"op": "input", "index": 0}], "output": 0.0}',
        '{"p": 3, "inputs": true, "gates": [{"op": "input", "index": 0}], "output": 0}',
    ])
    def test_from_json_rejects_non_int_references(self, text):
        with pytest.raises(ValueError, match="not an int"):
            Circuit.from_json(text)

    def test_json_round_trip(self):
        circ = lower(max_p3(PolyRing(3, 3)), "nested_horner")
        assert Circuit.from_json(circ.to_json()) == circ
        assert Circuit.from_json(circ.to_json()).to_json() == circ.to_json()

    def test_from_dict_validates(self):
        with pytest.raises(ValueError):
            Circuit.from_dict({"p": 3, "inputs": 1, "gates": [{"op": "xor"}],
                               "output": 0})

    @pytest.mark.parametrize("gate, message", [
        ({"op": "add", "args": [0, 0, 9]}, "exactly 2"),
        ({"op": "mul", "args": [0]}, "exactly 2"),
        ({"op": "sub", "args": 0}, "exactly 2"),
        ({"op": "scale", "value": 2, "args": [0, 5]}, "exactly 1"),
        ({"op": "scale", "value": 2, "args": []}, "exactly 1"),
        ({"op": "add", "args": [0, 0], "value": 1}, "takes the keys"),
        ({"op": "scale", "args": [0]}, "takes the keys"),
        ({"op": "const", "value": 1, "index": 0}, "takes the keys"),
        (["add", 0, 0], "must be an object"),
    ])
    def test_from_dict_rejects_records_of_other_circuits(self, gate, message):
        record = {"p": 3, "inputs": 1, "gates": [{"op": "input", "index": 0}, gate],
                  "output": 1}
        with pytest.raises(ValueError, match=message):
            Circuit.from_dict(record)

    def test_from_dict_rejects_unknown_record_keys(self):
        circ = lower(max_p3(PolyRing(3, 2)), "nested_horner")
        record = circ.to_dict()
        assert Circuit.from_dict(record) == circ
        with pytest.raises(ValueError, match="keys p, inputs, gates and output"):
            Circuit.from_dict({**record, "depth": 3})
        with pytest.raises(ValueError, match="must be an object"):
            Circuit.from_dict([record])

    def test_builder_constant_folding(self):
        b = CircuitBuilder(5, 2)
        assert b.const_value(b.mul(b.const(2), b.const(3))) == 1
        x = b.input(0)
        assert b.add(x, b.const(0)) == x
        assert b.mul(x, b.const(1)) == x
        assert b.const_value(b.mul(x, b.const(0))) == 0
        # subtraction from zero becomes a scale by p-1
        ref = b.sub(b.const(0), x)
        circ = b.finish(ref)
        assert circ.gates[-1][0] == "scale" and circ.gates[-1][1] == 4

    def test_finish_prunes_unreachable(self):
        b = CircuitBuilder(3, 2)
        b.mul(b.input(0), b.input(1))  # dead
        keep = b.add(b.input(0), b.input(1))
        circ = b.finish(keep)
        assert all(g[0] != "mul" for g in circ.gates)
