"""Differential tests: the circuit back end against its straightforward form.

The references below are the set-and-stack ``finish``, the builder's
memoised ``power``, its ``mul``-per-pair ``product``, the validator with a
separate argument helper, the value-numbering CSE and the ``max``-based
``cost``, kept here as they were written before the single-pass rewrite of
``circuit``, and ``run_all``'s loop from before it ran on stored tables: one
list of p^n ints per wire and one comprehension per gate.  Random
polynomials must lower to the same gate tuples, outputs and cost reports
through both;
random malformed gate lists must get the same verdict and message as from
the old validator extended with the rule that gate references, input
indices and the output are ints (checked just before each range test), and
the same as from the old validator itself where that rule does not apply;
the shared lowering behind ``stats`` must give, gate for gate, the CSE'd
plain lowering, and ``stats``' rows must equal the cost reports of the
plain and the CSE'd circuits; random builder calls on the sharing builder
must give the CSE'd circuit of the same calls on the plain builder, and
count its compound gates; every lowered circuit must agree with
``Polynomial.eval`` and ``values()``;
and ``run_all`` must return the list loop's values, in the packed form
(``polyring._pack``), on random circuits, the catalog grids at every
modulus and the benchmark's circuit cases.  Each input wire must be digit
i of the point index, as ``point_at`` decodes it: at p = 2 up to 2^17
points, and at p = 3, 5, 13, 17, 131, 257 and 263.  On the benchmark's
cases with at least 400 terms, ``run_all`` must hold fewer than half as many
wires at once as a naive circuit has terms.
"""

from collections import Counter
from itertools import accumulate

from hypothesis import example, given, settings, strategies as st
import pytest

from fpminpoly import circuit as circuit_module
from fpminpoly.circuit import (STRATEGIES, Circuit, CircuitBuilder, CostReport, _lower_shared,
                               _SharingBuilder, cost, eliminate_common_subexpressions, lower,
                               run, run_all)
from fpminpoly.cli import _stats_rows
from fpminpoly.ff import PrimeField
from fpminpoly.formulas import CATALOG, build_formula
from fpminpoly.oracle import point_at
from fpminpoly.polyring import PolyRing, _pack

#: Largest arity per modulus that keeps the naive lowering small.
MAX_ARITY = {2: 6, 3: 3, 5: 2, 7: 2}

#: Largest arity per modulus of the random circuits: MAX_ARITY plus the two
#: largest primes whose products are pair codes, the first prime past them,
#: whose products are a comprehension, and two primes past 128, where tables
#: are tuples.
RUN_ARITY = {**MAX_ARITY, 11: 2, 13: 2, 17: 2, 131: 1, 257: 1}

#: The circuit-stats benchmark cases (func, p, n, r).
CIRCUIT_CASES = (("max2", 2, 14, 0), ("argmax2", 2, 14, 1), ("max", 3, 6, 0),
                 ("argmax", 3, 6, 0), ("ismax3", 3, 5, 0), ("max", 5, 4, 0),
                 ("carry", 13, 2, 0), ("maxn2", 13, 2, 0),
                 ("max2", 2, 8, 0), ("argmax3n3", 3, 3, 0), ("maxn2", 7, 2, 0))

_BINARY = ("add", "sub", "mul")
_GATE_LEN = {"input": 2, "const": 2, "add": 3, "sub": 3, "mul": 3, "scale": 3}


def reference_gate_args(gate):
    op = gate[0]
    if op in _BINARY:
        return (gate[1], gate[2])
    if op == "scale":
        return (gate[2],)
    return ()


def reference_validate(p, n_inputs, gates, output, ints=False):
    """The validator as it was: one helper call per gate for its arguments.

    With ``ints``, each range test of the input count, an input index, a gate
    reference or the output is preceded by the rule that the value is an int.
    """
    def need_int(value, message):
        if ints and type(value) is not int:
            raise ValueError(message)

    field = PrimeField(p)
    need_int(n_inputs, f"input count {n_inputs!r} is not an int")
    if n_inputs < 0:
        raise ValueError("input count must be nonnegative")
    for idx, gate in enumerate(gates):
        op = gate[0] if gate else None
        if op not in _GATE_LEN:
            raise ValueError(f"gate {idx}: unknown op {op!r}")
        if len(gate) != _GATE_LEN[op]:
            raise ValueError(f"gate {idx}: {op} gate needs {_GATE_LEN[op] - 1} "
                             f"fields after the op, got {gate!r}")
        if op == "input":
            need_int(gate[1], f"gate {idx}: input index {gate[1]!r} is not an int")
            if not 0 <= gate[1] < n_inputs:
                raise ValueError(f"gate {idx}: input index {gate[1]} out of range")
        elif op in ("const", "scale"):
            field.check(gate[1])
        for ref in reference_gate_args(gate):
            need_int(ref, f"gate {idx} references {ref!r}, which is not an int")
            if not 0 <= ref < idx:
                raise ValueError(
                    f"gate {idx} references gate {ref}, which is not earlier")
    need_int(output, f"output reference {output!r} is not an int")
    if not 0 <= output < len(gates):
        raise ValueError("output reference out of range")


class ReferenceBuilder(CircuitBuilder):
    """The builder with its old ``input``, ``mul``, ``product``, ``power``
    and ``finish``; ``finish`` returns ``(gates, output)``."""

    def input(self, i):
        if not 0 <= i < self.n_inputs:
            raise ValueError(f"input index {i} out of range [0, {self.n_inputs})")
        if i not in self._input_cache:
            self._input_cache[i] = self._emit(("input", i))
        return self._input_cache[i]

    def mul(self, a, b):
        ca, cb = self._const_of[a], self._const_of[b]
        if ca is not None and cb is not None:
            return self.const(ca * cb)
        if ca is not None:
            return self.scale(ca, b)
        if cb is not None:
            return self.scale(cb, a)
        return self._emit(("mul", a, b))

    def product(self, refs):
        if not refs:
            return self.const(1)
        layer = list(refs)
        while len(layer) > 1:
            nxt = [self.mul(layer[i], layer[i + 1]) for i in range(0, len(layer) - 1, 2)]
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        return layer[0]

    def power(self, ref, k):
        if k < 1:
            raise ValueError("power expects a positive exponent")
        memo = {1: ref}

        def go(e):
            if e not in memo:
                memo[e] = self.mul(go((e + 1) // 2), go(e // 2))
            return memo[e]

        return go(k)

    def finish(self, output):
        needed = set()
        stack = [output]
        while stack:
            ref = stack.pop()
            if ref in needed:
                continue
            needed.add(ref)
            stack.extend(reference_gate_args(self._gates[ref]))
        remap = {}
        kept = []
        for idx in range(len(self._gates)):
            if idx not in needed:
                continue
            gate = self._gates[idx]
            op = gate[0]
            if op in _BINARY:
                gate = (op, remap[gate[1]], remap[gate[2]])
            elif op == "scale":
                gate = ("scale", gate[1], remap[gate[2]])
            remap[idx] = len(kept)
            kept.append(gate)
        return tuple(kept), remap[output]


def reference_lower(f, strategy):
    """``lower`` through the reference builder; returns ``(gates, output)``."""
    ring = f.ring
    b = ReferenceBuilder(ring.p, ring.n)
    if strategy == "naive_monomial":
        # Each term is added to the running sum as it is made.
        out = None
        for exps, c in f.support():
            factors = [b.power(b.input(i), e) for i, e in enumerate(exps) if e]
            term = b.scale(c, b.product(factors)) if factors else b.const(c)
            out = term if out is None else b.add(out, term)
        if out is None:
            out = b.const(0)
    else:
        out = circuit_module._lower_by_variable(b, ring.p, f.coeffs, ring.n)
    return b.finish(out)


def reference_cse(gates, output):
    seen = {}
    remap = []
    kept = []
    for gate in gates:
        op = gate[0]
        if op in ("add", "mul"):
            a, c = remap[gate[1]], remap[gate[2]]
            if a > c:
                a, c = c, a
            key = (op, a, c)
        elif op == "sub":
            key = (op, remap[gate[1]], remap[gate[2]])
        elif op == "scale":
            key = (op, gate[1], remap[gate[2]])
        else:
            key = gate
        if key in seen:
            remap.append(seen[key])
        else:
            seen[key] = len(kept)
            remap.append(len(kept))
            kept.append(key)
    return tuple(kept), remap[output]


def reference_cost(gates, output):
    depth = [0] * len(gates)
    muls = adds = scales = 0
    for idx, gate in enumerate(gates):
        op = gate[0]
        if op == "mul":
            muls += 1
            depth[idx] = max(depth[gate[1]], depth[gate[2]]) + 1
        elif op in ("add", "sub"):
            adds += 1
            depth[idx] = max(depth[gate[1]], depth[gate[2]])
        elif op == "scale":
            scales += 1
            depth[idx] = depth[gate[2]]
    return CostReport(muls, adds, scales, depth[output])


def reference_run_all(circuit):
    """Every point's value: a list of p^n ints per wire, one comprehension
    per gate, each wire dropped after the last gate that reads it.  The
    output list is returned in the stored form (``_pack``)."""
    p, gates = circuit.p, circuit.gates
    size = p ** circuit.n_inputs
    last = list(range(len(gates)))
    for idx, gate in enumerate(gates):
        for ref in reference_gate_args(gate):
            last[ref] = idx
    last[circuit.output] = len(gates)
    vecs = [None] * len(gates)
    for idx, gate in enumerate(gates):
        op = gate[0]
        if op == "input":
            s = p ** gate[1]
            pattern = [v for v in range(p) for _ in range(s)]
            vecs[idx] = pattern * (size // (s * p))
            continue
        if op == "const":
            vecs[idx] = [gate[1]] * size
            continue
        b = gate[2]
        if op == "scale":
            c = gate[1]
            vecs[idx] = [(c * x) % p for x in vecs[b]]
        else:
            a = gate[1]
            if op == "add":
                vecs[idx] = [(x + y) % p for x, y in zip(vecs[a], vecs[b])]
            elif op == "sub":
                vecs[idx] = [(x - y) % p for x, y in zip(vecs[a], vecs[b])]
            else:
                vecs[idx] = [(x * y) % p for x, y in zip(vecs[a], vecs[b])]
            if last[a] == idx:
                vecs[a] = None
        if last[b] == idx:
            vecs[b] = None
    return _pack(vecs[circuit.output], p)


@st.composite
def polynomials(draw):
    """A random canonical polynomial: dense, sparse, or a small catalog form."""
    kind = draw(st.sampled_from(["dense", "sparse", "catalog"]))
    if kind == "catalog":
        name = draw(st.sampled_from(sorted(CATALOG)))
        small = [c for c in CATALOG[name].verify_grid if c[0] ** c[1] <= 64]
        if small:
            return build_formula(name, *draw(st.sampled_from(small)))
    p = draw(st.sampled_from(sorted(MAX_ARITY)))
    ring = PolyRing(p, draw(st.integers(1, MAX_ARITY[p])))
    if kind == "dense":
        return ring.from_coeffs(draw(st.lists(st.integers(0, p - 1),
                                              min_size=ring.size, max_size=ring.size)))
    coeffs = [0] * ring.size
    for pos in draw(st.lists(st.integers(0, ring.size - 1), max_size=5)):
        coeffs[pos] = draw(st.integers(1, p - 1))
    return ring.from_coeffs(coeffs)


class TestLoweringAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(polynomials())
    def test_same_gates_outputs_and_costs(self, f):
        for strategy in STRATEGIES:
            gates, output = reference_lower(f, strategy)
            reference_validate(f.ring.p, f.ring.n, gates, output)
            circ = lower(f, strategy)
            assert (circ.gates, circ.output) == (gates, output), strategy
            assert cost(circ) == reference_cost(gates, output)
            shared_gates, shared_output = reference_cse(gates, output)
            shared = eliminate_common_subexpressions(circ)
            assert (shared.gates, shared.output) == (shared_gates, shared_output)
            assert cost(shared) == reference_cost(shared_gates, shared_output)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_product_and_power_with_constants(self, count, data):
        # Mixed constant and wire operands reach the folding branches of mul.
        p = data.draw(st.sampled_from(sorted(MAX_ARITY)))
        new, old = CircuitBuilder(p, 3), ReferenceBuilder(p, 3)
        picks = data.draw(st.lists(st.tuples(st.booleans(), st.integers(0, p - 1),
                                             st.integers(1, 9)),
                                   min_size=count, max_size=count))
        outs = []
        for b in (new, old):
            refs = [b.const(v) if is_const else b.power(b.input(v % 3), k)
                    for is_const, v, k in picks]
            outs.append(b.product(refs))
        assert new._gates == old._gates and new._const_of == old._const_of
        assert outs[0] == outs[1]
        circ = new.finish(outs[0])
        assert (circ.gates, circ.output) == old.finish(outs[1])

    def test_finish_drops_dead_gates_in_the_middle(self):
        new, old = CircuitBuilder(5, 3), ReferenceBuilder(5, 3)
        for b in (new, old):
            x, y, z = b.input(0), b.input(1), b.input(2)
            b.mul(x, y)  # dead
            keep = b.add(x, z)
            b.mul(keep, keep)  # dead, after the output's arguments
            b.scale(3, b.sub(keep, y))
        circ = new.finish(len(new._gates) - 1)
        assert (circ.gates, circ.output) == old.finish(len(old._gates) - 1)
        assert circ.output == len(circ.gates) - 1
        mid = new.finish(3)
        assert (mid.gates, mid.output) == old.finish(3)


def unshared_stats_rows(f):
    """``stats``' rows the long way: ``lower``, then CSE, then ``cost``."""
    rows = []
    for strategy in STRATEGIES:
        base = lower(f, strategy)
        for use_cse, circ in ((False, base), (True, eliminate_common_subexpressions(base))):
            rows.append({"strategy": strategy, "cse": use_cse, "gates": len(circ.gates),
                         **cost(circ).to_dict()})
    return rows


def assert_shared_lowering_matches(f):
    """The stats rows equal the long way's, and each shared circuit is,
    gate for gate, the CSE'd circuit of the plain lowering."""
    assert _stats_rows(f) == unshared_stats_rows(f)
    for strategy in STRATEGIES:
        shared, _counts = _lower_shared(f, strategy)
        assert shared == eliminate_common_subexpressions(lower(f, strategy)), strategy


class TestSharedLoweringAgainstCSE:
    @settings(max_examples=150, deadline=None)
    @given(polynomials())
    def test_random_polynomials(self, f):
        assert_shared_lowering_matches(f)

    def test_catalog_grids(self):
        for name, entry in sorted(CATALOG.items()):
            for p, n, r in entry.verify_grid:
                assert_shared_lowering_matches(build_formula(name, p, n, r))

    @pytest.mark.parametrize("case", CIRCUIT_CASES, ids=lambda case: "-".join(map(str, case)))
    def test_circuit_stats_cases(self, case):
        assert_shared_lowering_matches(build_formula(*case))

    def test_max_p3_n15_nested_horner(self):
        # Too large to lower unshared; the memoised slices build it directly.
        shared, _counts = _lower_shared(build_formula("max", 3, 15), "nested_horner")
        assert len(shared.gates) == 247


@st.composite
def builder_calls(draw):
    """A modulus, an arity and a sequence of builder calls.  Powers, products
    and sums name earlier results by position (mod their count), so products
    repeat refs and mix constants in, and sums hold constants.  A monomial
    sum takes ``(exps, c)`` terms with nonzero coefficients, as the naive
    lowering passes them, and may repeat a term or reuse an earlier power."""
    p = draw(st.sampled_from(sorted(MAX_ARITY)))
    n = draw(st.integers(1, 3))
    position = st.integers(0, 10 ** 6)
    term = st.tuples(st.tuples(*[st.integers(0, p - 1)] * n), st.integers(1, p - 1))
    calls = draw(st.lists(st.one_of(
        st.tuples(st.just("input"), st.integers(0, n - 1)),
        st.tuples(st.just("const"), st.integers(0, p - 1)),
        st.tuples(st.just("power"), position, st.integers(1, 9)),
        st.tuples(st.sampled_from(["product", "sum"]), st.lists(position, max_size=7)),
        st.tuples(st.just("_monomial_sum"), st.lists(term, max_size=6))),
        max_size=25))
    return p, n, calls


def replay(b, calls):
    """The result of each call of ``calls`` on builder ``b``, after input 0."""
    results = [b.input(0)]
    for op, *args in calls:
        if op == "input" or op == "const":
            results.append(getattr(b, op)(args[0]))
        elif op == "power":
            results.append(b.power(results[args[0] % len(results)], args[1]))
        elif op == "_monomial_sum":
            results.append(b._monomial_sum(args[0]))
        else:
            results.append(getattr(b, op)([results[j % len(results)] for j in args[0]]))
    return results


class TestSharingBuilderAgainstCSE:
    @settings(max_examples=200, deadline=None)
    @given(builder_calls())
    # Products and sums with no constant operand, repeated refs, a shared pair.
    @example((3, 2, [("input", 1), ("power", 0, 2), ("product", [0, 1, 0, 2, 1]),
                     ("product", [1, 0]), ("sum", [3, 4, 3, 0])]))
    # Constant product and sum operands, all-constant and empty ones.
    @example((3, 2, [("const", 2), ("product", [0, 1, 0]), ("sum", [0, 1, 2]),
                     ("product", [1, 1]), ("sum", []), ("product", [])]))
    # Monomial sums: a constant term first, a power built by an earlier
    # ``power`` call and one built inside, a repeated term, a unit and a
    # non-unit coefficient, and an empty sum.
    @example((3, 2, [("power", 0, 2), ("_monomial_sum", [((0, 0), 2), ((2, 1), 1),
                                                          ((1, 2), 2), ((2, 1), 1)]),
                     ("_monomial_sum", [((0, 2), 1), ((2, 2), 2)]), ("_monomial_sum", [])]))
    # Repeated constant terms that cancel, so the next term's add folds.
    @example((2, 3, [("_monomial_sum", [((0, 0, 0), 1), ((0, 0, 0), 1), ((0, 0, 1), 1)])]))
    def test_builder_calls(self, case):
        """The same calls on ``_SharingBuilder`` give, gate for gate and ref
        for ref, the CSE'd circuit of a plain builder, and count that
        builder's compound gates: ``product``, ``sum`` and ``power`` through
        ``CircuitBuilder``'s, ``power`` memoised, and ``_monomial_sum``
        through the one-step override that reads ``power``'s memo."""
        p, n, calls = case
        shared, plain = _SharingBuilder(p, n), CircuitBuilder(p, n)
        outs, plain_outs = replay(shared, calls), replay(plain, calls)
        tallies = Counter(gate[0] for gate in plain._gates)
        assert shared.counts == {op: tallies[op] for op in ("mul", "add", "sub", "scale")}
        for out, plain_out in zip(outs, plain_outs):
            cse = eliminate_common_subexpressions(Circuit(p, n, plain._gates, plain_out))
            assert (cse.gates, cse.output) == (tuple(shared._gates), out)


#: Field values for the malformed gate lists: mostly small ints, some out of
#: range, and a few non-ints.
FIELD_VALUES = st.one_of(st.integers(-2, 8), st.sampled_from([0.5, 1.0, True, "1", None]))


@st.composite
def malformed_circuits(draw):
    p = draw(st.sampled_from([2, 3, 4, 5]))
    n_inputs = draw(st.integers(-1, 3))
    gates = []
    for _ in range(draw(st.integers(0, 6))):
        op = draw(st.sampled_from(["input", "const", "add", "sub", "mul", "scale",
                                   "nand", None]))
        width = draw(st.sampled_from([_GATE_LEN.get(op, 2)] * 4 + [0, 1, 2, 3, 4]))
        gate = (op,) + tuple(draw(FIELD_VALUES) for _ in range(width - 1))
        gates.append(gate if width else ())
    return p, n_inputs, tuple(gates), draw(FIELD_VALUES)


def _non_int_reference(gates, output):
    """Whether a gate reference, an input index or the output is not an int."""
    if type(output) is not int:
        return True
    for gate in gates:
        if not gate or len(gate) != _GATE_LEN.get(gate[0]):
            continue
        if gate[0] in _BINARY or gate[0] == "input":
            fields = gate[1:]
        elif gate[0] == "scale":
            fields = gate[2:]
        else:
            fields = ()
        if any(type(v) is not int for v in fields):
            return True
    return False


def _verdict(make):
    try:
        make()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return None


class TestValidationAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(malformed_circuits())
    def test_same_verdict_and_message(self, case):
        p, n_inputs, gates, output = case
        new = _verdict(lambda: Circuit(p, n_inputs, gates, output))
        assert new == _verdict(lambda: reference_validate(p, n_inputs, gates, output,
                                                          ints=True))
        if not _non_int_reference(gates, output):
            assert new == _verdict(lambda: reference_validate(p, n_inputs, gates, output))


@st.composite
def valid_circuits(draw):
    p = draw(st.sampled_from(sorted(RUN_ARITY)))
    n_inputs = draw(st.integers(0, RUN_ARITY[p]))
    gates = []
    for idx in range(draw(st.integers(1, 30))):
        ops = ["const"] + (["input"] if n_inputs else []) \
            + (["add", "sub", "mul", "mul", "scale"] if idx else [])
        op = draw(st.sampled_from(ops))
        if op == "input":
            gates.append(("input", draw(st.integers(0, n_inputs - 1))))
        elif op == "const":
            gates.append(("const", draw(st.integers(0, p - 1))))
        elif op == "scale":
            gates.append(("scale", draw(st.integers(0, p - 1)), draw(st.integers(0, idx - 1))))
        else:
            gates.append((op, draw(st.integers(0, idx - 1)), draw(st.integers(0, idx - 1))))
    return Circuit(p, n_inputs, tuple(gates), draw(st.integers(0, len(gates) - 1)))


class TestEvaluationAgreement:
    @settings(max_examples=100, deadline=None)
    @given(polynomials())
    def test_eval_values_run_and_run_all_agree(self, f):
        ring = f.ring
        values = f.values()
        for idx in range(ring.size):
            assert f.eval(point_at(ring.p, ring.n, idx)) == values[idx]
        for strategy in STRATEGIES:
            base = lower(f, strategy)
            for circ in (base, eliminate_common_subexpressions(base)):
                assert run_all(circ) == values
                for idx in range(ring.size):
                    assert run(circ, point_at(ring.p, ring.n, idx)) == values[idx]

    @settings(max_examples=150, deadline=None)
    @given(valid_circuits())
    def test_random_circuits(self, circ):
        # Arbitrary DAGs: shared wires, repeated operands and dead gates
        # exercise run_all's last-use frees and CSE beyond lowered shapes.
        values = run_all(circ)
        size = circ.p ** circ.n_inputs
        assert tuple(values) == tuple(run(circ, point_at(circ.p, circ.n_inputs, idx))
                                      for idx in range(size))
        assert values == reference_run_all(circ)
        assert cost(circ) == reference_cost(circ.gates, circ.output)
        shared = eliminate_common_subexpressions(circ)
        assert (shared.gates, shared.output) == reference_cse(circ.gates, circ.output)
        assert run_all(shared) == values


def _lowered(f):
    """Both strategies' circuits for ``f``, each with and without CSE."""
    for strategy in STRATEGIES:
        base = lower(f, strategy)
        yield base
        yield eliminate_common_subexpressions(base)


#: Hand-made circuits at the edges of the stored forms: no inputs (one point),
#: an input as the output, scale by 0, p = 2 outputs of all zeros (whose
#: binary digits are the single "0") and all ones, and every binary gate on
#: the input tables past p = 128, where an unpacked bytes digit plane (at
#: 131) would carry between byte lanes.
EDGE_CIRCUITS = (
    *(Circuit(p, 0, (("const", p - 1),), 0) for p in (2, 3, 17)),
    *(Circuit(p, 0, (("const", 1), ("scale", 0, 0), ("add", 0, 1)), 2) for p in (2, 3, 17)),
    *(Circuit(p, 3, (("input", 0), ("input", 2), ("mul", 0, 1)), 1) for p in (2, 3, 17)),
    *(Circuit(p, 2, (("input", 1), ("scale", 0, 0)), 1) for p in (2, 3, 13, 17)),
    Circuit(2, 5, (("input", 3), ("sub", 0, 0)), 1),
    Circuit(2, 5, (("input", 3), ("input", 0), ("mul", 0, 1), ("add", 2, 2)), 3),
    Circuit(2, 5, (("const", 1), ("input", 4), ("scale", 1, 0)), 2),
    Circuit(2, 4, (("input", 1), ("const", 1), ("add", 0, 1), ("add", 0, 2)), 3),
    *(Circuit(p, 1, (("input", 0), ("add", 0, 0), ("mul", 1, 0), ("sub", 2, 1)), 3)
      for p in (131, 257)),
)


#: Input wires at p = 2 up to 2^17 points, on the planes at p = 3, on bytes
#: and past p = 128, where values are tuples: from a bytes digit plane up to
#: p = 256 and from an ``array('H')`` one above.
INPUT_WIRE_RINGS = ([(2, n) for n in range(1, 18)] + [(3, n) for n in range(1, 10)]
                    + [(5, n) for n in range(1, 7)] + [(13, n) for n in range(1, 5)]
                    + [(17, n) for n in range(1, 4)] + [(131, 1), (131, 2)]
                    + [(257, 1), (257, 2), (263, 1), (263, 2)])


#: Every modulus on the catalog grids.
GRID_MODULI = sorted({p for entry in CATALOG.values() for p, _, _ in entry.verify_grid})


def peak_live_wires(circ):
    """The most wires ``run_all`` holds at once: each input wire from the
    start and every other wire from its gate, up to the last gate that reads
    it (``_last_uses``)."""
    last = circuit_module._last_uses(circ)
    change = [0] * (len(circ.gates) + 2)
    for idx, gate in enumerate(circ.gates):
        change[0 if gate[0] == "input" else idx] += 1
        change[last[idx] + 1] -= 1
    return max(accumulate(change))


class TestRunAllAgainstReference:
    @pytest.mark.parametrize("modulus", GRID_MODULI)
    def test_catalog_grids(self, modulus):
        for name, entry in sorted(CATALOG.items()):
            for p, n, r in entry.verify_grid:
                if p == modulus:
                    f = build_formula(name, p, n, r)
                    for circ in _lowered(f):
                        assert run_all(circ) == reference_run_all(circ), (name, p, n, r)

    @pytest.mark.parametrize("case", CIRCUIT_CASES, ids=lambda case: "-".join(map(str, case)))
    def test_circuit_stats_cases(self, case):
        # The list loop needs about 1 s per 2^22 gate entries; past that
        # (the p = 2 arity-14 circuits other than CSE'd Horner) the values
        # table is the reference.
        f = build_formula(*case)
        values = f.values()
        for circ in _lowered(f):
            expected = (reference_run_all(circ) if len(circ.gates) * len(values) <= 1 << 22
                        else values)
            assert run_all(circ) == expected == values

    def test_naive_terms_die_at_their_adds(self):
        # Each term is added to the running sum as it is made; a sum of all
        # the terms at the end would hold every term's wire at once.
        large = []
        for case in CIRCUIT_CASES:
            f = build_formula(*case)
            terms = len(f.support())
            if terms >= 400:
                large.append(case)
                for circ in (lower(f, "naive_monomial"), _lower_shared(f, "naive_monomial")[0]):
                    assert peak_live_wires(circ) < terms / 2, (case, len(circ.gates))
        assert large

    @pytest.mark.parametrize("circ", EDGE_CIRCUITS)
    def test_edge_circuits(self, circ):
        values = run_all(circ)
        assert values == reference_run_all(circ)
        assert tuple(values) == tuple(run(circ, point_at(circ.p, circ.n_inputs, idx))
                                      for idx in range(circ.p ** circ.n_inputs))
        assert all(type(v) is int for v in values)

    @pytest.mark.parametrize("p,n", INPUT_WIRE_RINGS,
                             ids=[str(n) if p == 2 else f"{p}^{n}" for p, n in INPUT_WIRE_RINGS])
    def test_p2_input_wires_are_the_index_bits(self, p, n):
        # Built from polyring's axis masks at p = 2 and p = 3 and its digit
        # planes otherwise; each must be digit i of the point index.
        points = [point_at(p, n, k) for k in range(p ** n)]
        for i in range(n):
            got = run_all(Circuit(p, n, (("input", i),), 0))
            assert got == _pack([point[i] for point in points], p), i
