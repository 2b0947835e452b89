"""Arithmetic circuits over F_p: lowering, CSE, evaluation, cost metrics.

A circuit is a DAG of gates in topological order; gate kinds are input,
const, add, sub, mul and scale (multiplication by a constant).  The cost
model mirrors the usual leveled-homomorphic accounting: additions and
constant multiplications are depth-free, only products of two non-constant
wires grow the multiplicative depth.  Lowering therefore emits ``scale``
whenever one factor is a known constant, and ``mul`` only for real
wire-times-wire products.

Gates are plain tuples::

    ("input", i)     ("const", v)      ("add", a, b)
    ("sub", a, b)    ("mul", a, b)     ("scale", c, a)

where a, b are indices of earlier gates.

``lower`` builds the unshared circuit of a strategy and
``eliminate_common_subexpressions`` shares its identical gates.  ``stats``
takes neither path: ``_lower_shared`` runs the same strategy code on a
builder that hash-conses each gate under CSE's key as it is emitted, so it
builds only the shared circuit, and it counts the unshared circuit's mul,
add and scale gates as they are emitted instead of building them.

``run_all`` carries all p^n points through each gate at once, each wire a
table in ``polyring``'s stored form (``polyring._store``): an int of p^n
bits at p = 2, two such planes at p = 3, ``bytes`` for p < 128 and a tuple
above.  ``polyring`` also supplies the input and constant tables and runs
every gate: const, add, sub and scale are its column combine and mul is
its entrywise product, the one behind ``Polynomial.__mul__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
import json
from typing import Sequence

from .ff import PrimeField
from .polyring import (DEFAULT_MAX_TABLE_SIZE, Polynomial, SizeGuardError, _combine,
                       _input_values, _ones, _product, _unstore, bounded_power)

STRATEGIES = ("naive_monomial", "nested_horner")

#: Tuple length of each gate kind, op name included.
_GATE_LEN = {"input": 2, "const": 2, "add": 3, "sub": 3, "mul": 3, "scale": 3}

#: The keys of a circuit record and of each of its gate records by op.
_RECORD_KEYS = {"p", "inputs", "gates", "output"}
_GATE_KEYS = {"input": {"op", "index"}, "const": {"op", "value"},
              "scale": {"op", "value", "args"}, "add": {"op", "args"},
              "sub": {"op", "args"}, "mul": {"op", "args"}}


def _ref_error(idx: int, refs: tuple) -> ValueError:
    """The error for gate ``idx`` whose references ``refs`` hold a bad one."""
    for ref in refs:
        if type(ref) is not int:
            return ValueError(f"gate {idx} references {ref!r}, which is not an int")
        if not 0 <= ref < idx:
            break
    return ValueError(f"gate {idx} references gate {ref}, which is not earlier")


@dataclass(frozen=True)
class Circuit:
    """An immutable gate list with a single designated output.

    Construction validates in one pass over the gates: the modulus (as
    ``PrimeField`` does), the input count (a nonnegative int), the gates (an
    iterable), each op and its tuple length, each input index (an int below
    ``n_inputs``), each const and scale value (a canonical field element),
    each gate reference (an int naming an earlier gate) and the output (an
    int naming a gate).
    Breaking any of these rules raises ``ValueError``; ``bool`` and
    ``float`` do not count as ints.  Gates are stored as a tuple of tuples.
    """

    p: int
    n_inputs: int
    gates: tuple[tuple, ...]
    output: int

    def __post_init__(self):
        field = PrimeField(self.p)
        p = field.p
        n_inputs = self.n_inputs
        if type(n_inputs) is not int:
            raise ValueError(f"input count {n_inputs!r} is not an int")
        if n_inputs < 0:
            raise ValueError("input count must be nonnegative")
        try:
            gates = tuple(self.gates)
        except TypeError:
            raise ValueError(f"gates must be an iterable of gates, got {self.gates!r}") from None
        for idx, gate in enumerate(gates):
            try:
                op = gate[0] if gate else None
                size = _GATE_LEN.get(op)
                if size is None:
                    raise ValueError(f"gate {idx}: unknown op {op!r}")
                if len(gate) != size:
                    raise ValueError(f"gate {idx}: {op} gate needs {size - 1} "
                                     f"fields after the op, got {gate!r}")
                if op == "mul" or op == "add" or op == "sub":
                    a, b = gate[1], gate[2]
                    if not (type(a) is int and type(b) is int and 0 <= a < idx and 0 <= b < idx):
                        raise _ref_error(idx, (a, b))
                elif op == "scale":
                    c, a = gate[1], gate[2]
                    if not (type(c) is int and 0 <= c < p):
                        field.check(c)
                    if not (type(a) is int and 0 <= a < idx):
                        raise _ref_error(idx, (a,))
                elif op == "const":
                    v = gate[1]
                    if not (type(v) is int and 0 <= v < p):
                        field.check(v)
                else:
                    v = gate[1]
                    if type(v) is not int:
                        raise ValueError(f"gate {idx}: input index {v!r} is not an int")
                    if not 0 <= v < n_inputs:
                        raise ValueError(f"gate {idx}: input index {v} out of range")
            except (KeyError, TypeError, IndexError) as exc:
                raise ValueError(f"gate {idx}: malformed gate {gate!r}") from exc
        output = self.output
        if type(output) is not int:
            raise ValueError(f"output reference {output!r} is not an int")
        if not 0 <= output < len(gates):
            raise ValueError("output reference out of range")
        object.__setattr__(self, "gates", tuple(map(tuple, gates)))

    def to_dict(self) -> dict:
        out = []
        for gate in self.gates:
            op = gate[0]
            if op == "input":
                out.append({"op": "input", "index": gate[1]})
            elif op == "const":
                out.append({"op": "const", "value": gate[1]})
            elif op == "scale":
                out.append({"op": "scale", "value": gate[1], "args": [gate[2]]})
            else:
                out.append({"op": op, "args": [gate[1], gate[2]]})
        return {"p": self.p, "inputs": self.n_inputs, "gates": out, "output": self.output}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_dict(data: dict) -> "Circuit":
        """The circuit of a ``to_dict`` record.

        A key that ``to_dict`` never writes, or an ``args`` list of the
        wrong length (one reference for scale, two for add, sub and mul),
        raises ``ValueError`` instead of loading as some other circuit.
        """
        try:
            if not isinstance(data, dict) or data.keys() - _RECORD_KEYS:
                raise ValueError("circuit record must be an object with the keys "
                                 "p, inputs, gates and output only")
            gates = []
            for idx, g in enumerate(data["gates"]):
                if not isinstance(g, dict):
                    raise ValueError(f"gate {idx}: record must be an object, got {g!r}")
                op = g["op"]
                keys = _GATE_KEYS.get(op) if isinstance(op, str) else None
                if keys is None:
                    raise ValueError(f"unknown op {op!r}")
                if g.keys() != keys:
                    raise ValueError(f"gate {idx}: {op} takes the keys "
                                     f"{', '.join(sorted(keys))}, got "
                                     f"{', '.join(sorted(map(str, g)))}")
                if op == "input":
                    gates.append(("input", g["index"]))
                elif op == "const":
                    gates.append(("const", g["value"]))
                else:
                    args, want = g["args"], 1 if op == "scale" else 2
                    if not isinstance(args, list) or len(args) != want:
                        raise ValueError(f"gate {idx}: args of {op} must be a list of "
                                         f"exactly {want} gate references, got {args!r}")
                    gates.append(("scale", g["value"], args[0]) if op == "scale"
                                 else (op, args[0], args[1]))
            return Circuit(data["p"], data["inputs"], tuple(gates), data["output"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed circuit record: {exc}") from exc

    @staticmethod
    def from_json(text: str) -> "Circuit":
        return Circuit.from_dict(json.loads(text))


@dataclass(frozen=True)
class CostReport:
    """Gate counts plus multiplicative depth.

    ``add_count`` covers both add and sub gates; ``mul_depth`` is the
    longest mul-weighted path from any input to the output (scale and add
    contribute nothing).
    """

    mul_count: int
    add_count: int
    scale_count: int
    mul_depth: int

    def to_dict(self) -> dict:
        return {"mul_count": self.mul_count, "add_count": self.add_count,
                "scale_count": self.scale_count, "mul_depth": self.mul_depth}


class CircuitBuilder:
    """Append-only gate emitter with constant folding and identity elision.

    Folding keeps lowered circuits honest about the depth model: products
    with known constants become scale gates, and units/zeros disappear
    instead of inflating counts.  Deliberately no structural sharing of
    compound gates; that is the job of the separate CSE pass.  ``stats``
    lowers into ``_SharingBuilder`` instead, which shares every gate as it
    is emitted and counts the gates this builder would emit.
    """

    def __init__(self, p: int, n_inputs: int):
        self.field = PrimeField(p)
        self.p = self.field.p
        self.n_inputs = n_inputs
        self._gates: list[tuple] = []
        self._const_of: list[int | None] = []
        self._const_cache: dict[int, int] = {}
        self._input_cache: dict[int, int] = {}

    def _emit(self, gate: tuple, const_value: int | None = None) -> int:
        self._gates.append(gate)
        self._const_of.append(const_value)
        return len(self._gates) - 1

    def const_value(self, ref: int) -> int | None:
        """The known constant value of a wire, or None."""
        return self._const_of[ref]

    def input(self, i: int) -> int:
        ref = self._input_cache.get(i)
        if ref is not None:
            return ref
        if not 0 <= i < self.n_inputs:
            raise ValueError(f"input index {i} out of range [0, {self.n_inputs})")
        ref = self._input_cache[i] = self._emit(("input", i))
        return ref

    def const(self, v: int) -> int:
        v %= self.p
        if v not in self._const_cache:
            self._const_cache[v] = self._emit(("const", v), v)
        return self._const_cache[v]

    def add(self, a: int, b: int) -> int:
        ca, cb = self._const_of[a], self._const_of[b]
        if ca is not None and cb is not None:
            return self.const(ca + cb)
        if ca == 0:
            return b
        if cb == 0:
            return a
        return self._emit(("add", a, b))

    def sub(self, a: int, b: int) -> int:
        ca, cb = self._const_of[a], self._const_of[b]
        if ca is not None and cb is not None:
            return self.const(ca - cb)
        if cb == 0:
            return a
        if ca == 0:
            return self.scale(self.p - 1, b)
        return self._emit(("sub", a, b))

    def mul(self, a: int, b: int) -> int:
        ca, cb = self._const_of[a], self._const_of[b]
        if ca is None and cb is None:
            return self._emit(("mul", a, b))
        if ca is not None and cb is not None:
            return self.const(ca * cb)
        if ca is not None:
            return self.scale(ca, b)
        return self.scale(cb, a)

    def scale(self, c: int, a: int) -> int:
        c %= self.p
        ca = self._const_of[a]
        if ca is not None:
            return self.const(c * ca)
        if c == 0:
            return self.const(0)
        if c == 1:
            return a
        return self._emit(("scale", c, a))

    def sum(self, refs: Sequence[int]) -> int:
        if not refs:
            return self.const(0)
        acc = refs[0]
        for ref in refs[1:]:
            acc = self.add(acc, ref)
        return acc

    def product(self, refs: Sequence[int]) -> int:
        """Balanced product tree: depth ceil(log2(len)) instead of a chain."""
        if not refs:
            return self.const(1)
        layer = list(refs)
        while len(layer) > 1:
            nxt = []
            pairs = iter(layer)
            for a, b in zip(pairs, pairs):
                nxt.append(self.mul(a, b))
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        return layer[0]

    def power(self, ref: int, k: int) -> int:
        """ref**k by halving (x^k = x^ceil(k/2) * x^floor(k/2)).

        Squaring-based like classic square-and-multiply but balanced, so
        the depth is exactly ceil(log2 k) for every k >= 1.
        """
        if k == 1:
            return ref
        if k < 1:
            raise ValueError("power expects a positive exponent")
        memo = {1: ref}

        def go(e: int) -> int:
            if e not in memo:
                memo[e] = self.mul(go((e + 1) // 2), go(e // 2))
            return memo[e]

        return go(k)

    def _lower_block(self, p: int, block: Sequence[int], nvars: int) -> int:
        """``_lower_by_variable`` of one slice; ``_SharingBuilder`` memoises it."""
        return _lower_by_variable(self, p, block, nvars)

    def finish(self, output: int) -> Circuit:
        """Drop gates unreachable from the output and renumber in order.

        Every argument names an earlier gate, so one sweep from the output
        down to gate 0 marks all reachable gates, and one forward sweep
        over those renumbers them.  When every gate is reachable, as in naive
        lowering, the gate list is kept as it is.  The result is validated
        like any other ``Circuit``.
        """
        gates = self._gates
        if not 0 <= output < len(gates):
            raise ValueError("output reference out of range")
        live = bytearray(len(gates))
        live[output] = 1
        for idx in range(output, -1, -1):
            if live[idx]:
                gate = gates[idx]
                op = gate[0]
                if op == "mul" or op == "add" or op == "sub":
                    live[gate[1]] = 1
                    live[gate[2]] = 1
                elif op == "scale":
                    live[gate[2]] = 1
        if 0 not in live:
            return Circuit(self.p, self.n_inputs, tuple(gates), output)
        remap = [0] * len(gates)
        kept: list[tuple] = []
        for idx in compress(range(len(gates)), live):
            gate = gates[idx]
            op = gate[0]
            if op == "mul" or op == "add" or op == "sub":
                gate = (op, remap[gate[1]], remap[gate[2]])
            elif op == "scale":
                gate = ("scale", gate[1], remap[gate[2]])
            remap[idx] = len(kept)
            kept.append(gate)
        return Circuit(self.p, self.n_inputs, tuple(kept), remap[output])


class _SharingBuilder(CircuitBuilder):
    """A builder that emits each distinct gate once, and counts the
    compound gates that ``CircuitBuilder`` would emit for the same calls.

    ``_emit`` counts each gate, then ``_share`` hash-conses it under CSE's
    key (``mul`` and ``add`` operands sorted, ``sub`` and ``scale`` as they
    are; CSE replays gates through ``_share`` alone), so a lowering run on
    this builder gives, gate for gate, the CSE'd circuit of the same
    lowering run on ``CircuitBuilder``.  ``counts`` tallies every mul, add,
    sub and scale emission, shared or not: these are the compound gates of
    that unshared circuit, all of them live (only folded leaf consts die).
    ``power`` and the nested Horner slices (``_lower_block``) are memoised
    with the counts their first call emitted, so a repeat costs one lookup
    and still counts in full.  Memory stays O(shared gates) plus one key
    per distinct slice.
    """

    def __init__(self, p: int, n_inputs: int):
        super().__init__(p, n_inputs)
        self.counts = dict.fromkeys(("mul", "add", "sub", "scale"), 0)
        self._refs: dict[tuple, int] = {}
        self._powers: dict[tuple, tuple] = {}
        self._blocks: dict[tuple, tuple] = {}

    def _emit(self, gate: tuple, const_value: int | None = None) -> int:
        op = gate[0]
        if op in self.counts:
            self.counts[op] += 1
        return self._share(gate, const_value)

    def _share(self, gate: tuple, const_value: int | None = None) -> int:
        """The wire of ``gate`` under CSE's key, appended the first time."""
        op = gate[0]
        if (op == "mul" or op == "add") and gate[1] > gate[2]:
            gate = (op, gate[2], gate[1])
        ref = self._refs.get(gate)
        if ref is None:
            ref = self._refs[gate] = len(self._gates)
            self._gates.append(gate)
            self._const_of.append(const_value)
        return ref

    def _memoised(self, memo: dict, key: tuple, build, *args) -> int:
        """``build(*args)``'s wire, built once per key; a repeat adds the
        counts of the first build again."""
        counts = self.counts
        hit = memo.get(key)
        if hit is None:
            before = dict(counts)
            ref = build(*args)
            memo[key] = hit = (ref, tuple((op, emitted - before[op])
                                          for op, emitted in counts.items()
                                          if emitted != before[op]))
        else:
            for op, emitted in hit[1]:
                counts[op] += emitted
        return hit[0]

    def power(self, ref: int, k: int) -> int:
        if k == 1:
            return ref
        return self._memoised(self._powers, (ref, k), CircuitBuilder.power, self, ref, k)

    def _lower_block(self, p: int, block: Sequence[int], nvars: int) -> int:
        return self._memoised(self._blocks, (block, nvars), _lower_by_variable,
                              self, p, block, nvars)


def _lower_by_variable(b: CircuitBuilder, p: int, coeffs: Sequence[int], nvars: int) -> int:
    """Split off the most significant variable and recurse on its slices.

    Each slice g_e multiplies x^e (powers built by halving, at depth
    ceil(log2 e)); the pieces are then summed.  Constant slices fold into
    scale gates, so a univariate never pays wire-times-wire depth for its
    coefficients.  Each slice is lowered through ``b._lower_block``.
    """
    if nvars == 0:
        return b.const(coeffs[0])
    stride = p ** (nvars - 1)
    pieces = []
    for e in range(p):
        block = coeffs[e * stride:(e + 1) * stride]
        if not any(block):
            continue
        sub = b._lower_block(p, block, nvars - 1)
        if e == 0:
            pieces.append(sub)
        else:
            pieces.append(b.mul(sub, b.power(b.input(nvars - 1), e)))
    return b.sum(pieces)


def _naive_monomial(b: CircuitBuilder, f: Polynomial) -> int:
    """One scaled product of powers per nonzero term, summed."""
    terms = []
    for exps, c in f.support():
        factors = [b.power(b.input(i), e) for i, e in enumerate(exps) if e]
        if factors:
            terms.append(b.scale(c, b.product(factors)))
        else:
            terms.append(b.const(c))
    return b.sum(terms)


def _nested_horner(b: CircuitBuilder, f: Polynomial) -> int:
    return _lower_by_variable(b, f.ring.p, f.coeffs, f.ring.n)


_LOWERINGS = {"naive_monomial": _naive_monomial, "nested_horner": _nested_horner}


def _lowering(strategy: str):
    """The lowering function of a strategy name."""
    lowering = _LOWERINGS.get(strategy)
    if lowering is None:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    return lowering


def lower(f: Polynomial, strategy: str = "nested_horner") -> Circuit:
    """Lower a canonical polynomial to a circuit computing it everywhere.

    ``naive_monomial`` scales and sums one product subcircuit per nonzero
    term; ``nested_horner`` factors variable by variable, combining each
    variable's canonical powers once per slice.  No algebraic rewriting
    happens here: factored shapes must be reflected in the polynomial's
    construction, not recovered by the lowerer.
    """
    lowering = _lowering(strategy)
    b = CircuitBuilder(f.ring.p, f.ring.n)
    return b.finish(lowering(b, f))


def _lower_shared(f: Polynomial, strategy: str) -> tuple[Circuit, tuple[int, int, int]]:
    """``eliminate_common_subexpressions(lower(f, strategy))``, and the mul,
    add (add and sub) and scale counts of ``lower(f, strategy)``, without
    building that unshared circuit or running CSE.

    The unshared circuit's input and const gates are those of the shared
    one, and its depth is the shared depth, since CSE changes neither.
    """
    lowering = _lowering(strategy)
    b = _SharingBuilder(f.ring.p, f.ring.n)
    shared = b.finish(lowering(b, f))
    counts = b.counts
    return shared, (counts["mul"], counts["add"] + counts["sub"], counts["scale"])


def eliminate_common_subexpressions(circuit: Circuit) -> Circuit:
    """Merge structurally identical gates (commutative operands sorted).

    Value-numbering in one forward pass: each gate, renumbered, is replayed
    through ``_SharingBuilder._share``, with no op counts.  The result
    computes the same function with never more gates, and applying it twice
    changes nothing.
    """
    b = _SharingBuilder(circuit.p, circuit.n_inputs)
    share = b._share
    remap: list[int] = []
    for gate in circuit.gates:
        op = gate[0]
        if op == "mul" or op == "add" or op == "sub":
            gate = (op, remap[gate[1]], remap[gate[2]])
        elif op == "scale":
            gate = (op, gate[1], remap[gate[2]])
        remap.append(share(gate))
    return Circuit(circuit.p, circuit.n_inputs, tuple(b._gates), remap[circuit.output])


def cost(circuit: Circuit) -> CostReport:
    """Gate counts and the multiplicative depth of the output wire."""
    depth: list[int] = []
    push = depth.append
    muls = adds = scales = 0
    for gate in circuit.gates:
        op = gate[0]
        if op == "mul" or op == "add" or op == "sub":
            da, db = depth[gate[1]], depth[gate[2]]
            if da < db:
                da = db
            if op == "mul":
                muls += 1
                push(da + 1)
            else:
                adds += 1
                push(da)
        elif op == "scale":
            scales += 1
            push(depth[gate[2]])
        else:
            push(0)
    return CostReport(muls, adds, scales, depth[circuit.output])


def run(circuit: Circuit, point: Sequence[int]) -> int:
    """Evaluate gate by gate at a single input point."""
    field = PrimeField(circuit.p)
    if len(point) != circuit.n_inputs:
        raise ValueError(
            f"expected {circuit.n_inputs} input values, got {len(point)}")
    for v in point:
        field.check(v)
    p = circuit.p
    vals: list[int] = []
    for gate in circuit.gates:
        op = gate[0]
        if op == "input":
            vals.append(point[gate[1]])
        elif op == "const":
            vals.append(gate[1])
        elif op == "add":
            vals.append((vals[gate[1]] + vals[gate[2]]) % p)
        elif op == "sub":
            vals.append((vals[gate[1]] - vals[gate[2]]) % p)
        elif op == "mul":
            vals.append((vals[gate[1]] * vals[gate[2]]) % p)
        else:
            vals.append((gate[1] * vals[gate[2]]) % p)
    return vals[circuit.output]


def _last_uses(circuit: Circuit) -> list[int]:
    """For each gate, the index of the last gate reading it (its own index
    if none does; one past the end for the output)."""
    last = list(range(len(circuit.gates)))
    for idx, gate in enumerate(circuit.gates):
        op = gate[0]
        if op == "mul" or op == "add" or op == "sub":
            last[gate[1]] = idx
            last[gate[2]] = idx
        elif op == "scale":
            last[gate[2]] = idx
    last[circuit.output] = len(circuit.gates)
    return last


def run_all(circuit: Circuit) -> Sequence[int]:
    """Values at every point of F_p^n, in the form of ``Polynomial.values()``.

    Gate semantics are identical to :func:`run`; the whole domain is just
    carried through each gate at once, as a table in the stored form of a
    ``Polynomial`` (``polyring._store``): one int of p^n bits at p = 2, two
    at p = 3 (the entries equal to 1 and to 2), ``bytes`` of p^n residues
    for 3 < p < 128 and a tuple (or ``_combine``'s list) above.  The input
    wires the circuit reads come first (``_input_values``), and constants
    scale the all-ones table (``_ones``); const, add, sub and scale gates
    are one ``_combine`` each and mul gates one ``_product``.  Each wire is
    dropped right after the last gate that reads it, so only live wires are
    held: about p^n / 8 bytes each at p = 2, twice that at p = 3 and p^n
    bytes for 3 < p < 128.  The output wire is decoded by ``_unstore``.
    Raises ``SizeGuardError`` before allocating anything when p^n exceeds
    the default table cap.
    """
    p, n = circuit.p, circuit.n_inputs
    size = bounded_power(p, n, DEFAULT_MAX_TABLE_SIZE)
    if size is None:
        raise SizeGuardError(
            f"run_all table size p^n = {p}^{n} exceeds the cap of "
            f"{DEFAULT_MAX_TABLE_SIZE} entries")
    last = _last_uses(circuit)
    gates = circuit.gates
    wires: list = [None] * len(gates)
    readers: dict[int, list[int]] = {}  # input index -> its input gates
    for idx, gate in enumerate(gates):
        if gate[0] == "input":
            readers.setdefault(gate[1], []).append(idx)
    for i, wire in _input_values(p, n, readers):
        for idx in readers[i]:
            wires[idx] = wire
    one = _ones(p, size)
    for idx, gate in enumerate(gates):
        op = gate[0]
        if op == "input":
            continue
        if op == "const":
            wires[idx] = _combine(p, (gate[1],), (one,))
            continue
        b = gate[2]
        if op == "scale":
            wires[idx] = _combine(p, (gate[1],), (wires[b],))
        else:
            a = gate[1]
            wires[idx] = (_product(p, wires[a], wires[b]) if op == "mul" else
                          _combine(p, (1, 1 if op == "add" else -1), (wires[a], wires[b])))
            if last[a] == idx:
                wires[a] = None
        if last[b] == idx:
            wires[b] = None
    return _unstore(wires[circuit.output], p, size)
