"""Ground truth: integer-level reference semantics and exact interpolation.

Every function the library builds a polynomial for also exists here as a
plain-integer definition; comparison happens in the integers {0, ..., p-1},
arithmetic in F_p only at the boundary.  The ``*_sem`` functions are that
definition in its plainest form, one input list at a time: the reference.
``FunctionSpec.fold`` states each kind once more as a left-to-right fold
over x0, x1, ... (a running maximum, a best value with its first index),
and that fold is the one path by which values are computed: ``evaluate``
runs it over one point, ``tabulate`` over the full truth table, as one
layered automaton (``_automaton``, the function's ordered decision diagram)
that steps once per distinct state and axis instead of once per point, its
last-axis values checked row by row at every p, with no ring operation.
``interpolate`` turns any truth table into the unique canonical polynomial
agreeing with it everywhere.

Because the canonical polynomial is unique, "formula equals interpolation
of the semantics, coefficient for coefficient" is a complete correctness
check for every closed form in :mod:`fpminpoly.formulas`.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from itertools import chain
import json
from math import comb
from typing import Callable, Hashable, Sequence

from .ff import PrimeField
from .polyring import (DEFAULT_MAX_TABLE_SIZE, Polynomial, PolyRing, SizeGuardError,
                       _checked, _load_json, _pack, _polynomial, _store, _unstore,
                       apply_axis_transform, bounded_power)

#: Function kinds understood by tabulate() and the CLI.
KINDS = ("max", "min", "argmax_digit", "argmin_digit", "ismax", "nummax_digit",
         "carry", "ismax_2bit")


# -- integer-level semantics -------------------------------------------------

def max_sem(xs: Sequence[int]) -> int:
    if not xs:
        raise ValueError("max of an empty input is undefined")
    return max(xs)


def min_sem(xs: Sequence[int]) -> int:
    if not xs:
        raise ValueError("min of an empty input is undefined")
    return min(xs)


def argmax_sem(xs: Sequence[int]) -> int:
    """Least index attaining the maximum (ties break to the first)."""
    if not xs:
        raise ValueError("argmax of an empty input is undefined")
    return xs.index(max(xs))


def argmin_sem(xs: Sequence[int]) -> int:
    if not xs:
        raise ValueError("argmin of an empty input is undefined")
    return xs.index(min(xs))


def digit_sem(k: int, r: int, p: int) -> int:
    """The r-th base-p digit of k >= 0.

    Shifts k down one digit at a time instead of dividing by p**r, so a
    huge r costs no more than the digits k actually has.
    """
    while r and k:
        k //= p
        r -= 1
    return k % p


def argmax_digit_sem(xs: Sequence[int], r: int, p: int) -> int:
    """The r-th base-p digit of the least maximizing index."""
    return digit_sem(argmax_sem(xs), r, p)


def argmin_digit_sem(xs: Sequence[int], r: int, p: int) -> int:
    return digit_sem(argmin_sem(xs), r, p)


def ismax_sem(y: int, xs: Sequence[int]) -> int:
    """1 iff the maximum of xs equals y."""
    return 1 if max_sem(xs) == y else 0


def nummax_count(xs: Sequence[int]) -> int:
    """How many indices attain the maximum."""
    return xs.count(max_sem(xs))


def nummax_digit_sem(xs: Sequence[int], r: int, p: int) -> int:
    """The r-th base-p digit of the number of maximizing indices."""
    return digit_sem(nummax_count(xs), r, p)


def carry_sem(y0: int, y1: int, p: int) -> int:
    """1 iff two single base-p digits overflow into the next position."""
    return 1 if y0 + y1 >= p else 0


def ismax_2bit_sem(ybits: Sequence[int], xbits: Sequence[Sequence[int]]) -> int:
    """Two-bit ismax over F_2: bits pair up as value 2*high + low.

    ``ybits`` is (y_high, y_low); each entry of ``xbits`` likewise.
    """
    y1, y0 = ybits
    vals = [2 * hi + lo for hi, lo in xbits]
    return 1 if max_sem(vals) == 2 * y1 + y0 else 0


# -- truth tables -------------------------------------------------------------

def point_at(p: int, arity: int, index: int) -> tuple[int, ...]:
    """Decode a mixed-radix input index into a point (x0 least significant)."""
    out = []
    for _ in range(arity):
        out.append(index % p)
        index //= p
    return tuple(out)


class TruthTable:
    """A total function F_p^arity -> F_p as a flat value array.

    Entry i is the value at ``point_at(p, arity, i)``; the point order
    matches polynomial coefficient order, so tables and coefficient tables
    are transforms of one another.  ``values`` is checked and packed like
    ``Polynomial.coeffs``, so a list, a tuple or ``bytes`` give equal tables.
    ``_stored`` is the same table in a polynomial's stored form (at p = 2
    and p = 3 the tuple of p - 1 value planes; otherwise ``values``
    itself), which ``interpolate`` and ``verify_formula`` read.  A table
    given its values stores them once, with ``polyring._store``; ``tabulate``
    makes the stored form itself from checked rows (``_from_stored``), and
    ``values`` is then decoded on first use and kept, as ``coeffs`` is.

    Immutable, and equal, hashed and printed as the dataclass of ``p``,
    ``arity`` and ``values`` it stands for.
    """

    __slots__ = ("p", "arity", "_values", "_stored")

    def __init__(self, p: int, arity: int, values: Sequence[int]):
        PrimeField(p)
        if not isinstance(arity, int) or isinstance(arity, bool) or arity < 0:
            raise ValueError(f"arity must be a nonnegative int, got {arity!r}")
        if bounded_power(p, arity, len(values)) != len(values):
            raise ValueError(
                f"truth table needs p^arity = {p}^{arity} values, got {len(values)}")
        values = _checked(values, p)
        self._fill(p, arity, values, _store(values, p))

    @classmethod
    def _from_stored(cls, p: int, arity: int, stored) -> "TruthTable":
        """The table of a stored form the library made, unchecked."""
        table = object.__new__(cls)
        table._fill(p, arity, None, stored)
        return table

    def _fill(self, p, arity, values, stored):
        for name, value in zip(self.__slots__, (p, arity, values, stored)):
            object.__setattr__(self, name, value)

    @property
    def values(self) -> Sequence[int]:
        """The values, packed (``_pack``)."""
        if self._values is None:
            object.__setattr__(self, "_values",
                               _unstore(self._stored, self.p, self.p ** self.arity))
        return self._values

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return TruthTable, (self.p, self.arity, self.values)

    def __eq__(self, other: object) -> bool:
        # The stored form is one-to-one with the values for a given p and arity.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.arity, self._stored) == (other.p, other.arity, other._stored)

    def __hash__(self) -> int:
        return hash((self.p, self.arity, self.values))

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(p={self.p!r}, arity={self.arity!r}, "
                f"values={self.values!r})")

    def to_dict(self) -> dict:
        return {"p": self.p, "arity": self.arity, "values": list(self.values)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_dict(data: dict) -> "TruthTable":
        try:
            return TruthTable(data["p"], data["arity"], data["values"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed truth table record: {exc}") from exc

    @staticmethod
    def from_json(text: str) -> "TruthTable":
        return TruthTable.from_dict(_load_json(text, "truth table"))


@dataclass(frozen=True)
class FunctionSpec:
    """A named function plus its parameters (modulus, input count, digit).

    ``n`` counts logical inputs; the actual arity differs for kinds with
    auxiliary inputs (ismax takes y first, ismax_2bit takes bit pairs).
    """

    kind: str
    p: int
    n: int
    r: int = 0

    def __post_init__(self):
        PrimeField(self.p)
        if self.kind not in KINDS:
            raise ValueError(f"unknown function kind {self.kind!r}; expected one of {KINDS}")
        for name, value in (("input count n", self.n), ("digit index r", self.r)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.n < 1:
            raise ValueError("input count must be at least 1")
        if self.r < 0:
            raise ValueError("digit index must be nonnegative")
        if self.kind == "carry" and self.n != 2:
            raise ValueError("carry takes exactly two digit inputs")
        if self.kind == "ismax_2bit" and self.p != 2:
            raise ValueError("two-bit ismax is defined over p = 2 only")

    @property
    def arity(self) -> int:
        if self.kind == "ismax":
            return self.n + 1
        if self.kind == "ismax_2bit":
            return 2 * self.n + 2
        return self.n

    def fold(self) -> tuple[Hashable, Callable[[Hashable, int, int], Hashable],
                            Callable[[Hashable], int]]:
        """The semantics of this kind as a left-to-right fold over x0, x1, ...

        Returns ``(start, step, finish)``: the value at a point is
        ``finish(state)`` after ``state = step(state, k, x_k)`` for k = 0, 1,
        ...  States are hashable and few (``max`` keeps the running maximum,
        ``argmax_digit`` the best value and its first index), so ``tabulate``
        runs ``step`` once per distinct state and axis, not once per point.
        """
        kind, p, r = self.kind, self.p, self.r
        if kind == "max":
            return None, lambda s, k, x: x if k == 0 or x > s else s, lambda s: s
        if kind == "min":
            return None, lambda s, k, x: x if k == 0 or x < s else s, lambda s: s
        if kind == "argmax_digit":  # (best value, least index attaining it)
            return (None, lambda s, k, x: (x, k) if k == 0 or x > s[0] else s,
                    lambda s: digit_sem(s[1], r, p))
        if kind == "argmin_digit":
            return (None, lambda s, k, x: (x, k) if k == 0 or x < s[0] else s,
                    lambda s: digit_sem(s[1], r, p))
        if kind == "ismax":  # (y, running maximum of the x's)
            return None, _ismax_step, lambda s: 1 if s[1] == s[0] else 0
        if kind == "nummax_digit":  # (running maximum, inputs attaining it)
            return None, _nummax_step, lambda s: digit_sem(s[1], r, p)
        if kind == "carry":  # running sum of the two digits
            return 0, lambda s, k, x: s + x, lambda s: 1 if s >= p else 0
        if kind == "ismax_2bit":  # (y, running maximum, pending high bit)
            return None, _ismax_2bit_step, lambda s: 1 if s[1] == s[0] else 0
        raise AssertionError(f"unhandled kind {kind}")

    def evaluate(self, point: Sequence[int]) -> int:
        """Integer-level value at one input point (variable order as tabulated):
        the fold of this kind, run over the point."""
        if len(point) != self.arity:
            raise ValueError(f"expected arity {self.arity}, got {len(point)}")
        state, step, finish = self.fold()
        for k, x in enumerate(point):
            state = step(state, k, x)
        return finish(state)


def _ismax_step(s, k, x):
    if k == 0:
        return x, None
    return (s[0], x) if k == 1 or x > s[1] else s


def _nummax_step(s, k, x):
    if k == 0 or x > s[0]:
        return x, 1
    return (x, s[1] + 1) if x == s[0] else s


def _ismax_2bit_step(s, k, x):
    """x0, x1 are y's high and low bit; then each input is a (high, low) pair."""
    if k == 0:
        return 2 * x, None, None
    y, m, high = s
    if k == 1:
        return y + x, None, None
    if k % 2 == 0:
        return y, m, x
    v = 2 * high + x
    return y, (v if k == 3 or v > m else m), None


def tabulate(spec: FunctionSpec,
             max_table_size: int | None = DEFAULT_MAX_TABLE_SIZE) -> TruthTable:
    """The fold of ``spec`` run over every input point: ``_automaton``'s
    levels read one axis at a time, x0 least significant.

    At p = 2 and p = 3 each state keeps one int whose bit j marks point j
    (of the axes so far) as ending in it: per x a next state ORs the ints
    of the states stepping into it, and its p parts are laid side by side,
    x = 0 lowest.  The last level's ints, one per value, are the value
    planes of the stored form.  For larger p the table is one of state ids
    (``_grow``), the one start state grown p-fold per level into values.
    """
    p, arity = spec.p, spec.arity
    if max_table_size is not None and bounded_power(p, arity, max_table_size) is None:
        raise SizeGuardError(
            f"truth table size p^arity = {p}^{arity} exceeds the cap of "
            f"{max_table_size} entries")
    if p < 4:
        bits, block = [1], 1
        for rows, width in _automaton(spec):
            parts = []
            for row in rows:
                part = [0] * width
                for b, t in zip(bits, row):
                    part[t] = part[t] | b if part[t] else b  # 0 | b would copy b
                parts.append(part)
            bits = parts.pop()
            for part in reversed(parts):
                bits = [high << block | low for high, low in zip(bits, part)]
            block *= p
        return TruthTable._from_stored(p, arity, tuple(bits[1:]))
    table = b"\0"
    for rows, width in _automaton(spec):
        table = _grow(table, rows, width)
    return TruthTable._from_stored(p, arity, _pack(table, p))


def _automaton(spec: FunctionSpec):
    """The fold of ``spec`` as a layered automaton: one ``(rows, width)``
    per axis k, yielded as it is built.

    ``rows[x][s]`` is the id of ``step(s, k, x)`` among the ``width``
    states after axis k, in order of first appearance, ``step`` running
    once per (distinct state, x); state 0 before axis 0 is ``start``.  On
    the last axis the ids are the values ``finish(step(s, k, x))``, so the
    width is p: each value row is checked as ``_checked`` checks a table,
    and built when it is read, so one is alive at a time.
    """
    p, last = spec.p, spec.arity - 1
    start, step, finish = spec.fold()
    states = [start]
    for axis in range(last):
        interned = {}
        rows = [[interned.setdefault(step(s, axis, x), len(interned)) for s in states]
                for x in range(p)]
        states = list(interned)
        yield rows, len(states)

    def values(x):
        row = [finish(step(s, last, x)) for s in states]
        _checked(row, p)
        return row
    yield map(values, range(p)), p


def _grow(table, rows, bound: int):
    """The table p-fold longer: block x is ``table`` mapped through ``rows[x]``.

    Every row entry is below ``bound``.  While the entries fit in a byte the
    result is ``bytes`` (grown by ``bytes.translate`` from a ``bytes``
    table), so values below p <= 256 always end as ``bytes``; otherwise it
    is a tuple.  ``rows`` may be a generator: each row is then built just
    before its block, so only one row is alive at a time.
    """
    if bound > 256:
        return tuple(chain.from_iterable(map(row.__getitem__, table) for row in rows))
    if type(table) is bytes:
        return b"".join([table.translate(bytes(row).ljust(256, b"\0")) for row in rows])
    return b"".join([bytes(map(row.__getitem__, table)) for row in rows])


# -- interpolation ------------------------------------------------------------

@lru_cache(maxsize=None)
def delta_basis_rows(p: int) -> tuple[tuple[int, ...], ...]:
    """Row e, column a: the x^e coefficient of 1 - (x - a)^(p-1).

    These univariate indicator polynomials are the interpolation basis; the
    expansion below is the plain binomial theorem, (x - a)^(p-1) =
    sum_e C(p-1, e) (-a)^(p-1-e) x^e, independent of the polynomial-ring
    operations and of ``polyring.lagrange_rows``, which it checks.  O(p^2).
    """
    binomials = [comb(p - 1, e) % p for e in range(p)]
    cols = []
    for a in range(p):
        power = [b * pow(-a, p - 1 - e, p) % p for e, b in enumerate(binomials)]
        col = [(-c) % p for c in power]
        col[0] = (1 - power[0]) % p
        cols.append(col)
    return tuple(tuple(cols[a][e] for a in range(p)) for e in range(p))


def interpolate(table: TruthTable,
                max_table_size: int | None = DEFAULT_MAX_TABLE_SIZE) -> Polynomial:
    """The unique canonical polynomial agreeing with the table everywhere.

    Equals the sum over all points of value * product of per-variable
    indicator polynomials, computed as an axis-by-axis basis change in
    O(n * p^(n+1)) instead of the literal O(p^(2n)) summation.
    """
    ring = PolyRing(table.p, table.arity, max_table_size=max_table_size)
    return _polynomial(ring, apply_axis_transform(table._stored, table.p, table.arity,
                                                  delta_basis_rows(table.p)))
