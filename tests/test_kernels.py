"""Differential tests: the dense kernels against straightforward reference loops.

The references below are the plain fiber loop for the axis transform, the
plain pair loop for multiplication, the full-table ``zip`` loops for
addition and subtraction and the per-point kind dispatch of the semantics,
kept here verbatim so that any rewrite of the kernels in ``polyring`` and
``oracle`` is checked entry for entry.  ``pair_loop_mul`` and
``power_table_compose`` are ``*`` and ``compose`` worked on coefficients:
the pair loop over nonzero terms and substitution by power tables.  They
check the value-table ``*``, ``**`` and ``compose``, and are the quick
references for chained products.  Exponents and digits are decoded
with ``oracle.point_at``, independently of the ring's digit planes.  The
dense kernels are checked on both sides of p = 128, where tables stop being
packed into bytes.  ``_combine``, the one place where columns are scaled,
summed and reduced, is checked against a per-entry sum (on byte lanes
with weights on both sides of the bound past which a column is
table-scaled, at column counts on both sides of each reduction), and
``_product``, the entrywise product behind ``*`` and ``run_all``'s mul
gates, against ``x * y % p`` on every stored form.  At p = 2 and p = 3 polynomials
store their tables as p - 1 value planes, ints of p^n bits.  At p = 2 the
axis transform, one shift-and-xor step per axis on the one plane, is
checked against chained ``_round`` calls for every 2x2 matrix up to 2^20
entries, and the axis masks against masks read from repeated byte
patterns for n = 0 to 20.  At p = 3 the plane kernels (``_combine``,
``_join``, the axis masks and transforms, ``first_mismatch`` and ``eval``)
are checked against byte tables for n = 0 to 12.  At both, every ring
operation, ``values``, ``interpolate``, ``==``, ``hash`` and ``verify``'s
first mismatch are checked against byte tables (the byte ``train`` and
``+``, kept below, and chained byte ``_round``s) for n = 1 to 20 at p = 2
and 1 to 12 at p = 3, and ``first_mismatch`` on one-entry tables at
p = 2, 3, 5 and 131.  ``eval`` is checked against the list Horner loop
over the decoded coefficients, at p = 2, 3, 5, 7, 131 and 257.
``verify``'s mismatch reports at p = 2, 3 and 5 are checked against a
byte scan, with one transform of the candidate.
"""

import itertools
from itertools import compress
import operator
import random
import sys
from types import GeneratorType

import pytest
from hypothesis import example, given, settings, strategies as st

from fpminpoly.circuit import lower, run_all
from fpminpoly.formulas import CATALOG, _piece_rows, build_formula, verify_formula
from fpminpoly.oracle import (KINDS, FunctionSpec, TruthTable, argmax_digit_sem,
                              argmin_digit_sem, carry_sem, delta_basis_rows, interpolate,
                              ismax_2bit_sem, ismax_sem, max_sem, min_sem, nummax_digit_sem,
                              point_at, tabulate)
from fpminpoly import formulas, oracle, polyring
from fpminpoly.polyring import (Polynomial, PolyRing, _combine, _lane_sums, _pack, _scratch,
                                _store, _unstore, apply_axis_transform, lagrange_rows,
                                vandermonde_rows)

#: Largest arity per modulus that keeps p^n small enough for a quick test.
MAX_ARITY = {2: 8, 3: 5, 5: 3, 7: 3, 11: 2, 13: 2}


def reference_axis_transform(vals, p, n, matrix):
    """The fiber loop: one length-p fiber at a time, in place."""
    size = len(vals)
    rows = [tuple(row) for row in matrix]
    stride = 1
    for _axis in range(n):
        period = stride * p
        for start in range(0, size, period):
            for off in range(start, start + stride):
                fiber = [vals[off + e * stride] for e in range(p)]
                for a in range(p):
                    acc = 0
                    row = rows[a]
                    for e in range(p):
                        acc += row[e] * fiber[e]
                    vals[off + a * stride] = acc % p
        stride = period


def assert_stored(table, p, size):
    """``table`` has the shape of ``_store``'s form for p and ``size``
    entries, and is never a list: p - 1 int value planes with disjoint bits
    below ``size`` at p = 2 and p = 3, ``bytes`` for 3 < p < 128, else a
    tuple of ints."""
    if p < 4:
        assert type(table) is tuple and len(table) == p - 1, type(table)
        assert all(type(plane) is int and 0 <= plane < 1 << size for plane in table)
        assert not any(x & y for x, y in itertools.combinations(table, 2))
    else:
        assert type(table) is (bytes if p < 128 else tuple) and len(table) == size, type(table)
        assert p < 128 or all(type(v) is int for v in table)


def stored_transform(values, p, n, matrix):
    """``apply_axis_transform`` of a table of residues taken to the stored
    form (``_store``), the result checked to be in that form and decoded
    (``_unstore``)."""
    got = apply_axis_transform(_store(values, p), p, n, matrix)
    assert_stored(got, p, p ** n)
    return _unstore(got, p, p ** n)


def reference_mul(f, g):
    """The pair loop: every nonzero pair, exponents added digit by digit."""
    ring = f.ring
    p = ring.p
    out = [0] * ring.size
    exps = [point_at(p, ring.n, i) for i in range(ring.size)]
    for i, ca in enumerate(f.coeffs):
        if not ca:
            continue
        for j, cb in enumerate(g.coeffs):
            if not cb:
                continue
            k = 0
            for d1, d2, w in zip(exps[i], exps[j], ring.strides):
                d = d1 + d2
                if d >= p:
                    d -= p - 1
                k += d * w
            out[k] = (out[k] + ca * cb) % p
    return Polynomial(ring, out)


def pair_loop_mul(f, g):
    """The pair loop over the operands' nonzero terms, with exponents read
    from the digit planes: carries per digit, or OR of the indices at p = 2."""
    ring = f._same_ring(g)
    p = ring.p
    a, b = f.coeffs, g.coeffs
    a_idx = list(compress(range(ring.size), a))
    b_idx = list(compress(range(ring.size), b))
    if len(a_idx) < len(b_idx):
        a, b, a_idx, b_idx = b, a, b_idx, a_idx
    out = _scratch(ring.size, p)
    if p == 2:
        # Exponents are bits and x^2 = x, so indices combine by OR.
        for j in b_idx:
            for i in a_idx:
                out[i | j] ^= 1
    else:
        planes = ring.digit_planes()
        strides = ring.strides
        a_items = [(i, a[i]) for i in a_idx]
        for j in b_idx:
            cb = b[j]
            # Digit sums d1 + d2 >= p fold to d1 + d2 - (p-1) since
            # x^(p+k) = x^(k+1); only nonzero digits of j can overflow.
            carries = [(plane, p - plane[j], (p - 1) * s)
                       for plane, s in zip(planes, strides) if plane[j]]
            for i, ca in a_items:
                k = i + j
                for plane, low, drop in carries:
                    if plane[i] >= low:
                        k -= drop
                out[k] = (out[k] + ca * cb) % p
    return Polynomial(ring, out)


def power_table_compose(f, subs):
    """Substitution by power tables: the powers of each substituent up to
    the variable's degree, multiplied per term with ``pair_loop_mul``."""
    target = subs[0].ring
    max_deg = f.max_degree_per_variable()
    powers = []
    for i, s in enumerate(subs):
        row = [target.one()]
        for _ in range(max_deg[i]):
            row.append(pair_loop_mul(row[-1], s))
        powers.append(row)
    acc = target.zero()
    for exps, c in f.support():
        term = target.constant(c)
        for i, e in enumerate(exps):
            if e:
                term = pair_loop_mul(term, powers[i][e])
        acc = acc + term
    return acc


@st.composite
def ring_and_table(draw):
    p = draw(st.sampled_from(sorted(MAX_ARITY)))
    n = draw(st.integers(1, MAX_ARITY[p]))
    values = draw(st.lists(st.integers(0, p - 1), min_size=p**n, max_size=p**n))
    return p, n, values


@st.composite
def sparse_dense_pair(draw):
    """A dense random polynomial and a sparse one with few nonzero terms."""
    p, n, values = draw(ring_and_table())
    ring = PolyRing(p, n)
    positions = draw(st.lists(st.integers(0, ring.size - 1), min_size=0, max_size=6))
    sparse = [0] * ring.size
    for pos in positions:
        sparse[pos] = draw(st.integers(1, p - 1))
    return ring.from_coeffs(values), ring.from_coeffs(sparse)


class TestAxisTransform:
    @settings(max_examples=120, deadline=None)
    @given(ring_and_table(), st.sampled_from(["vandermonde", "delta"]))
    def test_matches_fiber_loop(self, case, which):
        p, n, values = case
        matrix = vandermonde_rows(p) if which == "vandermonde" else delta_basis_rows(p)
        expected = list(values)
        reference_axis_transform(expected, p, n, matrix)
        assert list(stored_transform(values, p, n, matrix)) == expected

    @pytest.mark.parametrize("p,n", [(3, 2), (131, 1)])
    def test_returns_the_stored_form_and_leaves_the_table(self, p, n):
        vals = [(7 * i + 1) % p for i in range(p ** n)]
        stored = _store(vals, p)
        expected = list(vals)
        reference_axis_transform(expected, p, n, vandermonde_rows(p))
        got = apply_axis_transform(stored, p, n, vandermonde_rows(p))
        assert_stored(got, p, p ** n)
        assert _unstore(got, p, p ** n) == (bytes(expected) if p < 128 else tuple(expected))
        assert stored == _store(vals, p)

    def test_unreduced_matrix_entries(self):
        vals = [2, 0, 1, 1, 2, 2, 0, 1, 0]
        matrix = ((4, 0, -1), (0, 0, 0), (1, 7, 3))
        expected = list(vals)
        reference_axis_transform(expected, 3, 2, matrix)
        assert list(stored_transform(vals, 3, 2, matrix)) == expected


#: (p, n) on both sides of p = 128, where tables stop being packed, from
#: tiny rings (one fiber, a few entries) up to a few thousand entries.
CROSSOVER_RINGS = [(2, 1), (2, 3), (2, 5), (2, 8), (2, 10), (3, 1), (3, 2), (3, 5), (3, 7),
                   (5, 1), (5, 3), (5, 5), (7, 3), (7, 4), (11, 2), (11, 3), (13, 2),
                   (13, 3), (17, 3), (127, 1), (127, 2), (131, 1), (131, 2)]


def packed_form(p):
    """The form every table mod p takes for p > 3, stored and packed alike:
    bytes below 128, else a tuple."""
    return bytes if p < 128 else tuple


def record_calls(monkeypatch, name):
    """Record the type of the table each call of polyring's ``name`` returns."""
    calls = []
    original = getattr(polyring, name)

    def recorded(*args):
        result = original(*args)
        calls.append(type(result))
        return result

    monkeypatch.setattr(polyring, name, recorded)
    return calls


def random_matrix(rng, p):
    """Unreduced and negative entries, and a first row that is zero mod p."""
    zero_row = tuple(rng.choice((0, p, -p)) for _ in range(p))
    return (zero_row,) + tuple(tuple(rng.randrange(-p, 3 * p) for _ in range(p))
                               for _ in range(p - 1))


class TestAxisTransformAcrossTheCrossover:
    @pytest.mark.parametrize("p,n", CROSSOVER_RINGS)
    @pytest.mark.parametrize("which", ["vandermonde", "delta", "random", "all p-1"])
    def test_matches_fiber_loop(self, p, n, which, monkeypatch):
        rng = random.Random(f"{p}/{n}/{which}")
        size = p ** n
        if which == "all p-1":
            # Largest entries and largest weights: every lane sum at its maximum.
            values, matrix = [p - 1] * size, tuple(((p - 1,) * p,) * p)
        else:
            values = [rng.randrange(p) for _ in range(size)]
            matrix = {"vandermonde": vandermonde_rows(p), "delta": delta_basis_rows(p),
                      "random": random_matrix(rng, p)}[which]
        expected = list(values)
        reference_axis_transform(expected, p, n, matrix)
        # p = 2 and p = 3 run on bits, their masks from one ``_axis_masks``
        # sweep per transform; every other p runs one ``_round`` per axis
        # on the stored form.
        rounds = record_calls(monkeypatch, "_axis_masks" if p < 4 else "_round")
        got = stored_transform(values, p, n, matrix)
        assert list(got) == expected
        assert rounds == ([GeneratorType] if p < 4 else [packed_form(p)] * n)


#: Every 2x2 matrix over F_2, then matrices with unreduced and negative entries.
BIT_MATRICES = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(2), repeat=4)] + [
    ((3, -1), (-2, 5)), ((-4, 7), (9, -9)), ((2, -2), (-3, 4))]


def reference_bit_mask(size, i):
    """The bits j < size with bit i of j clear, for 2^(i+1) <= size.

    From the least significant bit up, runs of s = 2^i ones and s zeros,
    read from a repeated byte pattern: 0x55, 0x33 or 0x0f for s < 8, else
    s/8 bytes of 0xff and s/8 of 0x00.
    """
    s = 1 << i
    if s >= 8:
        pattern = b"\xff" * (s // 8) + bytes(s // 8)
    else:
        pattern = (b"\x55", b"\x33", b"\x0f")[i]
        if size < 8:
            return pattern[0] & ((1 << size) - 1)
    return int.from_bytes(pattern * (size // (8 * len(pattern))), "little")


class TestAxisMasks:
    def test_match_byte_pattern_masks(self):
        # From the top axis down, each mask made from the one before.
        for n in range(21):
            expected = [reference_bit_mask(2 ** n, i) for i in range(n - 1, -1, -1)]
            assert list(polyring._axis_masks(n)) == expected, n


class TestBitPlaneTransform:
    """At p = 2 the shift-and-xor steps on one int against chained ``_round``s."""

    @pytest.mark.parametrize("matrix", BIT_MATRICES)
    def test_matches_chained_rounds(self, matrix):
        # n = 0 checks that the one-entry table comes back as it went in.
        rng = random.Random(str(matrix))
        for n in range(21):
            table = rng.randbytes(2 ** n).translate(bytes([0, 1] * 128))
            expected = table
            for _axis in range(n):
                expected = polyring._round(expected, 2, matrix)
            got = stored_transform(table, 2, n, matrix)
            assert type(got) is bytes and got == expected, n


def reference_combine(p, weights, cols):
    """One entry at a time: sum(m * c) % p over the weighted columns."""
    return [sum(m * col[k] for m, col in zip(weights, cols)) % p
            for k in range(len(cols[0]))]


def byte_combine(p, weights, cols):
    """The byte ``_combine``: ``_lane_sums`` of byte columns with one weight
    row, exact for every p < 128, so the byte reference at p = 2 and p = 3."""
    return _lane_sums(p, (weights,), cols)[0]


def combine_lists(p, weights, cols):
    """``_combine`` of columns of residues taken to the stored form, its
    result checked to be in that form and decoded to a list.  At p = 2 and
    p = 3 the byte reference (``byte_combine``) must agree; it alone takes
    columns of no entries, which have no value planes."""
    width = len(cols[0])
    if p < 4:
        want = list(byte_combine(p, weights, [bytes(col) for col in cols]))
        if not width:
            return want
    got = _combine(p, weights, [_store(col, p) for col in cols])
    assert_stored(got, p, width)
    got = list(_unstore(got, p, width))
    assert p > 3 or got == want
    return got


#: Moduli for ``_combine``: value planes (2, 3), byte lanes where every
#: weight multiplies its column as an int (5 to 13), where the largest
#: weights are table-scaled first (17) and where every weight past 1 is
#: (127), and tuples (131).
COMBINE_PRIMES = [2, 3, 5, 7, 11, 13, 17, 127, 131]


def direct_bound(p):
    """The largest weight that multiplies a byte column as an int at p:
    (m + 1) * (p - 1) <= 255."""
    return 255 // (p - 1) - 1


def lane_counts(p, m):
    """Column counts on both sides of each point where a sum of columns of
    entries p - 1, all weighted m, is reduced, for 3 < p < 128: a term fills
    each lane to m * (p - 1), or to p - 1 when it was table-scaled, and a
    reduced sum leaves p - 1 in each lane."""
    most = m * (p - 1) if m <= direct_bound(p) else p - 1
    first = 255 // most
    second = first + (255 - (p - 1)) // most
    return sorted({1, 2, first, first + 1, second, second + 1, 2 * second + 1})


@st.composite
def weighted_columns(draw):
    """Columns of canonical residues and any-int weights (negative and huge
    ones too), enough of them to pass the number of reduced lanes a byte
    can hold (``room``)."""
    p = draw(st.sampled_from(COMBINE_PRIMES))
    room = 255 // (p - 1)
    width = draw(st.integers(0, 6))
    count = draw(st.integers(1, 2 * room + 2))
    cols = [draw(st.lists(st.integers(0, p - 1), min_size=width, max_size=width))
            for _ in range(count)]
    weights = draw(st.lists(st.one_of(st.integers(-3 * p, 3 * p), st.sampled_from(
        [0, 1, p, -p, p - 1, 1 - p, 10 ** 30 + 1, -10 ** 30])), min_size=count, max_size=count))
    return p, weights, cols


class TestCombine:
    @settings(max_examples=300, deadline=None)
    @given(weighted_columns())
    @example((2, [1] * 300, [[1, 1, 0]] * 300))
    @example((127, [126, -1, 253], [[126, 0], [126, 1], [126, 126]]))
    @example((3, [0, 3, -6], [[1, 2], [2, 2], [0, 1]]))
    @example((17, [5], [[16, 3, 0]]))
    @example((7, [10 ** 30], [[6, 3, 0]]))
    @example((5, [0, 5, -10], [[4, 4], [3, 1], [2, 0]]))
    @example((13, [12, -1, 10 ** 30 + 11, -(10 ** 30)] * 5, [[12, 0, 7]] * 20))
    @example((17, [14, 15, -2, 16] * 9, [[16, 16, 1]] * 36))
    @example((127, [1, 2, 128, -125] * 5, [[126, 126, 0]] * 20))
    def test_matches_per_entry_sum(self, case):
        p, weights, cols = case
        assert combine_lists(p, weights, cols) == reference_combine(p, weights, cols)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("weights", [(1, 1), (1, -1), (-1, 1), (2, 2), (1, 0)])
    def test_two_columns_on_value_planes(self, p, weights):
        """The add and sub gates' weights, which take the one-step add, and
        their neighbours, which take the weight loop, on every pair of
        residues."""
        pairs = [(a, b) for a in range(p) for b in range(p)]
        cols = [[a for a, _ in pairs], [b for _, b in pairs]]
        assert combine_lists(p, weights, cols) == reference_combine(p, weights, cols)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 127])
    def test_lane_sums_at_their_maximum(self, p):
        """Entries p - 1, at column counts on both sides of each reduction
        point: weights p - 1 on value planes and on their byte reference;
        on byte lanes 1, 2, p - 1 and the weights on both sides of the
        table-scaled boundary (14 and 15 at p = 17, 1 and 2 at p = 127),
        alone and mixed with p - 1."""
        room = 255 // (p - 1)
        if p < 4:
            counts = (room - 1, room, room + 1, 2 * room, 2 * room + 1)
            cases = [(p - 1, count) for count in counts]
        else:
            weights = {1, 2, p - 1, direct_bound(p), direct_bound(p) + 1} & set(range(1, p))
            cases = [(m, count) for m in sorted(weights) for count in lane_counts(p, m)]
        for m, count in cases:
            cols = [[p - 1] * 5] * count
            for weights in ([m] * count, [m, p - 1] * (count // 2) + [m] * (count % 2)):
                got = combine_lists(p, weights, cols)
                assert got == reference_combine(p, weights, cols), (m, count)

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 127])
    def test_weights_scale_by_table_only_past_the_lane_bound(self, p, monkeypatch):
        """A weight m multiplies its byte column as an int exactly when
        (m + 1) * (p - 1) <= 255; only larger weights (none below p = 17)
        scale the column with a byte table, and weight 1 is the reduction."""
        scaled = []
        original = polyring._scale_table

        def recorded(q, m):
            scaled.append(m)
            return original(q, m)

        monkeypatch.setattr(polyring, "_scale_table", recorded)
        col = [p - 1, 1, 0]
        for m in range(1, p):
            scaled.clear()
            got = _combine(p, (m, 1), [_pack(col, p)] * 2)
            assert list(got) == reference_combine(p, (m, 1), [col] * 2)
            assert set(scaled) - {1} == ({m} if (m + 1) * (p - 1) > 255 else set()), m
        assert [m for m in range(1, p) if m > direct_bound(p)] == (
            {17: [15, 16], 127: list(range(2, 127))}.get(p, []))


class TestProduct:
    @pytest.mark.parametrize("p", [2, 3, 5, 13, 17, 127, 131, 257])
    def test_matches_entrywise_products_in_stored_form(self, p):
        """``_product`` on value planes (p = 2 and 3), pair codes
        (5, 13), bytes (17, 127) and tuples (131, 257), for zero, all-(p-1)
        and random tables, at lengths on both sides of a byte of bits."""
        rng = random.Random(f"product {p}")
        for size in (1, 7, 9, 300):
            tables = [[0] * size, [p - 1] * size,
                      *([rng.randrange(p) for _ in range(size)] for _ in range(3))]
            for a, b in itertools.product(tables, repeat=2):
                sa, sb = polyring._store(a, p), polyring._store(b, p)
                got = polyring._product(p, sa, sb)
                assert type(got) is type(sa)
                if p < 4:
                    assert len(got) == p - 1 and all(type(plane) is int for plane in got)
                assert list(polyring._unstore(got, p, size)) == [x * y % p for x, y in zip(a, b)]


class TestMultiply:
    @settings(max_examples=150, deadline=None)
    @given(sparse_dense_pair())
    def test_sparse_times_dense_matches_pair_loop(self, pair):
        dense, sparse = pair
        assert dense * sparse == reference_mul(dense, sparse)
        assert sparse * dense == reference_mul(sparse, dense)

    @settings(max_examples=60, deadline=None)
    @given(ring_and_table(), st.data())
    def test_dense_times_dense_matches_pair_loop(self, case, data):
        p, n, values = case
        ring = PolyRing(p, n)
        other = data.draw(st.lists(st.integers(0, p - 1),
                                   min_size=ring.size, max_size=ring.size))
        f, g = ring.from_coeffs(values), ring.from_coeffs(other)
        assert f * g == reference_mul(f, g)


#: Rings for a dense table times a univariate factor, on bytes and (p >= 128)
#: on lists, with 64 to 17161 entries.
UNIVARIATE_RINGS = [(2, 9), (2, 10), (3, 6), (3, 7), (5, 4), (7, 4), (13, 3), (127, 2),
                    (2, 6), (3, 4), (5, 3), (131, 2)]


class TestUnivariateProducts:
    @pytest.mark.parametrize("p,n", UNIVARIATE_RINGS)
    def test_every_axis_matches_pair_loop(self, p, n):
        rng = random.Random(f"{p}/{n}")
        ring = PolyRing(p, n)
        # At p > 100 about 130 terms times a 20-term factor keep the reference
        # pair loop quick.
        density = 130 / ring.size if p > 100 else 0.7
        for axis in range(n):
            table = [rng.randrange(1, p) if rng.random() < density else 0
                     for _ in range(ring.size)]
            dense = ring.from_coeffs(table)
            row = [rng.randrange(p) if p < 100 or e < 20 else 0 for e in range(p)]
            row[rng.randrange(1, min(p, 20))] = rng.randrange(1, p)  # not a constant
            factor = ring.univariate(axis, row)
            got = dense * factor
            assert got == reference_mul(dense, factor)
            assert factor * dense == reference_mul(factor, dense)

    @pytest.mark.parametrize("p,n,axis", [(3, 6, 0), (3, 6, 5), (2, 10, 9)])
    def test_multi_axis_factor_stays_on_pair_loop(self, p, n, axis):
        ring = PolyRing(p, n)
        rng = random.Random(axis)
        dense = ring.from_coeffs([rng.randrange(p) for _ in range(ring.size)])
        other = (axis + 1) % n
        factor = ring.univariate(axis, [1] * p) + ring.variable(other)
        assert dense * factor == reference_mul(dense, factor)

    def test_constant_operand_is_a_scale_keeping_the_record(self):
        ring = PolyRing(3, 6)
        x = ring.univariate(2, (1, 0, 2))
        assert (ring.constant(2) * x) == x.scale(2)
        dense = ring.from_coeffs([(k * 7) % 3 for k in range(ring.size)])
        assert dense * ring.constant(2) == reference_mul(dense, ring.constant(2))
        assert ring.constant(1) * dense == dense


#: Rings with dense tables packed into bytes, small and large, and at p >= 128.
DENSE_RINGS = [(2, 6), (2, 10), (3, 4), (3, 7), (5, 4), (7, 4), (13, 3), (127, 2), (131, 2)]


class TestDenseAddSubScale:
    @pytest.mark.parametrize("p,n", DENSE_RINGS)
    def test_match_full_table_loops(self, p, n, monkeypatch):
        rng = random.Random(f"{p}/{n}")
        ring = PolyRing(p, n)
        # p = 2 and p = 3 combine tuples of p - 1 value planes; every other
        # p the stored form.
        combined = record_calls(monkeypatch, "_combine")
        for fill in ("random", "max"):
            if fill == "max":
                a, b = [p - 1] * ring.size, [p - 1] * ring.size
            else:
                a = [rng.randrange(p) for _ in range(ring.size)]
                b = [rng.randrange(p) for _ in range(ring.size)]
            f, g = ring.from_coeffs(a), ring.from_coeffs(b)
            assert f + g == reference_add(f, g, 1)
            assert f - g == reference_add(f, g, -1)
            assert g - f == reference_add(g, f, -1)
            assert -f == reference_add(ring.from_coeffs([0] * ring.size), f, -1)
            for c in (2, p - 1, p + 3, -2):
                assert f.scale(c) == Polynomial(ring, [(x * c) % p for x in a])
        assert combined and set(combined) == {
            tuple if p < 4 else packed_form(p)}


def reference_eval(f, point):
    """Iterated Horner over the variables on lists, from the last variable."""
    ring = f.ring
    p = ring.p
    table = f.coeffs
    for i in range(ring.n - 1, -1, -1):
        s = ring.strides[i]
        x = point[i]
        acc = list(table[(p - 1) * s: p * s])
        for e in range(p - 2, -1, -1):
            block = table[e * s: (e + 1) * s]
            acc = [(v * x + b) % p for v, b in zip(acc, block)]
        table = acc
    return table[0]


#: Rings for ``eval``: n = 1 for each modulus, byte lanes, p = 2 words up
#: to 2^17 and tuples at p = 131 and 257.
EVAL_RINGS = [(2, 1), (2, 2), (2, 9), (2, 17), (3, 1), (3, 5), (3, 9), (5, 1), (5, 5),
              (7, 1), (7, 4), (131, 1), (131, 2), (257, 1), (257, 2)]


class TestEval:
    @pytest.mark.parametrize("p,n", EVAL_RINGS)
    def test_matches_list_horner(self, p, n, monkeypatch):
        rng = random.Random(f"eval/{p}/{n}")
        ring = PolyRing(p, n)
        dense = ring.from_coeffs([rng.randrange(p) for _ in range(ring.size)])
        sparse = ring.from_coeffs([rng.randrange(1, p) if rng.random() < 0.05 else 0
                                   for _ in range(ring.size)])
        polys = [dense, sparse, ring.zero(), ring.one(), ring.constant(p - 1),
                 dense + sparse]
        points = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(12)]
        points += [(0,) * n, (p - 1,) * n]
        decoded = record_calls(monkeypatch, "_from_bits")
        got = [[f.eval(point) for point in points] for f in polys]
        # Read from the stored table: a p = 2 word is never decoded.
        assert decoded == []
        assert got == [[reference_eval(f, point) for point in points] for f in polys]


class TestDigitPlanes:
    @pytest.mark.parametrize("p,n", [(2, 1), (2, 9), (3, 5), (5, 3), (7, 2), (131, 2),
                                     (257, 2), (65521, 1)])
    def test_planes_and_support_match_point_at(self, p, n):
        ring = PolyRing(p, n)
        planes = ring.digit_planes()
        points = [point_at(p, n, k) for k in range(ring.size)]
        assert len(planes) == n
        for i, plane in enumerate(planes):
            assert list(plane) == [pt[i] for pt in points]
        assert ring.digit_planes() is planes
        rng = random.Random(f"{p}/{n}")
        for density in (0.0, 0.01, 0.5, 1.0):
            table = [rng.randrange(1, p) if rng.random() < density else 0
                     for _ in range(ring.size)]
            f = ring.from_coeffs(table)
            expected = [(points[k], c) for k, c in enumerate(table) if c]
            assert f.support() == expected
            assert f.max_degree_per_variable() == tuple(
                max((e[i] for e, _ in expected), default=0) for i in range(n))
            assert f.total_degree() == max((sum(e) for e, _ in expected), default=0)


class TestSingleVariablePieces:
    @pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (5, 2), (7, 2), (11, 1), (13, 2)])
    def test_match_full_ring_expressions(self, p, n):
        ring = PolyRing(p, n)
        for i in range(n):
            x = ring.variable(i)
            deltas = [1 - (x - t) ** (p - 1) for t in range(p)]
            lows = [ring.zero()]
            for t in range(p):
                lows.append(lows[-1] + deltas[t])
            delta_rows, low_rows = _piece_rows(p)
            assert [ring.univariate(i, row) for row in delta_rows] == deltas
            assert [ring.univariate(i, row) for row in low_rows] == lows


# -- products of one factor per input ----------------------------------------------

#: Rings on both sides of p = 128 and past p = 256, and at every p from 5 to
#: 13, where every weight multiplies a byte column as an int; at p >= 128 one
#: row is full and the rest short, which keeps the chained reference on the
#: pair loop.
TENSOR_RINGS = [(2, 8), (3, 5), (5, 4), (7, 4), (11, 3), (13, 3), (127, 2), (131, 2),
                (257, 2)]


def tensor_row_sets(p, n):
    """Full random rows (unreduced and negative entries too), rows mixing the
    constant row (1,) with short and full rows, and a set with an empty row."""
    rng = random.Random(f"{p}/{n}")

    def row(length):
        return tuple(rng.randrange(-p, 2 * p) for _ in range(length))

    full = p < 128
    yield [row(p) if full or i == 0 else row(3) for i in range(n)]
    yield [(1,) if i % 3 == 0 else row(p if i % 3 == 1 and (full or i == 1) else 2)
           for i in range(n)]
    yield [() if i == n - 1 else row(2) for i in range(n)]


class TestTensor:
    @pytest.mark.parametrize("p,n", TENSOR_RINGS)
    def test_matches_chained_univariate_products(self, p, n):
        ring = PolyRing(p, n)
        for rows in tensor_row_sets(p, n):
            want = ring.one()
            for i, row in enumerate(rows):
                want = pair_loop_mul(want, ring.univariate(i, row))
            got = ring.tensor(rows)
            assert got == want, rows
            assert type(got.coeffs) is type(want.coeffs) is (bytes if p < 128 else tuple)

    @pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (131, 2)])
    def test_refuses_bad_rows(self, p, n):
        ring = PolyRing(p, n)
        for rows in ([(1,)] * (n - 1), [(1,)] * (n + 1)):
            with pytest.raises(ValueError, match=f"expected {n} coefficient rows"):
                ring.tensor(rows)
        with pytest.raises(ValueError, match="row longer than p"):
            ring.tensor([(1,)] * (n - 1) + [(1,) * (p + 1)])

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 131])
    def test_factorial_rows_match_chained_products(self, p):
        ring = PolyRing(p, 2)
        x = ring.variable(1)
        for rising in (False, True):
            chained = ring.one()
            for m, row in enumerate(formulas._factorial_rows(p, rising)):
                if m:
                    chained = pair_loop_mul(chained, x + m if rising else x - (m - 1))
                assert ring.univariate(1, row) == chained, (rising, m)

    #: Catalog entries whose closed forms are sums of tensors and trains, and scales.
    TENSOR_FORMS = ("max", "max2", "min2", "max3", "min3", "maxn2", "argmax", "argmax0",
                    "argmax2", "argmax2sel", "ismax", "ismax2", "ismax3", "ismax2bit",
                    "nummax", "nummax0", "nummax2", "carry")

    @pytest.mark.parametrize("name", TENSOR_FORMS)
    def test_forms_build_without_multiplying_in_their_ring(self, name, monkeypatch):
        entry = CATALOG[name]
        for p, n, r in entry.verify_grid:  # the cached one-variable rows are built here
            build_formula(name, p, n, r)
        rings = []
        original = Polynomial.__mul__

        def recorded(self, other):
            rings.append(self.ring)
            return original(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", recorded)
        for p, n, r in entry.verify_grid:
            ring = PolyRing(p, entry.spec_of(p, n, r).arity)
            rings.clear()
            build_formula(name, p, n, r)
            assert ring not in rings, (p, n, r)


# -- tensor trains -------------------------------------------------------------------

def train_cores(p, n, rng):
    """Random cores with one start and one end state, 2 or 3 states after
    axis 0, at most 3 between later axes and at most 27 paths in all.  Rows
    are empty (one in eight), zero mod p (one in eight) or random, with
    unreduced and negative entries that are rarely zero mod p, so few paths
    vanish; at p >= 128 only axis 0 has full rows, which keeps the chained
    reference on the pair loop."""
    widths, paths = [1], 1
    for _ in range(n - 1):
        widths.append(rng.choice((2, 3) if paths == 1 else (1, 2, 3)) if paths <= 9 else 1)
        paths *= widths[-1]
    widths.append(1)

    def entry():
        return p * rng.randrange(-1, 2) + (rng.randrange(1, p) if rng.random() < 0.9 else 0)

    def row(i):
        kind = rng.randrange(8)
        length = rng.randrange(1, p + 1) if p < 128 or i == 0 else rng.randrange(1, 4)
        if kind == 0:
            return ()
        if kind == 1:
            return tuple(p * rng.randrange(-1, 2) for _ in range(length))
        return tuple(entry() for _ in range(length))

    return [[[row(i) for _b in range(widths[i + 1])] for _a in range(widths[i])]
            for i in range(n)]


def reference_train(ring, cores):
    """The sum over every state path of the chained univariate products."""
    acc = ring.zero()
    for path in itertools.product(*(range(len(core)) for core in cores[1:])):
        states = (0, *path, 0)
        term = ring.one()
        for i, core in enumerate(cores):
            term = pair_loop_mul(term, ring.univariate(i, core[states[i]][states[i + 1]]))
        acc = acc + term
    return acc


class TestTrain:
    @pytest.mark.parametrize("p,n", TENSOR_RINGS + [(3, 1), (131, 1)])
    def test_matches_the_sum_over_state_paths(self, p, n):
        ring = PolyRing(p, n)
        rng = random.Random(f"train {p}/{n}")
        for _ in range(4):
            cores = train_cores(p, n, rng)
            got = ring.train(cores)
            assert got == reference_train(ring, cores), cores
            assert type(got.coeffs) is (bytes if p < 128 else tuple)

    def test_a_state_no_path_reaches_adds_nothing(self):
        ring = PolyRing(3, 3)
        # State 1 is never entered, so its rows never count.
        cores = [[[(1, 2), ()]], [[(0, 1), ()], [(1,), (1,)]], [[(1, 1)], [(2, 0, 1)]]]
        want = ring.tensor([(1, 2), (0, 1), (1, 1)])
        assert ring.train(cores) == want
        cores[0][0][0] = (3, -3)  # zero mod p
        assert ring.train(cores) == ring.zero()

    @pytest.mark.parametrize("p,n", [(3, 3), (131, 2)])
    def test_refuses_malformed_cores(self, p, n):
        ring = PolyRing(p, n)
        one = [[(1,)]]
        cases = [
            ([one] * (n - 1), f"expected {n} cores, got {n - 1}"),
            ([one] * (n + 1), f"expected {n} cores, got {n + 1}"),
            ([[[(1,)], [(1,)]]] + [one] * (n - 1), "first core must leave one start state"),
            ([one] * (n - 1) + [[[(1,), (1,)]]], "last core must enter one end state"),
            ([[[(1,), (1,)]]] + [[[(1,)]] * 3] + [one] * (n - 2),
             "core 1 takes 3 states, core 0 gives 2"),
            ([[[(1,), (1,)]]] + [[[(1,)], [(1,), (1,)]]] + [one] * (n - 2),
             "core 1 must give each state one row per next state"),
            ([[[]]] + [one] * (n - 1), "core 0 must give each state one row per next state"),
            ([[[(1,), (1,)]], [[], []]] + [one] * (n - 2),
             "core 1 must give each state one row per next state"),
            ([one] * (n - 1) + [[[(1,) * (p + 1)]]], "row longer than p"),
        ]
        for cores, message in cases:
            with pytest.raises(ValueError, match=message):
                ring.train(cores)

    @pytest.mark.parametrize("name", ("argmax", "nummax", "nummax0"))
    def test_train_forms_build_without_products_or_pieces(self, name, monkeypatch):
        entry = CATALOG[name]
        for p, n, r in entry.verify_grid:  # the cached one-variable rows are built here
            build_formula(name, p, n, r)
        calls = []
        mul, univariate = Polynomial.__mul__, PolyRing.univariate
        monkeypatch.setattr(Polynomial, "__mul__",
                            lambda self, other: calls.append("*") or mul(self, other))
        monkeypatch.setattr(PolyRing, "univariate", lambda self, i, row: (
            calls.append("univariate") or univariate(self, i, row)))
        r = 1 if entry.uses_r else 0
        for p, n, r in entry.verify_grid + ((3, 8, r), (2, 12, 2 * r)):
            build_formula(name, p, n, r)
            assert not calls, (p, n, r, calls)


# -- chains of ring operations ---------------------------------------------------------

def reference_add(f, g, sign):
    """f + sign * g over the whole table."""
    p = f.ring.p
    return Polynomial(f.ring, [(a + sign * b) % p for a, b in zip(f.coeffs, g.coeffs)])


#: Rings of 16 to 343 entries.
CHAIN_RINGS = [(2, 4), (2, 6), (2, 8), (3, 3), (3, 5), (5, 2), (5, 3), (7, 2), (7, 3)]


@st.composite
def operand(draw, ring):
    """A polynomial from a sparse constructor or from a plain table."""
    p, n = ring.p, ring.n
    kind = draw(st.sampled_from(["zero", "constant", "variable", "monomial", "binomial",
                                 "univariate", "symmetric", "dense", "sparse"]))
    if kind == "zero":
        return ring.zero()
    if kind == "constant":
        return ring.constant(draw(st.integers(-2 * p, 2 * p)))
    if kind == "variable":
        return ring.variable(draw(st.integers(0, n - 1)))
    if kind in ("monomial", "binomial"):
        terms = []
        for _ in range(1 if kind == "monomial" else 2):
            exps = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
            terms.append(ring.monomial(exps, draw(st.integers(0, p - 1))))
        return terms[0] if kind == "monomial" else terms[0] + terms[1]
    if kind == "univariate":
        row = draw(st.lists(st.integers(0, p - 1), min_size=0, max_size=p))
        return ring.univariate(draw(st.integers(0, n - 1)), row)
    if kind == "symmetric":
        return ring.elementary_symmetric(draw(st.integers(0, n)))
    if kind == "dense":
        return ring.from_coeffs(draw(st.lists(st.integers(0, p - 1),
                                              min_size=ring.size, max_size=ring.size)))
    table = [0] * ring.size
    for pos in draw(st.lists(st.integers(0, ring.size - 1), max_size=5)):
        table[pos] = draw(st.integers(1, p - 1))
    return ring.from_coeffs(table)


@st.composite
def expression_chain(draw):
    """A start operand and a list of steps, each an op and its argument."""
    p, n = draw(st.sampled_from(CHAIN_RINGS))
    ring = PolyRing(p, n)
    start = draw(operand(ring))
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(["add", "sub", "mul", "radd", "rsub", "rmul",
                                   "scale", "neg", "square"]))
        if op in ("square", "neg"):
            arg = None
        elif op == "scale" or draw(st.booleans()):
            arg = draw(st.integers(-p, 2 * p))
        else:
            arg = draw(operand(ring))
        steps.append((op, arg))
    return ring, start, steps


def apply_step(f, op, arg):
    if op == "add":
        return f + arg
    if op == "sub":
        return f - arg
    if op == "mul":
        return f * arg
    if op == "radd":
        return arg + f
    if op == "rsub":
        return arg - f
    if op == "rmul":
        return arg * f
    if op == "scale":
        return f.scale(arg)
    if op == "square":
        return f * f
    return -f


def reference_step(f, op, arg):
    """The same step on fresh copies, with the full-table loops."""
    ring = f.ring
    if op == "square":
        return reference_mul(f, f)
    if op == "neg":
        return reference_add(Polynomial(ring, [0] * ring.size), f, -1)
    g = (Polynomial(ring, arg.coeffs) if isinstance(arg, Polynomial)
         else Polynomial(ring, [arg % ring.p] + [0] * (ring.size - 1)))
    if op == "add" or op == "radd":
        return reference_add(f, g, 1)
    if op == "sub":
        return reference_add(f, g, -1)
    if op == "rsub":
        return reference_add(g, f, -1)
    return reference_mul(f, g)  # mul, rmul, scale


class TestSupportRecords:
    """Chains of ring operations against the full-table loops."""

    @settings(max_examples=200, deadline=None)
    @given(expression_chain())
    def test_chains_match_full_table_loops(self, chain):
        ring, start, steps = chain
        got = start
        expected = Polynomial(ring, start.coeffs)
        for op, arg in steps:
            got = apply_step(got, op, arg)
            expected = reference_step(expected, op, arg)
            assert got == expected


# -- products, powers and substitution on value tables -----------------------------

#: Largest arity per modulus: both sides of p = 128, and p = 2.
VALUE_ARITY = {2: 4, 3: 3, 5: 2, 7: 1, 127: 1, 131: 1}


@st.composite
def value_operand(draw, ring, max_terms):
    """``operand`` for small p; at most ``max_terms`` random terms at p = 127
    and 131, which keeps the pair-loop references quick there."""
    if ring.p < 100:
        return draw(operand(ring))
    table = [0] * ring.size
    for pos in draw(st.lists(st.integers(0, ring.size - 1), max_size=max_terms)):
        table[pos] = draw(st.integers(1, ring.p - 1))
    return ring.from_coeffs(table)


@st.composite
def power_case(draw):
    p = draw(st.sampled_from(sorted(VALUE_ARITY)))
    ring = PolyRing(p, draw(st.integers(1, VALUE_ARITY[p])))
    return draw(value_operand(ring, 3)), draw(st.integers(0, 2 * p))


@st.composite
def compose_case(draw):
    """f and one substituent per variable, in a ring with one variable
    fewer, as many or one more.  At p = 131 one of the two rings has one
    variable and the other one or two, so both a smaller and a larger ring
    of 17161 entries come up."""
    p = draw(st.sampled_from(sorted(VALUE_ARITY)))
    n = draw(st.integers(1, VALUE_ARITY[p] + (p == 131)))
    m = draw(st.sampled_from([k for k in (n - 1, n, n + 1)
                              if 1 <= k <= VALUE_ARITY[p] + 1 and (p != 131 or n + k <= 3)]))
    f = draw(value_operand(PolyRing(p, n), 3))
    target = PolyRing(p, m)
    # Two terms at most at large p: every power of a binomial stays short.
    return f, [draw(value_operand(target, 2)) for _ in range(n)]


class TestValueTableOperations:
    """``**`` and ``compose`` against the pair loop; ``lagrange_rows`` against
    ``vandermonde_rows``."""

    @settings(max_examples=80, deadline=None)
    @given(power_case())
    @example((PolyRing(2, 1).zero(), 0))
    @example((PolyRing(3, 2).zero(), 6))
    @example((PolyRing(131, 1).variable(0) + 5, 262))
    @example((PolyRing(127, 1).monomial((126,), 3), 127))
    def test_power_matches_chained_pair_loop(self, case):
        f, e = case
        want = f.ring.one()
        for _ in range(e):
            want = pair_loop_mul(want, f)
        got = f ** e
        assert got == want
        assert type(got.coeffs) is (bytes if f.ring.p < 128 else tuple)

    @settings(max_examples=40, deadline=None)
    @given(compose_case())
    def test_compose_matches_power_tables(self, case):
        f, subs = case
        got = f.compose(subs)
        assert got == power_table_compose(f, subs)
        assert got.ring == subs[0].ring

    @pytest.mark.parametrize("p", [q for q in range(2, 60) if all(q % d for d in range(2, q))]
                             + [131, 257])
    def test_lagrange_rows_invert_vandermonde_rows(self, p):
        lagrange, vandermonde = lagrange_rows(p), vandermonde_rows(p)
        columns = list(zip(*vandermonde))
        identity = [[int(k == e) for e in range(p)] for k in range(p)]
        assert [[sum(map(operator.mul, row, col)) % p for col in columns]
                for row in lagrange] == identity


# -- one stored table form ---------------------------------------------------------

#: Rings on both sides of p = 128, with 729 to 17161 entries.
FORM_RINGS = [(2, 10), (3, 6), (127, 2), (131, 2)]


def form_operands(ring):
    """A dense polynomial (about 130 terms) and a univariate factor of up to
    20 terms."""
    p = ring.p
    rng = random.Random(f"{p}/{ring.n}")
    dense = ring.from_coeffs([rng.randrange(1, p) if rng.random() < 130 / ring.size else 0
                              for _ in range(ring.size)])
    row = [rng.randrange(1, p) for _ in range(min(p, 20))]
    return dense, ring.univariate(ring.n - 1, row)


class TestOneTableForm:
    @pytest.mark.parametrize("p,n", FORM_RINGS)
    def test_every_result_is_stored_packed(self, p, n):
        ring = PolyRing(p, n)
        form = bytes if p < 128 else tuple
        dense, factor = form_operands(ring)
        x = ring.variable(0)
        results = {
            "zero": ring.zero(), "constant": ring.constant(5), "variable": x,
            "monomial": ring.monomial((1,) * n, 3), "univariate": factor,
            "elementary_symmetric": ring.elementary_symmetric(2),
            "from_coeffs": dense, "compose": (PolyRing(p, 1).variable(0) + 2).compose([x]),
            "+": dense + factor, "-": factor - dense, "scale": factor.scale(2),
            "* (sparse)": (x + 1) * factor, "* (dense)": dense * factor,
            "**": (x + 2) ** 3,
            "interpolate": interpolate(tabulate(FunctionSpec("max", p, n))),
        }
        for name, f in results.items():
            assert type(f.coeffs) is form, name
            assert len(f.coeffs) == ring.size, name
            assert_stored(f._stored, p, ring.size)
            assert type(f._stored) is type(_store(f.coeffs, p)), name

    @pytest.mark.parametrize("p", [2, 3, 5, 17, 127, 131, 257])
    def test_every_kernel_result_is_stored(self, p):
        """The kernels take and give ``_store``'s form alone: value planes
        at p = 2 and p = 3, ``bytes`` below p = 128 and a tuple from there,
        never a list."""
        n = {2: 5, 3: 3, 5: 2, 17: 2}.get(p, 1)
        size = p ** n
        rng = random.Random(f"stored kernels {p}")
        a, b = (_store([rng.randrange(p) for _ in range(size)], p) for _ in range(2))
        results = [_combine(p, (2,), (a,)), _combine(p, (1,), (a,)), _combine(p, (p,), (a,)),
                   _combine(p, (1, -1), (a, b)), _combine(p, (0, 0), (a, b)),
                   apply_axis_transform(a, p, n, vandermonde_rows(p)),
                   polyring._product(p, a, b), polyring._ones(p, size)]
        for table in results:
            assert_stored(table, p, size)
        assert_stored(polyring._join([a, b], size, 3, p), p, 3 * size)
        for _i, table in polyring._input_values(p, n, range(n)):
            assert_stored(table, p, size)

    @pytest.mark.parametrize("p", [2, 3, 5, 13, 17, 127, 131, 257])
    def test_value_tables_share_the_stored_form(self, p):
        # Both sides of the stored form's boundaries at 4 (bits to bytes) and
        # at 128 (bytes to tuples), and of _product's pair codes at 16.
        n = 2 if p < 20 else 1
        f = build_formula("max", p, n)
        table = tabulate(FunctionSpec("max", p, n)).values
        values, ran = f.values(), run_all(lower(f, "nested_horner"))
        assert type(table) is type(values) is type(ran) is type(f.coeffs)
        assert table == values == ran

    @pytest.mark.parametrize("p,n", [(2, 10), (3, 6), (127, 2)])
    def test_packed_tables_take_one_byte_per_entry(self, p, n):
        ring = PolyRing(p, n)
        dense, factor = form_operands(ring)
        for f in (ring.zero(), factor, dense, dense + factor, dense * factor,
                  ring.from_coeffs(list(dense.coeffs))):
            assert sys.getsizeof(f.coeffs) < ring.size + 64


# -- the fold against the per-point dispatch ---------------------------------------

def reference_evaluate(spec, point):
    """The per-point kind dispatch that ``tabulate`` used to run."""
    kind = spec.kind
    if kind == "max":
        return max_sem(point)
    if kind == "min":
        return min_sem(point)
    if kind == "argmax_digit":
        return argmax_digit_sem(point, spec.r, spec.p)
    if kind == "argmin_digit":
        return argmin_digit_sem(point, spec.r, spec.p)
    if kind == "ismax":
        return ismax_sem(point[0], point[1:])
    if kind == "nummax_digit":
        return nummax_digit_sem(point, spec.r, spec.p)
    if kind == "carry":
        return carry_sem(point[0], point[1], spec.p)
    if kind == "ismax_2bit":
        pairs = [(point[2 + 2 * i], point[3 + 2 * i]) for i in range(spec.n)]
        return ismax_2bit_sem((point[0], point[1]), pairs)
    raise AssertionError(f"unhandled kind {kind}")


def small_specs(kind):
    for p in ((2,) if kind == "ismax_2bit" else (2, 3, 5)):
        for n in ((2,) if kind == "carry" else (1, 2, 3)):
            for r in ((0, 1, 2) if kind.endswith("_digit") else (0,)):
                yield FunctionSpec(kind, p, n, r)


#: The verify cases of the dense-p3 and dense-p2 benchmark workloads.
DENSE_CASES = (("max", 3, 9, 0), ("argmax", 3, 9, 0), ("nummax0", 3, 9, 0), ("max", 5, 6, 0),
               ("max2", 2, 17, 0), ("argmax2", 2, 16, 1), ("nummax2", 2, 17, 1),
               ("ismax2bit", 2, 7, 0), ("argmax2sel", 2, 15, 1))

#: Specs at the one-byte limit of ``tabulate``'s id table: ismax p = 17 and
#: max p = 257 reach 289 and 257 states and move to a tuple id table (ismax's
#: values still end as bytes); argmax_digit p = 131 stays on bytes with 131 ids.
PAST_BYTE_SPECS = (FunctionSpec("ismax", 17, 2), FunctionSpec("argmax_digit", 131, 2, 1),
                   FunctionSpec("max", 257, 2))

#: Folds at the edges of the p = 2 and p = 3 plane path: arity 1, ismax with
#: its y input, the 32 states of ismax_2bit at n = 7, carry at p = 3 and the
#: digit kinds with many states.
EDGE_FOLD_SPECS = (FunctionSpec("max", 2, 1), FunctionSpec("argmax_digit", 3, 1, 0),
                   FunctionSpec("ismax", 2, 1), FunctionSpec("ismax", 3, 5),
                   FunctionSpec("ismax_2bit", 2, 7), FunctionSpec("carry", 3, 2),
                   FunctionSpec("argmax_digit", 2, 16, 2), FunctionSpec("nummax_digit", 3, 7, 1))


def differential_specs(kind):
    """Small specs, every catalog ``verify_grid`` spec, the dense benchmark
    cases, the past-one-byte specs and the plane-path edge specs of this
    kind, each once."""
    catalog = [entry.spec_of(p, n, r)
               for entry in CATALOG.values() for p, n, r in entry.verify_grid]
    dense = [CATALOG[name].spec_of(p, n, r) for name, p, n, r in DENSE_CASES]
    specs = [*small_specs(kind), *catalog, *dense, *PAST_BYTE_SPECS, *EDGE_FOLD_SPECS]
    return [spec for spec in dict.fromkeys(specs) if spec.kind == kind]


class TestTabulate:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_per_point_dispatch(self, kind):
        # At p = 2 and p = 3 the table is built in stored form and its values
        # decoded from it; elsewhere the stored form is the values.
        for spec in differential_specs(kind):
            points = [point_at(spec.p, spec.arity, i) for i in range(spec.p ** spec.arity)]
            expected = tuple(reference_evaluate(spec, point) for point in points)
            table = tabulate(spec)
            assert table.values == _pack(expected, spec.p), spec
            assert table._stored == polyring._store(expected, spec.p), spec
            assert tuple(spec.evaluate(point) for point in points) == expected, spec

    def test_tuple_id_table_ends_as_bytes(self):
        # ismax at p = 17, n = 3 passes 256 fold states; its values fit a byte.
        spec = FunctionSpec("ismax", 17, 3)
        assert max(width for _, width in oracle._automaton(spec)) > 256
        table = tabulate(spec)
        assert type(table._stored) is bytes
        points = (point_at(17, 4, i) for i in range(17 ** 4))
        assert table.values == bytes(reference_evaluate(spec, point) for point in points)

    @pytest.mark.parametrize("spec", [*EDGE_FOLD_SPECS, FunctionSpec("max", 5, 3)], ids=repr)
    def test_fold_runs_once_per_state_x_and_axis(self, spec, monkeypatch):
        calls = {"step": [], "finish": []}
        fold = FunctionSpec.fold

        def counted(self):
            start, step, finish = fold(self)

            def counted_step(s, k, x):
                calls["step"].append((k, s, x))
                return step(s, k, x)

            def counted_finish(s):
                calls["finish"].append(s)
                return finish(s)

            return start, counted_step, counted_finish

        monkeypatch.setattr(FunctionSpec, "fold", counted)
        tabulate(spec)
        steps, last = calls["step"], spec.arity - 1
        assert len(set(steps)) == len(steps)
        assert len(calls["finish"]) == sum(k == last for k, _, _ in steps)
        start, step, _ = fold(spec)
        states = {start}
        for k in range(spec.arity):  # every reachable (state, x), once per axis
            assert {(s, x) for j, s, x in steps if j == k} == {
                (s, x) for s in states for x in range(spec.p)}, k
            states = {step(s, k, x) for s in states for x in range(spec.p)}

    @pytest.mark.parametrize("p,bad,message", [
        (3, 3, "field element 3 out of range [0, 3)"),
        (3, True, "field element must be an int, got True"),
        (3, 1.0, "field element must be an int, got 1.0"),
        (3, -1, "field element -1 out of range [0, 3)"),
        (2, 2, "field element 2 out of range [0, 2)"),
        (2, True, "field element must be an int, got True"),
        (5, 5, "field element 5 out of range [0, 5)"),
        (5, True, "field element must be an int, got True"),
        (5, 1.0, "field element must be an int, got 1.0"),
        (5, -1, "field element -1 out of range [0, 5)"),
        (131, 131, "field element 131 out of range [0, 131)"),
        (131, True, "field element must be an int, got True"),
        (131, 1.0, "field element must be an int, got 1.0"),
        (131, -1, "field element -1 out of range [0, 131)")])
    def test_noncanonical_finish_is_refused(self, p, bad, message, monkeypatch):
        fold = FunctionSpec.fold

        def broken(self):
            start, step, finish = fold(self)
            return start, step, lambda s: bad if finish(s) else 0

        monkeypatch.setattr(FunctionSpec, "fold", broken)
        with pytest.raises(ValueError) as refused:
            tabulate(FunctionSpec("max", p, 3))
        assert str(refused.value) == message
        with pytest.raises(ValueError) as listed:
            TruthTable(p, 1, [0, bad] + [0] * (p - 2))
        assert str(listed.value) == message


# -- the value-plane stores against byte tables ------------------------------------------

#: Every arity the p = 2 differential tests run at.
BIT_ARITIES = range(1, 21)

#: Every arity the p = 3 differential tests run at, up to 3^12 = 531,441 entries.
PLANE_ARITIES = range(13)

#: Arities at which the per-entry references of the p = 3 kernels run.
SMALL_PLANES = 5

#: Tables up to this size are also built from lists and checked against the
#: per-entry references: n <= 12 at p = 2, n <= 7 at p = 3.
LIST_SIZE = 4096


def random_bits(rng, size):
    """A random p = 2 table of ``bytes``."""
    return rng.randbytes(size).translate(bytes([0, 1] * 128))


def random_trits(rng, size):
    """A random p = 3 table of ``bytes``."""
    return bytes(rng.choices(range(3), k=size))


#: Per field of the store tests: the name in their seeds, a random table, and
#: the univariate and tensor rows they build (at most p coefficients each).
FIELD_NAMES = {2: "bit", 3: "plane"}
RANDOM_TABLES = {2: random_bits, 3: random_trits}
UNIVARIATE_ROWS = {2: ((), (1,), (0, 1), (1, 1), (3, -1), (-2, 5)),
                   3: ((), (1,), (0, 2), (1, 1, 1), (3, -1, 5), (-2, 0, 4))}
TENSOR_ROWS = {2: ((), (1,), (0, 1), (1, 1), (3, -2), (-1,)),
               3: ((), (1,), (0, 1), (1, 1, 2), (3, -2, 4), (-1,))}

#: The rings of the store tests: every arity of ``BIT_ARITIES`` at p = 2 and
#: of ``PLANE_ARITIES`` at p = 3, from one variable up.
STORE_CASES = [(2, n) for n in BIT_ARITIES] + [(3, n) for n in PLANE_ARITIES if n]

#: The rings of the substitution tests.
COMPOSE_CASES = [(2, n) for n in range(1, 11)] + [(3, n) for n in range(1, 8)]


def byte_rounds(table, n, matrix):
    """``apply_axis_transform`` at p = len(matrix) < 128 as n chained byte
    ``_round``s."""
    table = bytes(table)
    for _axis in range(n):
        table = polyring._round(table, len(matrix), matrix)
    return table


def byte_add(a, b, sign, p):
    """The byte ``+``: one ``byte_combine`` of two byte tables."""
    return byte_combine(p, (1, sign), (a, b))


def byte_train(n, cores, p):
    """The byte ``train``: per state one ``_lane_sums`` of byte tables with
    a weight row per exponent, the parts joined as ``bytes`` and padded with
    zero bytes."""
    tables = [b"\1"]
    for core in cores:
        nxt = []
        for b in range(len(core[0])):
            rows, cols = [], []
            for steps, table in zip(core, tables):
                if steps[b] and table is not None:
                    rows.append(steps[b])
                    cols.append(table)
            if not rows:
                nxt.append(None)
                continue
            parts = _lane_sums(p, list(itertools.zip_longest(*rows, fillvalue=0)), cols)
            parts.append(bytes(len(cols[0]) * (p - len(parts))))
            nxt.append(b"".join(parts))
        tables = nxt
    return bytes(p ** n) if tables[0] is None else tables[0]


def byte_product(a, b, p):
    """Entry-wise product of two byte tables: at p = 2 an AND of their lanes."""
    if p == 2:
        size = len(a)
        return (int.from_bytes(a, "little") & int.from_bytes(b, "little")).to_bytes(size, "little")
    return bytes(x * y % p for x, y in zip(a, b))


def byte_scan(candidate, spec):
    """verify_formula's mismatch fields by the byte path: the candidate's
    values by chained ``_round``s, scanned index by index."""
    table = tabulate(spec).values
    values = byte_rounds(candidate.coeffs, spec.arity, vandermonde_rows(spec.p))
    for i in range(len(table)):
        if values[i] != table[i]:
            return list(point_at(spec.p, spec.arity, i)), table[i], values[i]
    return None


def plane_matrices(rng):
    """The evaluation and interpolation matrices, and matrices with
    unreduced and negative entries."""
    return [vandermonde_rows(3), delta_basis_rows(3), lagrange_rows(3),
            random_matrix(rng, 3), ((4, -1, 7), (-5, 2, 0), (3, 6, -3))]


def planes(table):
    """A p = 3 table as its pair of planes, entry by entry: bit i of plane
    v - 1 is set where entry i is v."""
    return tuple(sum(1 << i for i, x in enumerate(table) if x == v) for v in (1, 2))


def reference_trit_mask(n, i):
    """The bits j < 3^n whose index has digit i equal to 0, by ``point_at``."""
    return sum(1 << j for j in range(3 ** n) if point_at(3, n, j)[i] == 0)


def check_store(f, want):
    """``f`` holds the p = 2 or p = 3 table ``want`` (bytes): as a tuple of
    p - 1 ints with pairwise disjoint bits, as ``coeffs``, under ``==``,
    ``hash`` and ``bool``, and in ``repr``.  The hash is taken before
    ``coeffs`` is first read and compared with tables built from bytes and
    (small ones) from lists."""
    ring = f.ring
    p = ring.p
    before = hash(f)
    stored = f._stored
    assert type(stored) is tuple and len(stored) == p - 1  # the value planes, not bytes
    assert all(type(plane) is int for plane in stored)
    assert not any(x & y for x, y in itertools.combinations(stored, 2))
    assert type(f.coeffs) is bytes and f.coeffs == want
    same = [Polynomial(ring, want)]
    if ring.size <= LIST_SIZE:
        same += [ring.from_coeffs(list(want)), Polynomial(ring, list(want))]
    assert all(f == g and g == f for g in same)
    assert len({before, hash(f), *map(hash, same)}) == 1
    assert bool(f) == any(want) == all(bool(g) for g in same)
    assert repr(f) == f"Polynomial(p={p}, n={ring.n}, terms={len(want) - want.count(0)})"


class TestPlaneKernels:
    """At p = 3 the table kernels on pairs of planes against the byte path
    (``_lane_sums`` and ``_join`` on bytes, chained byte ``_round``s) and, for
    small tables, the per-entry sum and the fiber loop."""

    @pytest.mark.parametrize("n", PLANE_ARITIES)
    def test_store_and_unstore(self, n):
        rng = random.Random(f"plane store {n}")
        table = random_trits(rng, 3 ** n)
        stored = polyring._store(table, 3)
        if n <= SMALL_PLANES:
            assert stored == planes(table)
        assert polyring._store(list(table), 3) == stored
        assert polyring._unstore(stored, 3, 3 ** n) == table
        step = 3 ** n // 7 + 1
        assert [polyring._stored_entry(stored, 3, i)
                for i in range(0, 3 ** n, step)] == list(table[::step])

    @pytest.mark.parametrize("n", PLANE_ARITIES)
    def test_combine(self, n):
        rng = random.Random(f"plane combine {n}")
        size = 3 ** n
        for count in (1, 2, 3, 5):
            cols = [random_trits(rng, size) for _ in range(count)]
            for weights in ([rng.randrange(-7, 8) for _ in range(count)], [0] * count,
                            [3, -3, 6, 0, 9][:count], [2, -1, 5, 4, -4][:count]):
                got = _combine(3, weights, [polyring._store(col, 3) for col in cols])
                assert type(got) is tuple
                want = byte_combine(3, weights, cols)
                assert polyring._unstore(got, 3, size) == want
                if n <= SMALL_PLANES:
                    assert list(want) == reference_combine(3, weights, cols)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_join(self, n):
        rng = random.Random(f"plane join {n}")
        width = 3 ** (n - 1)
        for count in (1, 2, 3):
            parts = [random_trits(rng, width) for _ in range(count)]
            got = polyring._join([polyring._store(part, 3) for part in parts], width, 3, 3)
            want = b"".join(parts) + bytes(width * (3 - count))
            assert polyring._unstore(got, 3, 3 * width) == want

    def test_axis_masks(self):
        # From the top axis down, each mask made from the one before.
        for n in range(9):
            expected = [reference_trit_mask(n, i) for i in range(n - 1, -1, -1)]
            assert list(polyring._axis_masks(n, 3)) == expected, n

    @pytest.mark.parametrize("n", PLANE_ARITIES)
    def test_axis_transform(self, n):
        rng = random.Random(f"plane transform {n}")
        table = random_trits(rng, 3 ** n)
        stored = polyring._store(table, 3)
        for matrix in plane_matrices(rng):
            want = byte_rounds(table, n, matrix)
            got = apply_axis_transform(stored, 3, n, matrix)
            assert type(got) is tuple and polyring._unstore(got, 3, 3 ** n) == want
            if n <= SMALL_PLANES:
                expected = list(table)
                reference_axis_transform(expected, 3, n, matrix)
                assert list(want) == expected
        assert stored == polyring._store(table, 3)

    @pytest.mark.parametrize("n", PLANE_ARITIES)
    def test_first_mismatch(self, n):
        rng = random.Random(f"plane mismatch {n}")
        size = 3 ** n
        a = random_trits(rng, size)
        assert polyring.first_mismatch(polyring._store(a, 3), polyring._store(a, 3), 3) is None
        for i in sorted({0, size // 2, size - 1}):
            for shift in (1, 2):
                broken = bytearray(a)
                broken[i] = (broken[i] + shift) % 3
                if i + 1 < size:  # a later mismatch too
                    broken[-1] = (broken[-1] + 1) % 3
                b = bytes(broken)
                scan = next(k for k in range(size) if a[k] != b[k])
                assert scan == i
                stored = polyring._store(a, 3), polyring._store(b, 3)
                assert polyring.first_mismatch(*stored, 3) == i

    @pytest.mark.parametrize("n", range(1, 13))
    def test_eval(self, n):
        rng = random.Random(f"plane eval {n}")
        ring = PolyRing(3, n)
        a = random_trits(rng, ring.size)
        values = byte_rounds(a, n, vandermonde_rows(3))
        points = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(6)]
        points += [(0,) * n, (2,) * n]
        for f in (ring.from_coeffs(a), ring.zero(), ring.constant(2), ring.variable(n - 1)):
            want = values if f.coeffs == a else byte_rounds(f.coeffs, n, vandermonde_rows(3))
            for point in points:
                index = sum(x * 3 ** i for i, x in enumerate(point))
                assert f.eval(point) == want[index], (point, f)
                if n <= SMALL_PLANES:
                    assert f.eval(point) == reference_eval(f, point)


class TestFirstMismatchDispatch:
    """``first_mismatch`` reads two stored tables by p: a tuple of p - 1
    value planes at p = 2 and p = 3, ``bytes`` below p = 128 and a tuple
    from there, where the stored form is the packed one.  One-entry tables
    (n = 0) are the edge."""

    @pytest.mark.parametrize("p", [2, 3, 5, 131])
    def test_one_entry_tables(self, p):
        for x, y in itertools.product(range(p) if p < 8 else (0, 1, 130), repeat=2):
            want = None if x == y else 0
            a, b = (x,), (y,)
            if p > 3:
                assert polyring.first_mismatch(_pack(a, p), _pack(b, p), p) == want, (x, y)
                assert polyring.first_mismatch(a, b, p) == want, (x, y)
            stored = polyring._store(a, p), polyring._store(b, p)
            assert polyring.first_mismatch(*stored, p) == want, (x, y)
            assert polyring._stored_entry(stored[0], p, 0) == x

    @pytest.mark.parametrize("p", [2, 3, 5, 131])
    def test_truth_tables_at_arity_zero(self, p):
        # The one value of an arity-0 table, stored as tabulate makes it.
        tables = [TruthTable(p, 0, (v,)) for v in (0, 1, p - 1)]
        for s, t in itertools.product(tables, repeat=2):
            want = None if s.values == t.values else 0
            assert polyring.first_mismatch(s._stored, t._stored, p) == want
            if p > 3:
                assert polyring.first_mismatch(s.values, t.values, p) == want


class TestStore:
    """At p = 2 and p = 3 a polynomial keeps its table as p - 1 value planes.
    Every operation is checked against the byte tables: the byte ``train``
    and ``+`` (``_lane_sums`` on bytes), chained byte ``_round``s for the axis
    transforms, and for small tables the per-entry sum, the fiber loop, the
    pair loop and substitution by power tables."""

    @pytest.mark.parametrize("p,n", STORE_CASES)
    def test_constructors(self, p, n):
        rng = random.Random(f"{FIELD_NAMES[p]} constructors {n}")
        ring, size = PolyRing(p, n), p ** n

        def table(entries):
            out = bytearray(size)
            for i, c in entries:
                out[i] = c % p
            return bytes(out)

        check_store(ring.zero(), bytes(size))
        for c in (0, 1, 2, -1, 5, -3):
            check_store(ring.constant(c), table([(0, c)]))
        for i in {0, n - 1, rng.randrange(n)}:
            check_store(ring.variable(i), table([(p ** i, 1)]))
        for coeff in (1, 2, 3, 4, -1):
            exps = [rng.randrange(p) for _ in range(n)]
            check_store(ring.monomial(exps, coeff),
                        table([(sum(e * p ** k for k, e in enumerate(exps)), coeff)]))
        for row in UNIVARIATE_ROWS[p]:
            i = rng.randrange(n)
            check_store(ring.univariate(i, row),
                        table([(e * p ** i, c) for e, c in enumerate(row)]))
        dense = RANDOM_TABLES[p](rng, size)
        check_store(ring.from_coeffs(dense), dense)
        if size <= LIST_SIZE:
            check_store(ring.from_coeffs(list(dense)), dense)
        m = rng.randint(1, n)
        small = RANDOM_TABLES[p](rng, p ** m)
        if size <= LIST_SIZE:  # the first m variables keep the table in the low slice
            check_store(PolyRing(p, m).from_coeffs(small).compose(
                [ring.variable(i) for i in range(m)]), small + bytes(size - p ** m))
        for k in (range(n + 1) if n <= 8 or size <= LIST_SIZE else {0, 1, 2, n}):
            want = table([(sum(p ** j for j in subset), 1)
                          for subset in itertools.combinations(range(n), k)])
            if size <= LIST_SIZE:  # every digit 0 or 1, k of them 1
                assert want == bytes(int(max(d) < 2 and sum(d) == k)
                                     for d in (point_at(p, n, i) for i in range(size)))
            check_store(ring.elementary_symmetric(k), want)

    @pytest.mark.parametrize("p,n", STORE_CASES)
    def test_add_sub_neg_scale(self, p, n):
        rng = random.Random(f"{FIELD_NAMES[p]} add {n}")
        ring, size = PolyRing(p, n), p ** n
        a, b = RANDOM_TABLES[p](rng, size), RANDOM_TABLES[p](rng, size)
        f, g = Polynomial(ring, a), Polynomial(ring, b)
        check_store(f + g, byte_add(a, b, 1, p))
        check_store(f - g, byte_add(a, b, -1, p))
        check_store(g - f, byte_add(b, a, -1, p))
        check_store(sum([f] * (p - 1), f), bytes(size))  # p copies of f
        check_store(-f, byte_add(bytes(size), a, -1, p))
        check_store(1 - f, byte_add(b"\1" + bytes(size - 1), a, -1, p))
        for c in (0, 1, 2, -1, 4, -3):
            check_store(f.scale(c), byte_combine(p, (c,), (a,)))
            check_store(c * f, byte_combine(p, (c,), (a,)))
        if size <= LIST_SIZE:
            assert list((f + g).coeffs) == reference_combine(p, (1, 1), (a, b))
            assert list((f - g).coeffs) == reference_combine(p, (1, -1), (a, b))

    @pytest.mark.parametrize("p,n", STORE_CASES)
    def test_train_and_tensor(self, p, n):
        rng = random.Random(f"{FIELD_NAMES[p]} train {n}")
        ring = PolyRing(p, n)
        for _ in range(3):
            cores = train_cores(p, n, rng)
            check_store(ring.train(cores), byte_train(n, cores, p))
        rows = [rng.choice(TENSOR_ROWS[p]) for _ in range(n)]
        check_store(ring.tensor(rows), byte_train(n, [[[row]] for row in rows], p))
        if n > 1:  # state 1 is never entered: the rows out of it add nothing
            cores = ([[[(1, 1), ()]]] + [[[(1, -1), ()], [(1,), (0, 1)]]] * (n - 2)
                     + [[[(3, 1)], [(1,)]]])
            check_store(ring.train(cores), byte_train(n, cores, p))

    @pytest.mark.parametrize("p,n", STORE_CASES)
    def test_values_and_interpolate(self, p, n):
        rng = random.Random(f"{FIELD_NAMES[p]} values {n}")
        ring = PolyRing(p, n)
        a = RANDOM_TABLES[p](rng, p ** n)
        f = Polynomial(ring, a)
        values = f.values()
        assert type(values) is bytes and values == byte_rounds(a, n, vandermonde_rows(p))
        interpolated = interpolate(TruthTable(p, n, a))
        check_store(interpolated, byte_rounds(a, n, delta_basis_rows(p)))
        assert interpolate(TruthTable(p, n, values)) == f
        if ring.size <= LIST_SIZE:
            expected = list(a)
            reference_axis_transform(expected, p, n, vandermonde_rows(p))
            assert list(values) == expected

    @pytest.mark.parametrize("p,n", STORE_CASES)
    def test_products_and_powers(self, p, n):
        rng = random.Random(f"{FIELD_NAMES[p]} products {n}")
        ring, size = PolyRing(p, n), p ** n
        a, b = RANDOM_TABLES[p](rng, size), RANDOM_TABLES[p](rng, size)
        f, g = Polynomial(ring, a), Polynomial(ring, b)
        va, vb = (byte_rounds(t, n, vandermonde_rows(p)) for t in (a, b))
        want = byte_rounds(byte_product(va, vb, p), n, lagrange_rows(p))
        check_store(f * g, want)
        check_store(g * f, want)
        check_store(f ** 0, b"\1" + bytes(size - 1))
        for e in range(1, 7):
            if (e - 1) % (p - 1) == 0:  # v^e = v for every v in F_p
                check_store(f ** e, a)
            else:
                check_store(f ** e, byte_rounds(bytes(pow(v, e, p) for v in va), n,
                                                lagrange_rows(p)))
        if size <= 81:  # n <= 6 at p = 2, n <= 4 at p = 3
            sparse = ring.from_coeffs(a[:3] + bytes(size - len(a[:3])))
            assert f * sparse == pair_loop_mul(f, sparse)
            assert f * g == pair_loop_mul(f, g)
            assert f ** 2 == pair_loop_mul(f, f)

    @pytest.mark.parametrize("p,n", COMPOSE_CASES)
    def test_compose(self, p, n):
        rng = random.Random(f"{FIELD_NAMES[p]} compose {n}")
        f = PolyRing(p, n).from_coeffs(RANDOM_TABLES[p](rng, p ** n))
        target = PolyRing(p, rng.randint(1, n))
        subs = [target.from_coeffs(RANDOM_TABLES[p](rng, target.size)) for _ in range(n)]
        index = [sum(v * p ** i for i, v in enumerate(point))
                 for point in zip(*(byte_rounds(s.coeffs, target.n, vandermonde_rows(p))
                                    for s in subs))]
        values = byte_rounds(f.coeffs, n, vandermonde_rows(p))
        check_store(f.compose(subs), byte_rounds(bytes(values[i] for i in index),
                                                 target.n, lagrange_rows(p)))
        if f.ring.size <= 27:  # n <= 4 at p = 2, n <= 3 at p = 3
            assert f.compose(subs) == power_table_compose(f, subs)


#: Every p = 2 and p = 3 verify_grid entry, then the dense-p2 and dense-p3
#: benchmark cases.
P2_CASES, P3_CASES = (list(dict.fromkeys(
    [(name, p, n, r) for name, entry in CATALOG.items() for p, n, r in entry.verify_grid
     if p == q] + [case for case in DENSE_CASES if case[1] == q])) for q in (2, 3))


class TestStoreOnTheCatalog:
    @pytest.mark.parametrize("name,p,n,r", P2_CASES + P3_CASES)
    def test_closed_forms_match_byte_interpolation(self, name, p, n, r):
        spec = CATALOG[name].spec_of(p, n, r)
        f = build_formula(name, p, n, r)
        before = hash(f)
        want = byte_rounds(tabulate(spec).values, spec.arity, delta_basis_rows(p))
        assert type(f.coeffs) is bytes and f.coeffs == want
        g = PolyRing(p, spec.arity).from_coeffs(f.coeffs)
        assert f == g and g == f and hash(g) == hash(f) == before
        assert g.values() == f.values() == tabulate(spec).values

    @pytest.mark.parametrize("name,p,n,r", [case for case in P2_CASES if case[2] >= 4][::5]
                             + [case for case in DENSE_CASES if case[1] == 2])
    def test_mismatch_matches_byte_scan(self, name, p, n, r):
        spec = CATALOG[name].spec_of(p, n, r)
        coeffs = build_formula(name, p, n, r).coeffs
        size = len(coeffs)
        for bit in (0, size // 2 + 3, size - 1):
            broken = bytearray(coeffs)
            broken[bit] = (broken[bit] + 1) % p
            candidate = PolyRing(p, spec.arity).from_coeffs(broken)
            report = verify_formula(name, p, n, r, candidate=candidate)
            assert report["status"] == "mismatch" and not report["coefficient_match"]
            point, expected, got = byte_scan(candidate, spec)
            assert (report["mismatch_point"], report["expected"], report["got"]) == (
                point, expected, got), bit

    @pytest.mark.parametrize("name,p,n,r", [("max2", 2, 12, 0), ("argmax2", 2, 12, 1),
                                            ("ismax2bit", 2, 5, 0), ("max", 3, 8, 0),
                                            ("argmax", 3, 7, 1), ("nummax", 3, 7, 1)])
    def test_verify_converts_no_table(self, name, p, n, r, monkeypatch):
        """The truth table is built as words or planes, and the closed form
        and the comparisons stay so: in a passing verify and in a mismatch
        report, nothing is converted to or from bits but one-variable rows."""
        ring = PolyRing(p, CATALOG[name].spec_of(p, n, r).arity)
        broken = bytearray(build_formula(name, p, n, r).coeffs)
        broken[ring.size // 3] = (broken[ring.size // 3] + 1) % p
        candidate = ring.from_coeffs(broken)
        sizes = []
        for fn in ("_to_bits", "_from_bits"):
            original = getattr(polyring, fn)

            def recorded(*args, fn=fn, original=original):
                sizes.append((fn, len(args[0]) if fn == "_to_bits" else args[1]))
                return original(*args)

            monkeypatch.setattr(polyring, fn, recorded)
        assert verify_formula(name, p, n, r)["status"] == "pass"
        report = verify_formula(name, p, n, r, candidate=candidate)
        assert report["status"] == "mismatch" and report["points_checked"] == ring.size
        assert [s for s in sizes if s[1] > p] == []


#: Cases at p = 2, 3 and 5, from the grid to the dense benchmark sizes.
MISMATCH_CASES = [("max2", 2, 10, 0), ("argmax2", 2, 9, 1), ("max", 3, 2, 0),
                  ("argmax", 3, 6, 1), ("nummax", 3, 7, 1), ("max", 3, 9, 0),
                  ("maxn2", 5, 2, 0), ("max", 5, 4, 0), ("max5", 5, 3, 0)]


class TestVerifyMismatchReports:
    @pytest.mark.parametrize("name,p,n,r", MISMATCH_CASES)
    def test_reports_match_byte_scan_with_one_transform(self, name, p, n, r, monkeypatch):
        """Candidates broken at the first, a middle and the last coefficient
        report the point, expected and got of the byte scan, and the
        candidate is transformed once: the compared table gives ``got``."""
        spec = CATALOG[name].spec_of(p, n, r)
        coeffs = build_formula(name, p, n, r).coeffs
        size = len(coeffs)
        transforms = []
        original = polyring.apply_axis_transform

        def counted(*args):
            transforms.append(args[1:3])
            return original(*args)

        for i in (0, size // 2 + 1, size - 1):
            for shift in range(1, p):
                broken = bytearray(coeffs)
                broken[i] = (broken[i] + shift) % p
                candidate = PolyRing(p, spec.arity).from_coeffs(broken)
                transforms.clear()
                # The candidate's values go through polyring's binding, the
                # truth table's interpolation through oracle's.
                monkeypatch.setattr(polyring, "apply_axis_transform", counted)
                report = verify_formula(name, p, n, r, candidate=candidate)
                monkeypatch.undo()
                assert transforms == [(p, spec.arity)]
                assert report["status"] == "mismatch" and not report["coefficient_match"]
                assert not report["function_match"]
                point, expected, got = byte_scan(candidate, spec)
                assert (report["mismatch_point"], report["expected"], report["got"]) == (
                    point, expected, got), (i, shift)
                assert type(report["got"]) is int and got == candidate.values()[
                    sum(x * p ** k for k, x in enumerate(point))]
