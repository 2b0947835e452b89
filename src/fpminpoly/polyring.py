"""Dense multivariate polynomial arithmetic over F_p modulo x_i^p = x_i.

Working in the quotient by the relations x_i^p - x_i keeps every polynomial
in its canonical representative: per-variable degree at most p-1.  A
polynomial in n variables is therefore exactly a table of p^n coefficients,
stored flat in mixed-radix order with x0 least significant: the coefficient
of x0^e0 * x1^e1 * ... sits at index e0 + e1*p + e2*p^2 + ...

Truth tables over F_p^n use the same indexing for input points, so
evaluating everywhere and interpolating are inverse axis-by-axis transforms
of one flat table (see ``Polynomial.values`` and ``oracle.interpolate``).

By the counting argument (p^(p^n) functions, p^(p^n) canonical tables) the
canonical representative agreeing with a given function is unique, which is
why coefficient equality of two canonical polynomials is the same thing as
equality as functions.

A p^n table has one form per p on each side of this module's edge.
Outside (``coeffs``, ``values()``, truth tables, the result of
``circuit.run_all``) it is packed (``_pack``): for p < 128 the canonical
residues are packed into ``bytes``, one entry per byte; for p >= 128,
where the sum of two reduced entries can pass 255, a tuple of ints.
Inside, every table passed between this module's kernels is in the stored
form (``_store``), and every kernel picks its branch from p alone.  At
p = 2 and p = 3 the table is bit sliced into a tuple of p - 1 value
planes: plane v - 1 is an int of p^n bits with bit i set exactly where
entry i equals v, so p = 2 keeps one plane and p = 3 is ``(ones, twos)``.
For every other p the stored form is the packed form itself.  Tables come
in through ``_checked`` and ``_store`` (``_to_bits`` reads one plane from
``bytes``) and go out through ``_unstore``, which decodes value planes to
``bytes``; ``coeffs`` is decoded on first use and kept.  Only this module
knows the layout: ``oracle`` and ``formulas`` pass stored tables between
its functions (``TruthTable`` keeps its values in stored form,
``tabulate`` at p = 2 and p = 3 builds the value planes itself, and the
values are decoded by ``_unstore`` only when read; ``Polynomial._values``
gives a polynomial's values in stored form, ``first_mismatch`` compares
two of them and ``_stored_entry`` reads one entry), and
``circuit.run_all`` carries one per wire: ``_input_values`` and ``_ones``
make its input and constant tables, its gates are ``_combine`` and
``_product`` calls and ``_unstore`` decodes its output.

The dense table work runs through one seam, with the standard library only.
``_combine`` is the one place where columns are scaled, summed and reduced
mod p, and ``_product`` the one place where two tables are multiplied entry
by entry.  At p = 2 and p = 3, on value planes, weight 0 skips a column,
weight 1 keeps it and weight 2 (p = 3) swaps its two planes; two columns
add as one xor at p = 2 and in six bitwise operations at p = 3 (Kawahara,
Aoki & Takagi, Pairing 2008).  For 3 < p < 128, on bytes, it is
``_lane_sums``, which reads each column once as a little-endian int, one
byte lane per entry, scales it by int multiplication within the lane
bound and reduces the sum with ``bytes.translate``; ``_round`` and
``PolyRing.train``, which sum the same columns with many weight rows,
call it once with all their rows.  From p = 128, on tuples, it runs
comprehensions.  ``_join`` lays tables side by side: each value plane by
shift-or, bytes and tuples by concatenation.  ``+``, ``-`` and ``scale``,
and ``PolyRing.train`` (a sum over the state paths of a small automaton
of products of one single-variable factor per variable, contracted axis
by axis; ``PolyRing.tensor`` is its one-state case, the outer product of
the factors' coefficient rows, and ``PolyRing.elementary_symmetric`` its
counting case) call them on the stored tables.

Axis transforms (``apply_axis_transform``, behind ``values()``,
``oracle.interpolate`` and the value-table operations) take one of three
paths, picked from p alone.  At p = 2 and p = 3 one sweep of axis masks
walks the value planes: at p = 2 each axis is one masked shift-and-xor
step on the one plane, at p = 3 three masked shifts of the planes
(``_bit_blocks``), one ``_combine`` per matrix row and one ``_join``.  The
masks (``_axis_masks``, each made from the last) also give the input tables
of ``circuit.run_all`` at p = 2 and p = 3 (``_input_values``).  For every
other p, ``_round`` is the one slice-rotation round: one ``_lane_sums`` of
all matrix rows on bytes (p < 128), the p columns read as ints once, and
one dot product per fiber on tuples.  ``eval`` runs one ``_combine`` per
variable.

A canonical polynomial is its function, so the nonlinear operations run on
value tables: ``*`` multiplies the operands' values pointwise (``_product``),
``**`` raises each value to the power, and ``compose`` reads this
polynomial's values at the points its substituents give.
``lagrange_rows``, the inverse of ``vandermonde_rows``, then turns the
values back into coefficients with one more axis transform.
Exponents for ``support`` are read from per-axis digit planes
(``_digit_plane``, also ``run_all``'s inputs for p > 3), built on first use.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress, zip_longest
import json
from operator import mul
from typing import Iterable, Iterator, Sequence

from .ff import PrimeField

#: Default cap on coefficient-table size p^n.  Dense tables plus exhaustive
#: verification are meant to stay desk-scale; raise explicitly if you know
#: what you are doing.
DEFAULT_MAX_TABLE_SIZE = 1 << 24


class RingMismatchError(ValueError):
    """Raised when operands from different rings (p or n differ) are mixed."""


class SizeGuardError(ValueError):
    """Raised when a requested table would exceed the configured size cap."""


@lru_cache(maxsize=None)
def vandermonde_rows(p: int) -> tuple[tuple[int, ...], ...]:
    """Row a holds (a^0, a^1, ..., a^(p-1)) mod p; maps coefficients to values."""
    return tuple(tuple(pow(a, e, p) for e in range(p)) for a in range(p))


@lru_cache(maxsize=None)
def lagrange_rows(p: int) -> tuple[tuple[int, ...], ...]:
    """Row k, column a: the x^k coefficient of 1 - (x - a)^(p-1), the
    indicator of x = a; maps values to coefficients, inverting
    ``vandermonde_rows``.

    C(p-1, k) = (-1)^k mod p, so (x - a)^(p-1) = sum_k a^(p-1-k) x^k and
    the entry is ((k == 0) - a^(p-1-k)) mod p, with 0^0 = 1.
    """
    return tuple(tuple(((k == 0) - pow(a, p - 1 - k, p)) % p for a in range(p))
                 for k in range(p))


@lru_cache(maxsize=None)
def _scale_table(p: int, m: int) -> bytes:
    """The byte map v -> (m * v) mod p for every byte v.

    With m = 1 this is the mod-p reduction of a lane.
    """
    return bytes((m * v) % p for v in range(256))


def _pack(table: Sequence[int], p: int) -> Sequence[int]:
    """A table's packed form, chosen by p alone.

    For p < 128 the canonical entries are packed into ``bytes``, one entry
    per byte; for p >= 128 two reduced entries can sum past 255, so the
    table is a tuple of ints.
    """
    return bytes(table) if p < 128 else tuple(table)


def _checked(table: Sequence[int], p: int) -> Sequence[int]:
    """``_pack`` of a table once every entry is checked to lie in [0, p):
    ``bytes`` in one pass (no byte is left once those below p are deleted),
    else one by one with ``PrimeField.check``, which refuses bools and floats."""
    bad = (table.translate(None, bytes(range(min(p, 256)))) if type(table) is bytes
           else (v for v in table if not (type(v) is int and 0 <= v < p)))
    for v in bad:
        PrimeField(p).check(v)
    return _pack(table, p)


def _store(table: Sequence[int], p: int):
    """A canonical table in a polynomial's stored form, chosen by p alone:
    at p = 2 and p = 3 the tuple of its p - 1 value planes (``_to_bits``),
    plane v - 1 the bits of the entries equal to v; else the packed form.

    Every entry must already lie in [0, p) (``_checked`` makes sure at the
    API edges): ``_to_bits`` reads any other byte as 0.
    """
    packed = _pack(table, p)
    if p < 4:
        return tuple(_to_bits(packed, v) for v in range(1, p))
    return packed


def _unstore(stored, p: int, size: int) -> Sequence[int]:
    """A stored table of ``size`` entries in packed form, inverting
    ``_store``: value planes are decoded to ``bytes``, the first as it is
    and each later plane v - 1 added in as v times its bits; for every
    other p the stored table is already packed."""
    if p < 4:
        table = _from_bits(stored[0], size)
        for v, plane in enumerate(stored[1:], 2):
            table = (int.from_bytes(table, "little")
                     + v * int.from_bytes(_from_bits(plane, size), "little")
                     ).to_bytes(size, "little")
        return table
    return stored


def _stored_entry(stored, p: int, i: int) -> int:
    """Entry i of a stored table, read in place."""
    if p < 4:
        return sum(v for v, plane in enumerate(stored, 1) if (plane >> i) & 1)
    return stored[i]


def _scratch(size: int, p: int):
    """A zero table to fill entry by entry, then ``_pack``: a ``bytearray``
    for p < 128, else a list."""
    return bytearray(size) if p < 128 else [0] * size


def _combine(p: int, weights: Sequence[int], cols):
    """The column sum_e weights[e] * cols[e] mod p of stored columns of one
    length, in stored form; the branch is picked from p.

    Weights are any ints; they are reduced here and zero ones are skipped.
    At p = 2 and p = 3 the value planes are kept where the weight is 1 and
    reversed where it is 2, which at p = 3 swaps them, since 2 * 1 = 2 and
    2 * 2 = 1.  Only the add step depends on p: at p = 2 the one planes
    are xored; at p = 3, with a = (a1, a2) and b = (b1, b2),
    t = (a1 | b2) ^ (a2 | b1) and a + b = ((a2 | b2) ^ t, (a1 | b1) ^ t).
    Two columns weighted 1 and nonzero (a circuit's add and sub gates) take
    that add step at once, without the weight loop.
    For 3 < p < 128 the ``bytes`` columns go to ``_lane_sums`` as one
    weight row; from p = 128 tuples are combined with comprehensions.
    """
    if p < 4:
        if len(cols) == 2 and weights[0] % p == 1 and weights[1] % p:
            if p == 2:
                return (cols[0][0] ^ cols[1][0],)
            (a1, a2), (b1, b2) = cols[0], (cols[1] if weights[1] % 3 == 1 else cols[1][::-1])
            t = (a1 | b2) ^ (a2 | b1)
            return (a2 | b2) ^ t, (a1 | b1) ^ t
        acc = None
        for m, col in zip(weights, cols):
            m %= p
            if not m:
                continue
            if m == 2:
                col = col[::-1]
            if acc is None:
                acc = col  # no copy of the first column
            elif p == 2:
                acc = (acc[0] ^ col[0],)
            else:
                (a1, a2), (b1, b2) = acc, col
                t = (a1 | b2) ^ (a2 | b1)
                acc = (a2 | b2) ^ t, (a1 | b1) ^ t
        return (0,) * (p - 1) if acc is None else acc
    if p < 128:
        return _lane_sums(p, (weights,), cols)[0]
    acc = None
    for m, col in zip(weights, cols):
        m %= p
        if m:
            acc = ([m * c for c in col] if acc is None
                   else [a + m * c for a, c in zip(acc, col)])
    return (0,) * len(cols[0]) if acc is None else tuple([a % p for a in acc])


def _lane_sums(p: int, rows, cols: Sequence[bytes]) -> list[bytes]:
    """The column sum_e row[e] * cols[e] mod p as ``bytes`` for each weight
    row: the one kernel that scales and sums byte columns, exact for any
    p < 128; the library calls it for 3 < p < 128.

    The columns hold canonical residues and share one length.  Each is read
    as a little-endian int, one byte lane per entry, once, when a row first
    needs it, and the int is kept for later rows.  A single column is the
    column itself or one ``bytes.translate`` of it per row.  Weights are any
    ints, reduced here, and zero ones are skipped.  A weight m multiplies
    its column as an int when (m + 1) * (p - 1) <= 255, so the term's
    lanes, at most m * (p - 1), fit beside a reduced lane; else (only at
    p >= 17) the column is scaled by ``_scale_table(p, m)`` first.  The
    largest value a lane of the sum can hold is tracked; the sum is reduced
    with the mod-p table before any lane could pass 255, and once at the
    end unless it is reduced already.

    Near the table cap memory counts: ints are kept only when there is a
    later row, the last term is dropped before the sum is packed, and with
    several rows below p = 17, where no weight is table-scaled, the kernel
    lets go of each column's bytes once it has read them, so columns held
    nowhere else (as in ``_round``) are freed as they are read.  ``rows`` is
    a sequence.
    """
    width = len(cols[0])
    if len(cols) == 1:
        col = cols[0]
        return [col if row[0] % p == 1 else col.translate(_scale_table(p, row[0] % p))
                for row in rows]
    direct = 255 // (p - 1) - 1  # the largest weight that multiplies directly
    keep, ints = len(rows) > 1, [None] * len(cols)
    release = keep and direct >= p - 1
    if release:
        cols = list(cols)
    sums = []
    for row in rows:
        acc = top = 0  # top: the largest value a lane of acc can hold
        for e, m in enumerate(row):
            m %= p
            if not m:
                continue
            if m <= direct:
                term = ints[e]
                if term is None:
                    term = int.from_bytes(cols[e], "little")
                    if keep:
                        ints[e] = term
                        if release:
                            cols[e] = None
                if m > 1:
                    term *= m
                most = m * (p - 1)
            else:
                term = int.from_bytes(cols[e].translate(_scale_table(p, m)), "little")
                most = p - 1
            if top + most > 255:
                acc = int.from_bytes(acc.to_bytes(width, "little")
                                     .translate(_scale_table(p, 1)), "little")
                top = p - 1
            acc = acc + term if top else term
            top += most
        term = None
        table = acc.to_bytes(width, "little")
        sums.append(table if top < p else table.translate(_scale_table(p, 1)))
    return sums


@lru_cache(maxsize=None)
def _product_table(p: int) -> bytes:
    """The byte map a*p + b -> a*b mod p for residues a, b, for 3 < p < 16,
    where the pair code a*p + b is at most p^2 - 1 and fits in a byte.
    Codes past p^2 - 1 never occur and map to 0."""
    return bytes([a * b % p for a in range(p) for b in range(p)] + [0] * (256 - p * p))


def _product(p: int, a, b):
    """The entrywise product a * b mod p of two stored tables of one size,
    in stored form.

    At p = 2 the one value planes are anded.  At p = 3 1 * 1 = 2 * 2 = 1
    and 1 * 2 = 2, six bitwise operations on the planes.  For 3 < p < 16 the ``bytes`` are
    read as little-endian ints and each lane of A*p + B holds the pair code
    a*p + b <= p^2 - 1 < 256, so no lane carries into the next, and one
    ``bytes.translate`` (``_product_table``) maps the codes to products.
    Larger p take one comprehension, packed (``_pack``).
    """
    if p == 2:
        return (a[0] & b[0],)
    if p == 3:
        (a1, a2), (b1, b2) = a, b
        return (a1 & b1) | (a2 & b2), (a1 & b2) | (a2 & b1)
    if p < 16:
        code = int.from_bytes(a, "little") * p + int.from_bytes(b, "little")
        return code.to_bytes(len(a), "little").translate(_product_table(p))
    return _pack([x * y % p for x, y in zip(a, b)], p)


def _join(parts: list, width: int, count: int, p: int):
    """``count`` tables of ``width`` entries side by side in stored form:
    ``parts`` (at least one) in order, then zero tables.

    Each value plane joins by shift-or, bytes by concatenation and tuples
    into one tuple.
    """
    if p < 4:
        planes, shift = list(parts[0]), width
        for part in parts[1:]:
            for v, plane in enumerate(part):
                planes[v] |= plane << shift
            shift += width
        return tuple(planes)
    parts.append(_scratch(width * (count - len(parts)), p))
    return b"".join(parts) if p < 128 else tuple(chain.from_iterable(parts))


def _round(data: Sequence[int], p: int, rows) -> Sequence[int]:
    """One slice-rotation round: map axis 0 of a packed table, move it to
    the top; the result is packed too.  For p > 3 that is the stored form.

    ``rows[new][old]`` is the fiber matrix for axis 0.  The p columns
    ``data[e::p]`` (the sub-tables with x0 = e) are combined row by row and
    concatenated: below p = 128 by one ``_lane_sums`` of all rows on the
    bytes, which reads each column as an int once; from p = 128 as one dot
    product of the reduced row with each fiber (the k-th entries of the
    columns), into a tuple.
    """
    if p < 128:
        # Only the kernel holds the columns, so each is freed once read.
        return b"".join(_lane_sums(p, rows, [data[e::p] for e in range(p)]))
    fibers = list(zip(*(data[e::p] for e in range(p))))
    out: list[int] = []
    for row in rows:
        row = [m % p for m in row]
        out += [sum(map(mul, row, fiber)) % p for fiber in fibers]
    return tuple(out)


#: Byte maps from the entries of a table to the ASCII digits of the bit
#: plane of value v (v -> "1", every other byte -> "0"), for v = 1 and 2;
#: and from the ASCII digits back to the entries 0 and 1.
_ASCII = {v: bytes(48 + (b == v) for b in range(256)) for v in (1, 2)}
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _to_bits(table: bytes, v: int) -> int:
    """The entries of a ``bytes`` table equal to v as one int, entry i as
    bit i: value plane v - 1 of a p = 2 or p = 3 table.

    Parsing in base 2 is linear and exempt from the int/str digit limit.
    """
    return int(table.translate(_ASCII[v])[::-1], 2)


def _from_bits(w: int, size: int) -> bytes:
    """Bits 0 to size - 1 of ``w`` as a p = 2 table of ``bytes``."""
    return format(w, "b").zfill(size)[::-1].encode().translate(_BITS)


def _axis_masks(n: int, p: int = 2):
    """For i = n-1 down to 0, the mask m_i of the bits j < p^n (p = 2 or 3)
    whose index j has digit i equal to 0: runs of p^i ones, period p^(i+1).

    The first is the low 1/p of the table, and each next one is made from
    the last, with t = p^(i-1).  At p = 2 the runs halve,
    m_(i-1) = m_i ^ (m_i << t).  At p = 3, y = m_i & (m_i >> 2t) keeps the
    first t bits of every run, and m_(i-1) = y | y << 3t | y << 6t.
    O(n * p^n) bit operations in all.
    """
    if n:
        mask = (1 << p ** (n - 1)) - 1
        yield mask
        for i in range(n - 1, 0, -1):
            t = p ** (i - 1)
            if p == 2:
                mask ^= mask << t
            else:
                mask &= mask >> 2 * t
                mask |= (mask << 3 * t) | (mask << 6 * t)
            yield mask


def _bit_blocks(table, p: int, stride: int, mask: int) -> list:
    """The p columns (plane >> e * stride) & mask, e < p, of each value
    plane of a p = 2 or p = 3 table.

    With m_i of ``_axis_masks`` and stride p^i, column e is the sub-table
    with digit i equal to e, still in place; with mask 2^stride - 1 and a
    table of p * stride entries, the blocks of the top axis.
    """
    return [tuple((plane >> k) & mask for plane in table)
            for k in range(0, p * stride, stride)]


def _digit_plane(p: int, size: int, stride: int) -> Sequence[int]:
    """Digit ``log_p(stride)`` of every index below ``size``: a run of each
    digit, ``stride`` long, repeated.  ``bytes`` when p <= 256, else an
    ``array('H')``, as a digit then does not fit a byte.
    """
    if p <= 256:
        run = b"".join(bytes((d,)) * stride for d in range(p))
    else:
        from array import array  # only here: the import costs set-up time

        run = array("H", [d for d in range(p) for _ in range(stride)])
    return run * (size // (stride * p))


def _ones(p: int, size: int):
    """The stored table of ``size`` entries equal to 1, built directly:
    every bit of the first value plane at p = 2 and p = 3."""
    if p < 4:
        return ((1 << size) - 1,) + (0,) * (p - 2)
    return _pack(b"\x01" * size, p)


def _input_values(p: int, n: int, wanted):
    """``(i, table)`` for each i < n in ``wanted``: the stored table of x_i
    at every point of F_p^n, digit i of each index.

    At p = 2 and p = 3 plane v - 1 holds the indices whose digit i is v,
    m_i << v * p^i with m_i from one sweep of ``_axis_masks``; for larger p
    it is the packed ``_digit_plane``.
    """
    if p < 4:
        for i, mask in zip(range(n - 1, -1, -1), _axis_masks(n, p)):
            if i in wanted:
                yield i, tuple(mask << v * p ** i for v in range(1, p))
        return
    for i in wanted:
        yield i, _pack(_digit_plane(p, p ** n, p ** i), p)


def apply_axis_transform(table, p: int, n: int, matrix):
    """A p x p matrix applied along every axis of a flat mixed-radix table.

    ``table`` is a table of p^n entries in stored form (``_store``), left
    as it is, and so is the result; ``matrix[new][old]`` gives the linear
    map used on each length-p fiber, with any ints as entries.

    At p = 2 and p = 3 the axes are walked from the top, in
    ``_axis_masks``' order; they commute.  At p = 2, axis i (stride
    s = 2^i) is one shift-and-xor step on the one plane w.  With the matrix
    [[a, b], [c, d]] reduced mod 2 and m the bits whose index has bit i
    clear, lo = w & m and hi = (w >> s) & m are the two halves of every
    fiber, and the new plane is (a*lo ^ b*hi) | (c*lo ^ d*hi) << s.  With
    ``vandermonde_rows(2)`` this is the binary Möbius transform.  At p = 3,
    axis i (stride s = 3^i) pulls the three sub-tables with digit i equal
    to 0, 1 and 2 out of the planes with three masked shifts
    (``_bit_blocks``), combines them once per matrix row (``_combine``) and
    shifts the results back into place (``_join``).  Cost O(n * p^n) bit
    operations.

    Every other p runs n rounds of ``_round`` on the stored form, which
    is the packed form there, so the table goes in without a copy.  Each
    round transforms axis 0 and moves it to the most significant place, so
    after n rounds every axis is transformed and the original order is
    back.  On bytes a round reads each of its p columns as an int once and
    scales it by int multiplication within the lane bound
    (``_lane_sums``).  Cost O(n * p^(n+1)).
    """
    if p < 4:
        if p == 2:
            (a, b), (c, d) = matrix
            a, b, c, d = a % 2, b % 2, c % 2, d % 2
        for i, mask in zip(range(n - 1, -1, -1), _axis_masks(n, p)):
            s = p ** i
            if p == 2:
                lo, hi = table[0] & mask, (table[0] >> s) & mask
                # x and y is 0 * y or 1 * y here, without copying y.
                table = (((a and lo) ^ (b and hi)) | (((c and lo) ^ (d and hi)) << s),)
            else:
                cols = _bit_blocks(table, p, s, mask)
                table = _join([_combine(p, row, cols) for row in matrix], s, p, p)
        return table
    for _axis in range(n):
        table = _round(table, p, matrix)
    return table


def _load_json(text: str, record: str):
    """``json.loads`` of a record, refusing text that is not JSON or nests past
    the parser's recursion limit as a ``ValueError``, like any malformed record."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"malformed {record} record: nesting too deep") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed {record} record: {exc}") from None


def bounded_power(p: int, n: int, bound: int) -> int | None:
    """p**n if it is at most ``bound``, else None.

    Multiplies up one factor at a time and stops as soon as the product
    passes ``bound``, so a huge n costs no more than a small one.
    """
    size = 1
    for _ in range(n):
        size *= p
        if size > bound:
            return None
    return size if size <= bound else None


def _train(ring: PolyRing, cores: list, end: int) -> Polynomial:
    """``ring.train`` of one square core per variable, started in state 0 and
    ended in state ``end``: the first core keeps only the rows out of state
    0 and the last only the rows into ``end``."""
    cores = list(cores)
    cores[0] = cores[0][:1]
    cores[-1] = [[steps[end]] for steps in cores[-1]]
    return ring.train(cores)


class PolyRing:
    """The ring F_p[x0, ..., x_{n-1}] / (x_i^p - x_i) for a fixed (p, n)."""

    __slots__ = ("field", "p", "n", "size", "strides", "_planes")

    def __init__(self, p: int, n: int,
                 max_table_size: int | None = DEFAULT_MAX_TABLE_SIZE):
        self.field = PrimeField(p)
        self.p = p
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"variable count must be a positive int, got {n!r}")
        if max_table_size is None:
            size = self.p**n
        else:
            size = bounded_power(self.p, n, max_table_size)
            if size is None:
                raise SizeGuardError(
                    f"table size p^n = {self.p}^{n} exceeds the cap of "
                    f"{max_table_size} entries")
        self.n = n
        self.size = size
        self.strides = tuple(self.p**i for i in range(n))
        self._planes: tuple[Sequence[int], ...] | None = None

    def __repr__(self) -> str:
        return f"PolyRing(p={self.p}, n={self.n})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolyRing) and other.p == self.p and other.n == self.n

    def __hash__(self) -> int:
        return hash(("PolyRing", self.p, self.n))

    def digit_planes(self) -> tuple[Sequence[int], ...]:
        """Plane i holds digit i (the exponent of x_i) of every table index.

        Built once on first use by ``_digit_plane``, n * p^n entries in all.
        """
        if self._planes is None:
            self._planes = tuple(_digit_plane(self.p, self.size, s) for s in self.strides)
        return self._planes

    def index_of(self, exps: Sequence[int]) -> int:
        if len(exps) != self.n:
            raise ValueError(f"expected {self.n} exponents, got {len(exps)}")
        idx = 0
        for e, w in zip(exps, self.strides):
            if not 0 <= e < self.p:
                raise ValueError(f"exponent {e} out of range [0, {self.p})")
            idx += e * w
        return idx

    # -- constructors ------------------------------------------------------

    def _sparse(self, entries: Iterable[tuple[int, int]]) -> "Polynomial":
        """The polynomial with coefficient c mod p at index i for each
        (i, c) in ``entries`` and 0 elsewhere: the few terms, at most p at
        distinct indices, of a constant, a variable, a monomial or a
        univariate row.

        At p = 2 and p = 3 each nonzero term sets bit i of value plane
        c - 1; otherwise the terms are set in a ``_scratch`` table.
        """
        p = self.p
        if p < 4:
            planes = [0] * (p - 1)
            for i, c in entries:
                c %= p
                if c:
                    planes[c - 1] |= 1 << i
            return _polynomial(self, tuple(planes))
        table = _scratch(self.size, p)
        for i, c in entries:
            table[i] = c % p
        return _polynomial(self, _pack(table, p))

    def zero(self) -> "Polynomial":
        return self._sparse(())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        return self._sparse([(0, c)])

    def variable(self, i: int) -> "Polynomial":
        if not 0 <= i < self.n:
            raise ValueError(f"variable index {i} out of range [0, {self.n})")
        return self._sparse([(self.strides[i], 1)])

    def monomial(self, exps: Sequence[int], coeff: int = 1) -> "Polynomial":
        return self._sparse([(self.index_of(exps), coeff)])

    def univariate(self, i: int, coeffs: Sequence[int]) -> "Polynomial":
        """The polynomial sum_e coeffs[e] * x_i^e (len(coeffs) <= p)."""
        if not 0 <= i < self.n:
            raise ValueError(f"variable index {i} out of range [0, {self.n})")
        if len(coeffs) > self.p:
            raise ValueError("univariate coefficient row longer than p")
        s = self.strides[i]
        return self._sparse((e * s, c) for e, c in enumerate(coeffs))

    def tensor(self, rows: Sequence[Sequence[int]]) -> "Polynomial":
        """The product prod_i u_i(x_i), where u_i = sum_e rows[i][e] * x_i^e.

        One row of at most p coefficients per variable: the ``train`` whose
        cores each hold one state and that row, so its table is the outer
        product of the rows.
        """
        if len(rows) != self.n:
            raise ValueError(f"expected {self.n} coefficient rows, got {len(rows)}")
        return self.train([((row,),) for row in rows])

    def train(self, cores: Sequence[Sequence[Sequence[Sequence[int]]]]) -> "Polynomial":
        """The tensor train sum over state paths of prod_i u_i(x_i).

        ``cores[i][a][b]`` is the coefficient row of the factor in x_i that
        takes state a to state b, at most p coefficients; an empty row is no
        step.  The first core leaves one start state and the last enters one
        end state, and the polynomial is the sum, over every path of states
        from start to end, of the product of the rows along it.

        It is built axis by axis in the stored form, keeping one table over
        x_0..x_{i-1} per state that some path reaches.  Per state b and
        exponent e, the table over x_0..x_i is one ``_combine`` of the
        tables of the states that step into b, weighted by the e-th
        coefficients of their rows; on bytes one ``_lane_sums`` per state
        gives every exponent's part, those tables read as ints once.
        ``_join`` lays the parts side by side in exponent order.  At p = 2
        and p = 3 the tables are value planes: at p = 2 each part is an xor
        of the states' one planes and the two parts join as lo | hi << 2^i.
        No ring multiplication runs.
        """
        p, n = self.p, self.n
        if len(cores) != n:
            raise ValueError(f"expected {n} cores, got {len(cores)}")
        tables = [_store((1,), p)]  # None: no path reaches the state
        for i, core in enumerate(cores):
            if len(core) != len(tables):
                raise ValueError(
                    f"the first core must leave one start state, got {len(core)}" if i == 0
                    else f"core {i} takes {len(core)} states, core {i - 1} gives {len(tables)}")
            width = len(core[0])
            if not width:
                raise ValueError(f"core {i} must give each state one row per next state")
            if i == n - 1 and width != 1:
                raise ValueError(f"the last core must enter one end state, got {width}")
            nxt = []
            for b in range(width):
                rows, cols = [], []
                for steps, table in zip(core, tables):
                    if len(steps) != width:
                        raise ValueError(f"core {i} must give each state one row per next state")
                    row = steps[b]
                    if len(row) > p:
                        raise ValueError("univariate coefficient row longer than p")
                    if row and table is not None:
                        rows.append(row)
                        cols.append(table)
                if not rows:
                    nxt.append(None)
                    continue
                steps = list(zip_longest(*rows, fillvalue=0))
                parts = (_lane_sums(p, steps, cols) if 3 < p < 128
                         else [_combine(p, weights, cols) for weights in steps])
                nxt.append(_join(parts, self.strides[i], p, p))
            tables = nxt
        return self.zero() if tables[0] is None else _polynomial(self, tables[0])

    def elementary_symmetric(self, i: int) -> "Polynomial":
        """e_i, the sum of all i-fold products of distinct variables (e_0 = 1),
        as the counting train of rank i + 1: state j counts the variables
        picked so far, each variable keeps it by 1 or steps it to j + 1 by
        x, and the paths end at i."""
        if not 0 <= i <= self.n:
            raise ValueError(f"elementary symmetric index {i} out of range [0, {self.n}]")
        core = [[(1,) if b == j else (0, 1) if b == j + 1 else () for b in range(i + 1)]
                for j in range(i + 1)]
        return _train(self, [core] * self.n, i)

    def from_coeffs(self, coeffs: Iterable[int]) -> "Polynomial":
        """``Polynomial(self, coeffs)``: checked construction from a full table."""
        return Polynomial(self, coeffs)


class Polynomial:
    """Immutable canonical polynomial: a ring plus its flat coefficient table.

    Supports +, -, * (with plain ints coerced to constants) and ** with
    nonnegative integer exponents.  All results are canonical.  The ring is
    the ring of functions F_p^n -> F_p, so + and - and scaling work on the
    coefficients, while *, ** and ``compose`` work on the functions: on
    ``values()``, pointwise, with the result interpolated back through
    ``lagrange_rows``.

    ``coeffs`` is the table in its packed form (``_pack``): ``bytes`` for
    p < 128, a tuple of ints otherwise; ``to_dict`` gives it as a list.
    The table is kept in its stored form (``_store``).  At p = 2 and p = 3
    that is p - 1 value planes, ints of p^n bits, plane v - 1 holding the
    entries equal to v.  At p = 2 ``+`` and ``-`` are an xor of the one
    planes and ``scale`` is the identity or zero; at p = 3 ``+`` is six
    bitwise operations, and ``-`` and ``scale`` by 2 swap the planes.  At
    both, ``==``, ``hash``, ``bool``, ``repr``, ``eval``, ``*`` and ``**``
    read the bits, and ``coeffs`` is decoded on first use and kept.

    The constructor (also ``PolyRing.from_coeffs``) checks the length, then
    every entry; the library's own results take the unchecked ``_polynomial``.
    """

    __slots__ = ("ring", "_stored", "_coeffs")

    def __init__(self, ring: PolyRing, coeffs: Iterable[int]):
        table = coeffs if type(coeffs) is bytes else list(coeffs)
        if len(table) != ring.size:
            raise ValueError(f"coefficient table length does not match the ring: "
                             f"p^n = {ring.size} entries, got {len(table)}")
        table = _checked(table, ring.p)
        self.ring = ring
        self._stored = _store(table, ring.p)
        self._coeffs = table

    @property
    def coeffs(self) -> Sequence[int]:
        """The coefficient table, packed (``_pack``); at p = 2 and p = 3
        decoded from the bits on first use and kept, as the polynomial never
        changes."""
        if self._coeffs is None:
            self._coeffs = _unstore(self._stored, self.ring.p, self.ring.size)
        return self._coeffs

    # -- plumbing ----------------------------------------------------------

    def _same_ring(self, other: "Polynomial") -> PolyRing:
        if self.ring != other.ring:
            raise RingMismatchError(
                f"operands live in different rings: {self.ring} vs {other.ring}")
        return self.ring

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return self.ring.constant(other)
        return None

    def __repr__(self) -> str:
        table = self._stored
        nnz = (sum(plane.bit_count() for plane in table) if self.ring.p < 4
               else len(table) - table.count(0))
        return f"Polynomial(p={self.ring.p}, n={self.ring.n}, terms={nnz})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._stored == other._stored

    def __hash__(self) -> int:
        return hash((self.ring, self._stored))

    def __bool__(self) -> bool:
        return any(self._stored)

    def support(self) -> list[tuple[tuple[int, ...], int]]:
        """Nonzero terms as (exponent vector, coefficient), index-ordered."""
        return list(self._terms())

    def _terms(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """``support()`` one term at a time, held nowhere: each digit plane
        is filtered down to the nonzero entries, which alone get exponents."""
        coeffs = self.coeffs
        exps = zip(*(compress(plane, coeffs) for plane in self.ring.digit_planes()))
        return zip(exps, filter(None, coeffs))

    # -- ring operations ----------------------------------------------------

    def _add(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other for sign in {1, -1}, as one ``_combine``."""
        ring = self._same_ring(other)
        return _polynomial(ring, _combine(ring.p, (1, sign), (self._stored, other._stored)))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._add(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: int) -> "Polynomial":
        c = c % self.ring.p
        if c == 1:
            return self
        if c == 0:
            return self.ring.zero()
        return _polynomial(self.ring, _combine(self.ring.p, (c,), (self._stored,)))

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        ring = self._same_ring(other)
        return _from_values(ring, _product(ring.p, self._values(), other._values()))

    def __rmul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, e: int) -> "Polynomial":
        """The e-th power of every value, interpolated (0^0 = 1).

        At p = 2 and p = 3 every value v has v^p = v, so f ** 0 is 1 and
        f ** e is f for odd e, with no transform; at p = 3 an even e >= 2
        gives v^2, 1 wherever v is not 0: the union of the value planes.
        """
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial exponent must be a nonnegative int")
        p = self.ring.p
        if p < 4:
            if not e:
                return self.ring.one()
            if p == 2 or e % 2:
                return self
            ones, twos = self._values()
            return _from_values(self.ring, (ones | twos, 0))
        powers = [pow(v, e, p) for v in range(p)]
        return _from_values(self.ring, _pack([powers[v] for v in self._values()], p))

    # -- evaluation ---------------------------------------------------------

    def eval(self, point: Sequence[int]) -> int:
        """Value at one point, read from the stored table.

        For each variable x_i from the last, the p blocks along it (masked
        shifts of the value planes at p = 2 and p = 3, ``_bit_blocks``)
        are summed by ``_combine``, weighted by x_i^0, ..., x_i^(p-1),
        leaving a table without x_i.
        """
        ring = self.ring
        p = ring.p
        if len(point) != ring.n:
            raise ValueError(f"expected a point of arity {ring.n}, got {len(point)}")
        for v in point:
            ring.field.check(v)
        table = self._stored
        for i in range(ring.n - 1, -1, -1):
            s, x = ring.strides[i], point[i]
            blocks = (_bit_blocks(table, p, s, (1 << s) - 1) if p < 4
                      else [table[e * s:(e + 1) * s] for e in range(p)])
            table = _combine(p, [pow(x, e, p) for e in range(p)], blocks)
        return _stored_entry(table, p, 0)

    def values(self) -> Sequence[int]:
        """Values at every point of F_p^n in mixed-radix order, packed like ``coeffs``.

        Computed by applying the univariate evaluation matrix along each
        axis with ``apply_axis_transform`` (masked shifts of the value
        planes for p = 2 and p = 3, slice rotation otherwise);
        O(n * p^(n+1)) instead of p^n separate Horner passes.
        """
        return _unstore(self._values(), self.ring.p, self.ring.size)

    def _values(self):
        """``values()`` in the stored form: the value planes of the values
        at p = 2 and p = 3."""
        return apply_axis_transform(self._stored, self.ring.p, self.ring.n,
                                    vandermonde_rows(self.ring.p))

    def compose(self, subs: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute subs[i] for x_i; result lives in the ring of the subs.

        All substituents must share one ring with the same modulus p.  At
        each point of that ring the substituents' values give the index
        sum_i subs[i](point) * p^i of a point of this ring, and the result
        takes this polynomial's value there: one gather from ``values()``,
        interpolated back.  The result is canonical, hence equal to the
        unique minimal-degree polynomial of the composed function.
        """
        ring = self.ring
        if len(subs) != ring.n:
            raise ValueError(f"expected {ring.n} substituents, got {len(subs)}")
        target = subs[0].ring
        for s in subs:
            if s.ring != target:
                raise RingMismatchError("substituents live in different rings")
        if target.p != ring.p:
            raise RingMismatchError(
                f"cannot substitute mod-{target.p} polynomials into a mod-{ring.p} one")
        index = [0] * target.size
        for sub, stride in zip(subs, ring.strides):
            index = [i + v * stride for i, v in zip(index, sub.values())]
        values = self.values()
        return _from_values(target, _store([values[i] for i in index], ring.p))

    # -- inspection ---------------------------------------------------------

    def max_degree_per_variable(self) -> tuple[int, ...]:
        """Largest exponent of each variable over nonzero terms (0 for the
        zero polynomial, by convention)."""
        coeffs = self.coeffs
        return tuple(max(compress(plane, coeffs), default=0)
                     for plane in self.ring.digit_planes())

    def total_degree(self) -> int:
        return max((sum(exps) for exps, _ in self._terms()), default=0)

    def is_minimal_form(self) -> bool:
        """True iff every per-variable degree is at most p-1."""
        return all(d <= self.ring.p - 1 for d in self.max_degree_per_variable())

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {"p": self.ring.p, "n": self.ring.n, "coeffs": list(self.coeffs)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_dict(data: dict,
                  max_table_size: int | None = DEFAULT_MAX_TABLE_SIZE) -> "Polynomial":
        try:
            p, n, coeffs = data["p"], data["n"], data["coeffs"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed polynomial record: {exc}") from exc
        try:
            ring = PolyRing(p, n, max_table_size=max_table_size)
            return ring.from_coeffs(coeffs)
        except TypeError as exc:
            raise ValueError(f"malformed polynomial record: {exc}") from exc

    @staticmethod
    def from_json(text: str,
                  max_table_size: int | None = DEFAULT_MAX_TABLE_SIZE) -> "Polynomial":
        return Polynomial.from_dict(_load_json(text, "polynomial"),
                                    max_table_size=max_table_size)


def _polynomial(ring: PolyRing, table) -> Polynomial:
    """The polynomial of ``ring`` with a table already in stored form
    (``_store``), unchecked and unconverted: the path of every result the
    library builds."""
    f = object.__new__(Polynomial)
    f.ring, f._stored = ring, table
    f._coeffs = None if ring.p < 4 else table
    return f


def _transformed(f: Polynomial, matrix) -> Polynomial:
    """The polynomial whose coefficient table is f's with ``matrix`` applied
    along every axis (``apply_axis_transform`` on the stored table)."""
    ring = f.ring
    return _polynomial(ring, apply_axis_transform(f._stored, ring.p, ring.n, matrix))


def _from_values(ring: PolyRing, values) -> Polynomial:
    """The polynomial of ``ring`` with the given values, in stored form, at
    every point."""
    return _polynomial(ring, apply_axis_transform(values, ring.p, ring.n, lagrange_rows(ring.p)))


def first_mismatch(a, b, p: int) -> int | None:
    """Index of the first disagreement between two stored value tables of
    one ring over F_p, else None.

    Two tuples of p - 1 value planes (p = 2 and p = 3) differ first at the
    lowest set bit of the or of their planes' xors, and two ``bytes``
    tables (3 < p < 128) at that of their xor as little-endian ints,
    divided by 8.  Equal tables, the common case, are settled by one
    ``==``; tuples (p >= 128) that differ are scanned index by index.
    """
    if p < 4:
        diff = 0
        for x, y in zip(a, b):
            diff |= x ^ y
        return (diff & -diff).bit_length() - 1 if diff else None
    if len(a) != len(b):
        raise ValueError("cannot compare value tables of different sizes")
    if a == b:
        return None
    if p < 128:
        diff = int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
        return ((diff & -diff).bit_length() - 1) // 8
    for i in range(len(a)):
        if a[i] != b[i]:
            return i
    return None


def format_terms(f: Polynomial) -> str:
    """Human-readable monomial listing in graded lexicographic order.

    Ordering is by total degree, then lexicographically with x0 weighted
    heaviest (so x0 prints before x1 within a degree); stable across runs
    and diffable.
    """
    parts = []
    for exps, c in sorted(f.support(),
                          key=lambda t: (sum(t[0]), [-e for e in t[0]])):
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"x{i}")
            elif e > 1:
                factors.append(f"x{i}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts) if parts else "0"
