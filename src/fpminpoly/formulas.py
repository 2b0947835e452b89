"""Closed-form minimal polynomial expressions, built symbolically.

Each constructor here assembles a known concise expression for one of the
comparison-style functions (max, min, argmax digits, ismax, nummax, digit
carry) as sums and products in :class:`~fpminpoly.polyring.PolyRing`.  The
quotient ring keeps everything canonical, so a constructor's output is the
unique minimal-degree polynomial of its function exactly when it agrees
with :func:`fpminpoly.oracle.interpolate` of the semantic truth table,
coefficient for coefficient.  ``verify_formula`` runs that check.

A constructor's ring comes from its caller: it takes the ring it builds in
as its first argument (plus the digit index r where it has one) and reads
p and the variable count from it.  ``build_formula`` is where a catalog
formula's ring is made, with ``FunctionSpec.arity`` variables under the
table-size cap; the forms written for one p or one arity refuse any other
ring with :class:`FormulaParamError`.

The forms for any p share their building blocks: the coefficient rows of
the delta, lowpass and factorial pieces.  A product of one factor per
input, such as the all-below products B_t = prod_i L_t(x_i) of ``ismax``,
is one ``PolyRing.tensor`` of such rows; ``max`` sums its B_t as one
``PolyRing.train`` with one state per threshold t.  The ``argmax`` and
``nummax`` digits are left-to-right counting automata, so each level is one
``PolyRing.train`` of those rows: rank 2 for the first input at the
maximum, rank p^r + 1 for counting the inputs at it, read through Lucas's
theorem.  The two-input forms are one train on two axes with one state per
split point.  Only ``max5`` and ``argmax3n3``, each printed for one small
ring as a product, still multiply in their ring.  Nothing is hand-expanded:
even forms printed as long monomial lists are reproduced by machine from
their factored shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Callable, Sequence

from .oracle import FunctionSpec, interpolate, point_at, tabulate
from .polyring import (DEFAULT_MAX_TABLE_SIZE, Polynomial, PolyRing,
                       RingMismatchError, _stored_entry, _transformed, bounded_power,
                       first_mismatch, lagrange_rows)


class FormulaParamError(ValueError):
    """A formula was requested with parameters outside its constraints."""


def _require_ring(ring: PolyRing, form: str, *, p: int | None = None,
                  n: int | None = None, paired: bool = False) -> None:
    """Refuse a ring other than the one a fixed form is written for: modulus
    ``p``, ``n`` variables, or an even variable count when ``paired``."""
    if ((p is not None and ring.p != p) or (n is not None and ring.n != n)
            or (paired and ring.n % 2)):
        need = [f"{name} = {v}" for name, v in (("p", p), ("n", n)) if v is not None]
        if paired:
            need.append("an even n")
        raise FormulaParamError(f"{form} needs a ring with {' and '.join(need)}, got {ring}")


# -- univariate building blocks ----------------------------------------------

def delta(p: int, t: int) -> Polynomial:
    """Indicator of x = t as the univariate 1 - (x - t)^(p-1)."""
    ring = PolyRing(p, 1, max_table_size=None)
    ring.field.check(t)
    return ring.univariate(0, _piece_rows(p)[0][t])


def lowpass(p: int, t: int) -> Polynomial:
    """Indicator of x < t (integer ordering); t may run from 0 to p.

    The empty sum gives the zero polynomial for t = 0, and t = p yields the
    constant 1 since every residue is below p.
    """
    if not 0 <= t <= p:
        raise ValueError(f"lowpass threshold must lie in [0, {p}], got {t}")
    return PolyRing(p, 1, max_table_size=None).univariate(0, _piece_rows(p)[1][t])


@lru_cache(maxsize=None)
def _piece_rows(p: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Coefficient rows of delta(p, t) for t < p and lowpass(p, t) for t <= p.

    The delta rows are the columns of ``lagrange_rows``.  The lowpass rows
    are the running sums of the delta rows mod p: L_t is the sum of delta_k
    for k < t.  O(p^2) entries, with no polynomial arithmetic.
    """
    deltas = tuple(zip(*lagrange_rows(p)))
    lows = [(0,) * p]
    for row in deltas:
        lows.append(tuple((a + b) % p for a, b in zip(lows[-1], row)))
    return deltas, tuple(lows)


def _train(ring: PolyRing, cores: list, end: int) -> Polynomial:
    """``ring.train`` of one square core per variable, started in state 0 and
    ended in state ``end``: the first core keeps only the rows out of state
    0 and the last only the rows into ``end``."""
    cores = list(cores)
    cores[0] = cores[0][:1]
    cores[-1] = [[steps[end]] for steps in cores[-1]]
    return ring.train(cores)


def _row(p: int, factor: Callable[[Polynomial], Polynomial]) -> tuple[int, ...]:
    """The coefficient row of factor(x), built in the one-variable ring."""
    return tuple(factor(PolyRing(p, 1, max_table_size=None).variable(0)).coeffs)


@lru_cache(maxsize=None)
def _f3_rows() -> tuple[tuple[int, ...], ...]:
    """Rows over F_3 of (1 + x)^2, 1 - x^2, x - x^2 and x^2, the indicators
    of x < 2, x = 0, x = 2 and x != 0: the factors of the F_3 forms."""
    return tuple(_row(3, factor) for factor in (lambda x: (1 + x) ** 2, lambda x: 1 - x**2,
                                                 lambda x: x - x**2, lambda x: x**2))


@lru_cache(maxsize=None)
def _factorial_rows(p: int, rising: bool) -> tuple[tuple[int, ...], ...]:
    """Rows of the falling factorials x (x - 1) ... (x - m + 1), or of the
    rising ones (x + 1) (x + 2) ... (x + m) when ``rising``, for m = 0..p-1.

    Row m is row m - 1 times (x + c): shifted up one place, plus c times
    itself.  Degree m - 1 < p - 1, so the shift drops only a zero.
    """
    rows = [(1,) + (0,) * (p - 1)]
    for m in range(1, p):
        c, row = (m if rising else 1 - m), rows[-1]
        rows.append(tuple((prev + c * cur) % p for prev, cur in zip((0,) + row[:-1], row)))
    return tuple(rows)


# -- max and min ---------------------------------------------------------------

def max_general(ring: PolyRing) -> Polynomial:
    """max of the ring's inputs for any prime p: sum over thresholds t >= 1
    of the indicator that some input reaches t.

    That is (p - 1) - sum_t prod_i L_t(x_i), the all-below products summed
    as one ``train`` of rank p - 1: the first core steps to state t by L_t,
    each later core keeps state t by L_t, and the last one ends it there.
    With one input the sum is the single row sum_t L_t.
    """
    p, n = ring.p, ring.n
    lows = _piece_rows(p)[1][1:p]
    if n == 1:
        return (p - 1) - ring.univariate(0, [sum(col) for col in zip(*lows)])
    keep = [[low if a == b else () for b in range(p - 1)] for a, low in enumerate(lows)]
    return (p - 1) - ring.train([[lows]] + [keep] * (n - 2) + [[[low] for low in lows]])


def max_p2(ring: PolyRing) -> Polynomial:
    """max over F_2: the product of (1 + x_i) minus 1 (an OR gate)."""
    _require_ring(ring, "max_p2", p=2)
    return ring.tensor([_row(2, lambda x: 1 + x)] * ring.n) - 1


def min_p2(ring: PolyRing) -> Polynomial:
    """min over F_2: the product of all inputs (an AND gate)."""
    _require_ring(ring, "min_p2", p=2)
    return ring.tensor([_row(2, lambda x: x)] * ring.n)


def max_p3(ring: PolyRing) -> Polynomial:
    """max over F_3 via elementary symmetric polynomials:
    (e_0 + e_2 + e_4 + ...) * (e_0 + ... + e_n) - 1.

    The even sum is (prod (1+x_i) + prod (1-x_i)) / 2 and the full sum is
    prod (1+x_i), so with 1/2 = 2 this is the two tensors
    2 * prod (1+x_i)^2 + 2 * prod (1-x_i^2) - 1."""
    _require_ring(ring, "max_p3", p=3)
    below2, zero, _, _ = _f3_rows()
    return (ring.tensor([below2] * ring.n) + ring.tensor([zero] * ring.n)).scale(2) - 1


def min_p3(ring: PolyRing) -> Polynomial:
    """min over F_3: e_n * (1 + sum_i (-1)^i e_i + e_n).

    The alternating sum is prod (1-x_i) and e_n is prod x_i, so this is
    the two tensors prod (x_i - x_i^2) + prod x_i^2."""
    _require_ring(ring, "min_p3", p=3)
    _, _, two, nonzero = _f3_rows()
    return ring.tensor([two] * ring.n) + ring.tensor([nonzero] * ring.n)


def max_p5_n2(ring: PolyRing) -> Polynomial:
    """max of two inputs over F_5, in elementary symmetric polynomials."""
    _require_ring(ring, "max_p5_n2", p=5, n=2)
    e1 = ring.elementary_symmetric(1)
    e2 = ring.elementary_symmetric(2)
    return (1 + e1 + e2) * (1 + 2 * e1**2 * e2 + 4 * e1 * e2 + e2) - 1


def max_p5_n3(ring: PolyRing) -> Polynomial:
    """max of three inputs over F_5, in elementary symmetric polynomials."""
    _require_ring(ring, "max_p5_n3", p=5, n=3)
    e1 = ring.elementary_symmetric(1)
    e2 = ring.elementary_symmetric(2)
    e3 = ring.elementary_symmetric(3)
    return (1 + e1 + e2 + e3) * (
        1 + 2 * e1**2 * e2 + e1 * e2 * e3 + 2 * e1 * e3**2 + e2**2 * e3
        + 2 * e2 * e3**2 + 4 * e1 * e2 + 3 * e1 * e3 + e2 * e3 + 3 * e3**2 + e2
    ) - 1


# -- argmax digits --------------------------------------------------------------

def argmax_digit_general(ring: PolyRing, r: int) -> Polynomial:
    """Digit r (base p) of the least maximizing index, for any prime p.

    Sums, over candidate max value t and candidate index i, digit_r(i) times
    the indicator that x_i is the first input equal to the maximum t:
    everything before i stays below t and everything after stays below
    t + 1.  Per t that is one rank-2 ``train``: state 0 (no input at t yet)
    stays by L_t, steps to state 1 at x_i by digit_r(i) * delta_t, and state
    1 stays by L_{t+1}.
    """
    if r < 0:
        raise FormulaParamError("digit index must be nonnegative")
    n, p = ring.n, ring.p
    if bounded_power(p, r, n - 1) is None:  # p^r > n - 1: digit r of every index is zero
        return ring.zero()
    digits = [ring.field.digit(i, r) for i in range(n)]
    deltas, lows = _piece_rows(p)
    acc = ring.zero()
    for t in range(p):
        cores = [[[lows[t], [d * c for c in deltas[t]]], [(), lows[t + 1]]] for d in digits]
        acc = acc + _train(ring, cores, 1)
    return acc


def argmax_p2(ring: PolyRing, r: int) -> Polynomial:
    """Digit r of the least maximizing index over F_2.

    A sum of prefix products (1 + x_0)...(1 + x_{m-1}) with m running over
    the multiples of 2^r up to the input length rounded up to an even
    multiple; inputs are implicitly zero-padded to that length, which never
    changes the least maximizing index, and truncated factors of padded
    positions are just 1.  Duplicate full-length terms cancel mod 2.
    """
    _require_ring(ring, "argmax_p2", p=2)
    if r < 0:
        raise FormulaParamError("digit index must be nonnegative")
    n = ring.n
    block = bounded_power(2, r, n - 1)
    if block is None:  # 2^r >= n: digit r of every index is zero
        return ring.zero()
    k = -(-n // (2 * block)) - 1  # pad to length (2k+2)*2^r
    plus = _row(2, lambda x: 1 + x)
    acc = ring.zero()
    for i in range(1, 2 * k + 3):
        m = min(i * block, n)
        acc = acc + ring.tensor([plus] * m + [(1,)] * (n - m))
    return acc


def argmax_p2_selector(ring: PolyRing, r: int) -> Polynomial:
    """Digit r of the least maximizing index over F_2, inputs x_0..x_n.

    Same function as ``argmax_p2`` on the same ring but assembled from an
    explicit index set: term i is the prefix product (1 + x_0)...(1 + x_i).
    The set collects the index right before each half-period boundary of
    2^(r+1), the index right before each full period, and the end of the
    last relevant period clamped to n.  When 2^r exceeds n the digit is
    identically zero and the empty sum is returned.
    """
    _require_ring(ring, "argmax_p2_selector", p=2)
    n = ring.n - 1  # the index of the last input
    if n < 1:
        raise FormulaParamError("selector form needs at least inputs x_0, x_1")
    if r < 0:
        raise FormulaParamError("digit index must be nonnegative")
    block = bounded_power(2, r, n)
    if block is None:
        return ring.zero()
    period = 2 * block
    members = set()
    k = 0
    while k * period < n + 1 - block:
        members.add(period * k + block - 1)
        k += 1
    k = 1
    while k * period < n + 1 - block:
        members.add(period * k - 1)
        k += 1
    members.add(min(n, period * ((n - block) // period + 1) - 1))
    plus = _row(2, lambda x: 1 + x)
    acc = ring.zero()
    for i in sorted(members):
        acc = acc + ring.tensor([plus] * (i + 1) + [(1,)] * (n - i))
    return acc


def argmax_p3_n3(ring: PolyRing) -> Polynomial:
    """The least maximizing index of three inputs over F_3 (digit 0)."""
    _require_ring(ring, "argmax_p3_n3", p=3, n=3)
    x0, x1, x2 = ring.variable(0), ring.variable(1), ring.variable(2)
    inner = (x0 * x1**2 * x2 + x1**2 * x2**2 + x1**2 * x2 + 2 * x1 * x2**2
             + x0 * x1 + 2 * x0 * x2 + 2 * x1**2 + x1 * x2 + x2**2)
    return (2 * inner) * (x0 + 1)


def argmax_block_recurrence(ring: PolyRing, r: int) -> Polynomial:
    """Digit r of argmax as digit 0 of the argmax over blockwise maxima.

    Inputs are split into blocks of size p^r (the tail block may be
    shorter, which is the same as zero-padding: appended zeros never become
    the unique maximum and never precede an existing one).  Digit r of the
    least maximizing index is digit 0 of the least maximizing block.
    The block and head rings are no larger than ``ring``, which already
    passed the size cap, so they are made uncapped.
    """
    if r < 0:
        raise FormulaParamError("digit index must be nonnegative")
    n = ring.n
    width = bounded_power(ring.p, r, n - 1)
    if width is None:  # p^r >= n: digit r of every index is zero
        return ring.zero()
    nblocks = -(-n // width)
    block_maxima = []
    for b in range(nblocks):
        lo = b * width
        hi = min(lo + width, n)
        if hi - lo == 1:
            block_maxima.append(ring.variable(lo))
        else:
            block_max = max_general(PolyRing(ring.field, hi - lo, max_table_size=None))
            block_maxima.append(
                block_max.compose([ring.variable(j) for j in range(lo, hi)]))
    head = argmax_digit_general(PolyRing(ring.field, nblocks, max_table_size=None), 0)
    return head.compose(block_maxima)


def argmax_extend_recursive(ring: PolyRing, r: int, prefix_poly: Polynomial) -> Polynomial:
    """Extend digit r of argmax from the first ring.n - 1 inputs to all of
    ``ring``'s inputs.

    With A the indicator that the new last input x_n strictly beats the
    running maximum, the digit becomes prefix * (1 - A) + digit_r(n) * A.
    """
    p, n = ring.p, ring.n - 1
    if prefix_poly.ring.p != p or prefix_poly.ring.n != n:
        raise RingMismatchError(
            f"prefix polynomial must live in PolyRing(p={p}, n={n}), "
            f"got {prefix_poly.ring}")
    # n >= 1 here, so the two-variable ring is no larger than ``ring``
    argmax0_2var = argmax0_n2(PolyRing(ring.field, 2, max_table_size=None))
    max_prefix = max_general(prefix_poly.ring)
    beats = argmax0_2var.compose([ring.embed(max_prefix), ring.variable(n)])
    new_digit = ring.field.digit(n, r)
    return ring.embed(prefix_poly) * (1 - beats) + beats.scale(new_digit)


# -- two-input forms for any p ---------------------------------------------------

def _split_sum(ring: PolyRing, terms: Sequence[tuple[Sequence[int], Sequence[int]]]
               ) -> Polynomial:
    """Sum of h(x_0) * g(x_1) over the row pairs (h, g) of ``terms``: one
    ``train`` on the two axes with one state per pair."""
    heads, tails = zip(*terms)
    return ring.train([[heads], [(g,) for g in tails]])


def _weighted_splits(p: int, head: Sequence[Sequence[int]], splits: range,
                     weight: Callable[[int], int]) -> list:
    """The pairs (weight(d) * h_d, F_{p-d}) for the split points d, where
    ``head`` holds the rows h_d and F the falling factorials."""
    tail = _factorial_rows(p, False)
    return [([weight(d) * c for c in head[d]], tail[p - d]) for d in splits]


def carry(ring: PolyRing) -> Polynomial:
    """Indicator that two single base-p digits sum to p or more.

    The expression runs over the split point d: the first input covers at
    least d and the second at least p - d, detected by falling factorials
    with inverse weights of alternating sign.
    """
    _require_ring(ring, "carry", n=2)
    field = ring.field
    return _split_sum(ring, _weighted_splits(
        ring.p, _factorial_rows(ring.p, False), range(1, ring.p),
        lambda d: field.neg(field.inverse(d)) if d % 2 else field.inverse(d)))


def argmax0_n2(ring: PolyRing) -> Polynomial:
    """Indicator that the second of two inputs is strictly larger.

    This is the carry of the involuted first input with the second: x0 < x1
    exactly when (p-1-x0) + x1 reaches p.  Written directly with rising
    factorials in x0 and falling factorials in x1.
    """
    _require_ring(ring, "argmax0_n2", n=2)
    return _split_sum(ring, _weighted_splits(ring.p, _factorial_rows(ring.p, True),
                                             range(1, ring.p), ring.field.inverse))


def max_n2(ring: PolyRing) -> Polynomial:
    """max of two inputs for p >= 3, folded from the select-by-argmax form.

    The endpoint terms of the selection sum collapse (via Wilson's theorem)
    into the two indicator corrections that close the expression:
    (x1 - x0) * middle + x0 + (x0+1)^2 * delta_{p-1}(x1) + delta_0(x0) * x1^2,
    where middle sums R_d(x0) F_{p-d}(x1) / d over 2 <= d <= p - 2.  Each
    term is one pair of rows of a single ``_split_sum``: R_d has degree
    d < p - 1 and F_{p-d} degree p - d < p - 1, so the factor x1 - x0 only
    shifts their rows by one place, as x * F_{p-d}(x1) and -x * R_d(x0).
    """
    _require_ring(ring, "max_n2", n=2)
    p = ring.p
    if p == 2:
        raise FormulaParamError("two-input max over F_2 is max_p2; this form needs p >= 3")
    deltas = _piece_rows(p)[0]
    terms = [((0, 1), (1,)), ((1, 2, 1), deltas[p - 1]), (deltas[0], (0, 0, 1))]
    for head, tail in _weighted_splits(p, _factorial_rows(p, True), range(2, p - 1),
                                       ring.field.inverse):
        terms += [(head, (0, *tail[:-1])), ((0, *(-c for c in head[:-1])), tail)]
    return _split_sum(ring, terms)


# -- ismax and nummax -------------------------------------------------------------

def ismax_general(ring: PolyRing) -> Polynomial:
    """Indicator that max(x) equals the extra first input y.

    Variable 0 is y; variables 1.. are the compared inputs.  The maximum is
    t exactly when all inputs are below t + 1 but not all below t, so the
    form is sum_t delta_t(y) * (B_{t+1} - B_t), with B_0 = 0 and B_p = 1.
    Each product delta_t(y) * B_t is one ``tensor``; the L_p row is the
    constant 1, and the t = 0 term subtracts nothing.
    """
    deltas, lows = _piece_rows(ring.p)
    m = ring.n - 1
    acc = ring.zero()
    for t in range(ring.p):
        acc = acc + ring.tensor([deltas[t]] + [lows[t + 1]] * m)
        if t:
            acc = acc - ring.tensor([deltas[t]] + [lows[t]] * m)
    return acc


def nummax_digit_general(ring: PolyRing, r: int) -> Polynomial:
    """Digit r (base p) of the number of maximizing indices, for any prime p.

    With c_t inputs equal to t, e_k(delta_t(x_0), ..., delta_t(x_{n-1})) is
    C(c_t, k), and C(c, p^r) = digit_r(c) mod p by Lucas's theorem.  So the
    digit is sum_t e_{p^r}(delta_t(x)) * prod_i L_{t+1}(x_i): the product
    vanishes below the maximum, C(0, p^r) = 0 above it.  As delta_t * L_{t+1}
    = delta_t, each term is one ``train`` of rank p^r + 1: state j counts
    the inputs so far equal to t, each input steps j -> j by L_{t+1} or
    j -> j + 1 by delta_t, and the paths end at p^r.
    """
    if r < 0:
        raise FormulaParamError("digit index must be nonnegative")
    n, p = ring.n, ring.p
    k = bounded_power(p, r, n)
    if k is None:  # p^r > n: digit r of every count is zero
        return ring.zero()
    deltas, lows = _piece_rows(p)
    acc = ring.zero()
    for t in range(p):
        core = [[lows[t + 1] if b == j else deltas[t] if b == j + 1 else ()
                 for b in range(k + 1)] for j in range(k + 1)]
        acc = acc + _train(ring, [core] * n, k)
    return acc


def ismax_p2(ring: PolyRing) -> Polynomial:
    """ismax over F_2, y first: y + (1 + x_0)...(1 + x_{n-1})."""
    _require_ring(ring, "ismax_p2", p=2)
    return ring.variable(0) + ring.tensor([(1,)] + [_row(2, lambda x: 1 + x)] * (ring.n - 1))


def ismax_p3(ring: PolyRing) -> Polynomial:
    """ismax over F_3, y first:
    -y^2 + y * (prod (1+x_i)^2 + prod (1-x_i^2) + 1) + prod (1-x_i^2),
    written as (y - y^2) + y * prod (1+x_i)^2 + (1 + y) * prod (1-x_i^2)."""
    _require_ring(ring, "ismax_p3", p=3)
    m = ring.n - 1
    below2, zero, _, _ = _f3_rows()
    return (ring.univariate(0, (0, 1, -1))
            + ring.tensor([(0, 1)] + [below2] * m)
            + ring.tensor([(1, 1)] + [zero] * m))


def nummax_p2(ring: PolyRing, r: int) -> Polynomial:
    """Digit r of the number of maximizing indices over F_2.

    e_{2^r} picks up digit r of the popcount when some input is 1; the
    all-zero case is patched by digit_r(n) times the all-zero indicator.
    """
    _require_ring(ring, "nummax_p2", p=2)
    if r < 0:
        raise FormulaParamError("digit index must be nonnegative")
    n = ring.n
    idx = bounded_power(2, r, n)
    if idx is None:  # 2^r > n: digit r of every count is zero
        return ring.zero()
    acc = ring.elementary_symmetric(idx)
    nd = ring.field.digit(n, r)
    if nd:
        acc = acc + ring.tensor([_row(2, lambda x: 1 - x)] * n).scale(nd)
    return acc


def ismax_2bit_p2(ring: PolyRing) -> Polynomial:
    """Two-bit ismax over F_2: does max of n two-bit values equal y?

    The variables come in bit pairs, ordered (y_1, y_0, x_{0,1}, x_{0,0},
    ...): the candidate's high bit, then low bit, then each input's high
    bit before its low bit.

    The form is y1 y0 + y1 * both + (y1 + y0) * high + (y1 + 1) * all_zero,
    where ``both`` is the product over inputs of (1 + x_{i,1} x_{i,0}) (no
    input has both bits set), ``high`` the product of (1 + x_{i,1}) (no high
    bit set) and ``all_zero`` that of (1 + x) over every input bit.  The
    term y1 * both is one rank-2 ``train``: state 1 sits between a high bit
    that is set and its low bit.  The other terms are ``tensor``s.
    """
    _require_ring(ring, "ismax_2bit_p2", p=2, paired=True)
    x, plus, k = (0, 1), (1, 1), ring.n // 2 - 1  # k inputs
    return (ring.tensor([x, x] + [(1,)] * 2 * k)  # y1 y0
            + ring.train([[[x]], [[(1,)]]] + [[[(1,), x]], [[(1,)], [x]]] * k)  # y1 * both
            + ring.tensor([x, (1,)] + [plus, (1,)] * k)  # y1 * high
            + ring.tensor([(1,), x] + [plus, (1,)] * k)  # y0 * high
            + ring.tensor([plus, (1,)] + [plus] * 2 * k))  # (y1 + 1) * all_zero


# -- duality -----------------------------------------------------------------------

def involution_conjugate(f: Polynomial) -> Polynomial:
    """Conjugate by the order-reversing involution x -> p-1-x.

    Substitutes p-1-x_i for every variable and reflects the output; this
    turns a max-type polynomial into the matching min-type one and swaps
    argmax with argmin.  The substitution is one axis transform: p-1-x is
    -(1 + x), so x^e becomes sum_d (-1)^e C(e, d) x^d, of degree e <= p - 1.
    """
    ring = f.ring
    p = ring.p
    flip = [[(-1) ** e * comb(e, d) % p for e in range(p)] for d in range(p)]
    return (p - 1) - _transformed(f, flip)


# -- catalog ------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """One named formula with its parameter constraints."""

    name: str
    summary: str
    constraints: str
    fixed_p: int | None
    fixed_n: int | None
    allowed_n: tuple[int, ...] | None
    uses_r: bool
    min_p: int
    build: Callable[[PolyRing, int], Polynomial]
    spec_of: Callable[[int, int, int], FunctionSpec]
    verify_grid: tuple[tuple[int, int, int], ...]

    def resolve(self, p: int | None, n: int | None, r: int | None) -> tuple[int, int, int]:
        """Fill defaults and enforce this entry's parameter constraints."""
        if self.fixed_p is not None:
            if p is not None and p != self.fixed_p:
                raise FormulaParamError(
                    f"{self.name} is defined for p = {self.fixed_p} only, got p = {p}")
            p = self.fixed_p
        elif p is None:
            raise FormulaParamError(f"{self.name} needs a modulus p")
        if p < self.min_p:
            raise FormulaParamError(f"{self.name} needs p >= {self.min_p}, got p = {p}")
        if self.fixed_n is not None:
            if n is not None and n != self.fixed_n:
                raise FormulaParamError(
                    f"{self.name} is defined for n = {self.fixed_n} only, got n = {n}")
            n = self.fixed_n
        elif self.allowed_n is not None:
            if n is None or n not in self.allowed_n:
                raise FormulaParamError(
                    f"{self.name} is defined for n in {self.allowed_n}, got n = {n}")
        elif n is None:
            raise FormulaParamError(f"{self.name} needs an input count n")
        if n < 1:
            raise FormulaParamError(f"input count must be positive, got n = {n}")
        if self.uses_r:
            r = 0 if r is None else r
            if r < 0:
                raise FormulaParamError(f"digit index must be nonnegative, got r = {r}")
        else:
            if r not in (None, 0):
                raise FormulaParamError(f"{self.name} does not take a digit index r")
            r = 0
        return p, n, r


def _entry(name, summary, constraints, build, spec_of, *, fixed_p=None, fixed_n=None,
           allowed_n=None, uses_r=False, min_p=2, verify_grid=()):
    return CatalogEntry(name, summary, constraints, fixed_p, fixed_n, allowed_n,
                        uses_r, min_p, build, spec_of, tuple(verify_grid))


def _grid(ps, ns, rs=(0,)):
    return [(p, n, r) for p in ps for n in ns for r in rs]


CATALOG: dict[str, CatalogEntry] = {e.name: e for e in [
    _entry("max",
           "largest of n inputs; threshold-indicator sum",
           "any supported prime p; n >= 1",
           lambda ring, r: max_general(ring),
           lambda p, n, r: FunctionSpec("max", p, n),
           verify_grid=_grid((2, 3), (1, 2, 3))),
    _entry("max2",
           "largest of n bits: prod(1 + x_i) - 1",
           "p = 2; n >= 1",
           lambda ring, r: max_p2(ring),
           lambda p, n, r: FunctionSpec("max", 2, n),
           fixed_p=2, verify_grid=_grid((2,), range(1, 7))),
    _entry("min2",
           "smallest of n bits: prod(x_i)",
           "p = 2; n >= 1",
           lambda ring, r: min_p2(ring),
           lambda p, n, r: FunctionSpec("min", 2, n),
           fixed_p=2, verify_grid=_grid((2,), range(1, 7))),
    _entry("max3",
           "largest of n inputs via elementary symmetric polynomials",
           "p = 3; n >= 1",
           lambda ring, r: max_p3(ring),
           lambda p, n, r: FunctionSpec("max", 3, n),
           fixed_p=3, verify_grid=_grid((3,), range(1, 5))),
    _entry("min3",
           "smallest of n inputs via elementary symmetric polynomials",
           "p = 3; n >= 1",
           lambda ring, r: min_p3(ring),
           lambda p, n, r: FunctionSpec("min", 3, n),
           fixed_p=3, verify_grid=_grid((3,), range(1, 5))),
    _entry("max5",
           "largest of 2 or 3 inputs via elementary symmetric polynomials",
           "p = 5; n in {2, 3}",
           lambda ring, r: (max_p5_n2 if ring.n == 2 else max_p5_n3)(ring),
           lambda p, n, r: FunctionSpec("max", 5, n),
           fixed_p=5, allowed_n=(2, 3), verify_grid=_grid((5,), (2, 3))),
    _entry("maxn2",
           "largest of two inputs, closed form in falling factorials",
           "any prime p >= 3; n = 2",
           lambda ring, r: max_n2(ring),
           lambda p, n, r: FunctionSpec("max", p, 2),
           fixed_n=2, min_p=3, verify_grid=_grid((3, 5, 7), (2,))),
    _entry("argmax",
           "digit r of the least maximizing index; indicator sum",
           "any supported prime p; n >= 1; r >= 0",
           argmax_digit_general,
           lambda p, n, r: FunctionSpec("argmax_digit", p, n, r),
           uses_r=True, verify_grid=_grid((2, 3), (1, 2, 3), (0, 1))),
    _entry("argmax2",
           "digit r of the least maximizing index via prefix products",
           "p = 2; n >= 1; r >= 0",
           argmax_p2,
           lambda p, n, r: FunctionSpec("argmax_digit", 2, n, r),
           fixed_p=2, uses_r=True, verify_grid=_grid((2,), range(1, 9), (0, 1, 2))),
    _entry("argmax2sel",
           "digit r of the least maximizing index of x_0..x_n via an "
           "explicit prefix-product index set",
           "p = 2; inputs x_0..x_n (arity n + 1); r >= 0",
           argmax_p2_selector,
           lambda p, n, r: FunctionSpec("argmax_digit", 2, n + 1, r),
           fixed_p=2, uses_r=True, verify_grid=_grid((2,), range(1, 8), (0, 1, 2))),
    _entry("argmax3n3",
           "least maximizing index of three inputs, compact factored form",
           "p = 3; n = 3",
           lambda ring, r: argmax_p3_n3(ring),
           lambda p, n, r: FunctionSpec("argmax_digit", 3, 3, 0),
           fixed_p=3, fixed_n=3, verify_grid=[(3, 3, 0)]),
    _entry("argmax0",
           "lowest digit of the least maximizing index (n = 2 uses the "
           "dedicated two-input closed form)",
           "any supported prime p; n >= 1",
           lambda ring, r: (argmax0_n2(ring) if ring.n == 2
                            else argmax_digit_general(ring, 0)),
           lambda p, n, r: FunctionSpec("argmax_digit", p, n, 0),
           verify_grid=_grid((2, 3, 5, 7), (2,)) + _grid((2, 3), (3,))),
    _entry("carry",
           "carry of adding two single base-p digits",
           "any supported prime p; inputs are the two digits (n = 2)",
           lambda ring, r: carry(ring),
           lambda p, n, r: FunctionSpec("carry", p, 2),
           fixed_n=2, verify_grid=_grid((2, 3, 5, 7, 11), (2,))),
    _entry("ismax",
           "indicator that max of the n inputs equals the extra input y",
           "any supported prime p; arity n + 1 (y first)",
           lambda ring, r: ismax_general(ring),
           lambda p, n, r: FunctionSpec("ismax", p, n),
           verify_grid=_grid((2, 3), (1, 2))),
    _entry("ismax2",
           "ismax over F_2: y + prod(1 + x_i); arity n + 1",
           "p = 2; arity n + 1 (y first)",
           lambda ring, r: ismax_p2(ring),
           lambda p, n, r: FunctionSpec("ismax", 2, n),
           fixed_p=2, verify_grid=_grid((2,), range(1, 7))),
    _entry("ismax3",
           "ismax over F_3 in squared-product indicators; arity n + 1",
           "p = 3; arity n + 1 (y first)",
           lambda ring, r: ismax_p3(ring),
           lambda p, n, r: FunctionSpec("ismax", 3, n),
           fixed_p=3, verify_grid=_grid((3,), range(1, 4))),
    _entry("nummax0",
           "number of maximizing indices, mod p",
           "any supported prime p; n >= 1",
           lambda ring, r: nummax_digit_general(ring, 0),
           lambda p, n, r: FunctionSpec("nummax_digit", p, n, 0),
           verify_grid=_grid((2, 3), (1, 2, 3))),
    _entry("nummax",
           "digit r of the number of maximizing indices, by Lucas's theorem",
           "any supported prime p; n >= 1; r >= 0",
           nummax_digit_general,
           lambda p, n, r: FunctionSpec("nummax_digit", p, n, r),
           uses_r=True, verify_grid=_grid((2, 3), (1, 2, 3), (0, 1))),
    _entry("nummax2",
           "digit r of the number of maximizing indices over F_2",
           "p = 2; n >= 1; r >= 0",
           nummax_p2,
           lambda p, n, r: FunctionSpec("nummax_digit", 2, n, r),
           fixed_p=2, uses_r=True, verify_grid=_grid((2,), range(1, 7), (0, 1, 2))),
    _entry("ismax2bit",
           "two-bit ismax over F_2; arity 2n + 2, order (y1, y0, x_i1, x_i0, ...)",
           "p = 2; n two-bit inputs plus the two-bit candidate y",
           lambda ring, r: ismax_2bit_p2(ring),
           lambda p, n, r: FunctionSpec("ismax_2bit", 2, n),
           fixed_p=2, verify_grid=_grid((2,), (1, 2, 3))),
]}


def resolve_params(name: str, p: int | None = None, n: int | None = None,
                   r: int | None = None) -> tuple[CatalogEntry, int, int, int]:
    try:
        entry = CATALOG[name]
    except KeyError:
        raise FormulaParamError(
            f"unknown formula {name!r}; known: {', '.join(sorted(CATALOG))}") from None
    rp, rn, rr = entry.resolve(p, n, r)
    return entry, rp, rn, rr


def build_formula(name: str, p: int | None = None, n: int | None = None,
                  r: int | None = None, *,
                  max_table_size: int | None = DEFAULT_MAX_TABLE_SIZE) -> Polynomial:
    """Build a catalog formula by name, validating its parameters first.

    This is the one place a catalog formula's ring is made: modulus p and
    the arity of the formula's semantics, under the table-size cap.
    """
    entry, p, n, r = resolve_params(name, p, n, r)
    ring = PolyRing(p, entry.spec_of(p, n, r).arity, max_table_size=max_table_size)
    return entry.build(ring, r)


def verify_formula(name: str, p: int | None = None, n: int | None = None,
                   r: int | None = None, *,
                   max_table_size: int | None = DEFAULT_MAX_TABLE_SIZE,
                   candidate: Polynomial | None = None) -> dict:
    """Check one closed form against interpolation of its semantics.

    Returns a report dict with coefficient_match (exact table identity,
    which by uniqueness is the minimality claim itself) and function_match
    (pointwise agreement of the closed form with the semantics).  A given
    ``candidate`` polynomial is checked in place of the catalog's closed
    form; it must live in the ring the formula's semantics need.
    """
    entry, p, n, r = resolve_params(name, p, n, r)
    poly = (build_formula(name, p, n, r, max_table_size=max_table_size)
            if candidate is None else candidate)
    spec = entry.spec_of(p, n, r)
    table = tabulate(spec, max_table_size=max_table_size)
    reference = interpolate(table, max_table_size=max_table_size)
    if poly.ring != reference.ring:
        raise FormulaParamError(
            f"candidate polynomial lives in {poly.ring}, "
            f"but {name} needs {reference.ring}")
    # Both value tables in stored form, value planes at p = 2 and p = 3,
    # which ``tabulate`` builds directly, so neither table is converted.  A
    # mismatching entry is read from the compared tables.
    values = poly._values()
    mismatch = first_mismatch(values, table._stored, p)
    report = {
        "formula": name,
        "p": p,
        "n": n,
        "r": r,
        "points_checked": p ** spec.arity,
        "coefficient_match": poly == reference,
        "function_match": mismatch is None,
    }
    if mismatch is not None:
        report["mismatch_point"] = list(point_at(p, spec.arity, mismatch))
        report["expected"] = _stored_entry(table._stored, p, mismatch)
        report["got"] = _stored_entry(values, p, mismatch)
    report["status"] = ("pass" if report["coefficient_match"] and report["function_match"]
                        else "mismatch")
    return report
