import inspect
import itertools
import operator
import random
import re
import tracemalloc

import pytest

from fpminpoly import formulas
from fpminpoly.ff import PrimeField, is_prime
from fpminpoly.formulas import (CATALOG, FormulaParamError, argmax0_n2,
                                argmax_digit_general, argmax_p2,
                                argmax_p2_selector, argmax_p3_n3, build_formula,
                                carry, involution_conjugate, ismax_2bit_p2,
                                ismax_general, ismax_p2, ismax_p3, max_general,
                                max_n2, max_p2, max_p3, max_p5_n2, max_p5_n3,
                                min_p2, min_p3, nummax_digit_general, nummax_p2,
                                resolve_params, verify_formula)
from fpminpoly.oracle import (FunctionSpec, carry_sem, delta_basis_rows, interpolate,
                              point_at, tabulate)
from fpminpoly.polyring import Polynomial, PolyRing, SizeGuardError, bounded_power


def reference(kind, p, n, r=0):
    return interpolate(tabulate(FunctionSpec(kind, p, n, r)))


def single_variable_pieces(ring):
    """delta_t(x_i) for t < p and L_t(x_i) for t <= p, per input i, each a
    full table of ``ring`` built by ``univariate`` from ``_piece_rows``."""
    deltas, lows = formulas._piece_rows(ring.p)
    return ([[ring.univariate(i, row) for row in deltas] for i in range(ring.n)],
            [[ring.univariate(i, row) for row in lows] for i in range(ring.n)])


def nummax_digit_subsets(ring, r):
    """Digit r of the number of maximizing indices, by subset enumeration.

    The exponential form ``nummax_digit_general`` replaced, kept as its
    reference: for each count k with a nonzero digit, sum over every
    k-element index set I the indicator that exactly the inputs in I sit at
    the common maximum t while every other input stays below t.
    """
    deltas, lows = single_variable_pieces(ring)
    acc = ring.zero()
    for k in range(1, ring.n + 1):
        coeff = ring.field.digit(k, r)
        if coeff == 0:
            continue
        for subset in itertools.combinations(range(ring.n), k):
            for t in range(ring.p):
                term = ring.one()
                for j in range(ring.n):
                    term = term * (deltas[j][t] if j in subset else lows[j][t])
                acc = acc + term.scale(coeff)
    return acc


def nummax_digit_dp(ring, r):
    """Digit r of the number of maximizing indices, by the e_k recurrence.

    The form the trains of ``nummax_digit_general`` replaced, kept as their
    reference: sum_t e_{p^r}(delta_t(x)) * prod_i L_{t+1}(x_i), with
    e_0..e_{p^r} from the recurrence e_j += delta_t(x_m) * e_{j-1} over
    full-table pieces, then the L_{t+1} factors multiplied in one at a time.
    """
    n, p = ring.n, ring.p
    k = bounded_power(p, r, n)
    if k is None:
        return ring.zero()
    deltas, lows = single_variable_pieces(ring)
    acc = ring.zero()
    for t in range(p):
        e = [ring.one()] + [ring.zero()] * k
        for m in range(n):
            for j in range(min(k, m + 1), 0, -1):
                e[j] = e[j] + deltas[m][t] * e[j - 1]
        term = e[k]
        for low in lows:
            term = term * low[t + 1]
        acc = acc + term
    return acc


def argmax_digit_indicators(ring, r):
    """Digit r of the least maximizing index as a sum of level indicators.

    The form the trains of ``argmax_digit_general`` replaced, kept as their
    reference: over each index i with a nonzero digit and each level t, the
    product of full-table pieces delta_t(x_i) * prod_{j<i} L_t(x_j) *
    prod_{j>i} L_{t+1}(x_j), scaled by digit_r(i).
    """
    deltas, lows = single_variable_pieces(ring)
    acc = ring.zero()
    for i in range(ring.n):
        coeff = ring.field.digit(i, r)
        if coeff == 0:
            continue
        for t in range(ring.p):
            term = deltas[i][t]
            for j in range(ring.n):
                if j != i:
                    term = term * lows[j][t if j < i else t + 1]
            acc = acc + term.scale(coeff)
    return acc


def split_sum_tensors(ring, head, splits, weight):
    """Sum over split points d of weight(d) * h_d(x_0) * F_{p-d}(x_1).

    The form the train of ``_split_sum`` replaced, kept as its reference:
    one ``tensor`` per split point, added in order of d.
    """
    tail = formulas._factorial_rows(ring.p, False)
    acc = ring.zero()
    for d in splits:
        w = weight(d)
        acc = acc + ring.tensor([[w * c for c in head[d]], tail[ring.p - d]])
    return acc


def carry_tensors(ring):
    field = ring.field
    return split_sum_tensors(ring, formulas._factorial_rows(ring.p, False), range(1, ring.p),
                             lambda d: field.neg(field.inverse(d)) if d % 2 else field.inverse(d))


def argmax0_tensors(ring):
    return split_sum_tensors(ring, formulas._factorial_rows(ring.p, True), range(1, ring.p),
                             ring.field.inverse)


def max_n2_products(ring):
    """Two-input max with ring products: the form ``max_n2``'s one train replaced."""
    p = ring.p
    x0, x1 = ring.variable(0), ring.variable(1)
    middle = split_sum_tensors(ring, formulas._factorial_rows(p, True), range(2, p - 1),
                               ring.field.inverse)
    return ((x1 - x0) * middle + x0
            + (x0 + 1) ** 2 * (1 - (x1 + 1) ** (p - 1))
            + (1 - x0 ** (p - 1)) * x1**2)


def max_p3_symmetric(ring):
    """max over F_3 as printed, (e_0 + e_2 + e_4 + ...) * (e_0 + ... + e_n) - 1:
    the form ``max_p3``'s two tensors replaced."""
    even = ring.zero()
    for i in range(0, ring.n + 1, 2):
        even = even + ring.elementary_symmetric(i)
    full = ring.zero()
    for i in range(ring.n + 1):
        full = full + ring.elementary_symmetric(i)
    return even * full - 1


def min_p3_symmetric(ring):
    """min over F_3 as printed, e_n * (1 + sum_i (-1)^i e_i + e_n): the form
    ``min_p3``'s two tensors replaced."""
    alt = ring.one()
    for i in range(1, ring.n + 1):
        e = ring.elementary_symmetric(i)
        alt = alt + (e if i % 2 == 0 else -e)
    return ring.elementary_symmetric(ring.n) * (alt + ring.elementary_symmetric(ring.n))


def ismax_p3_products(ring):
    """ismax over F_3 with ring products: the form ``ismax_p3``'s tensors replaced."""
    y = ring.variable(0)
    m = ring.n - 1
    sq = ring.tensor([(1,)] + [(1, 2, 1)] * m)  # prod (1 + x_i)^2
    zero_ind = ring.tensor([(1,)] + [(1, 0, 2)] * m)  # prod (1 - x_i^2)
    return -(y**2) + y * (sq + zero_ind + 1) + zero_ind


def ismax_2bit_products(ring):
    """Two-bit ismax with ring products: the form whose ``both`` loop
    ``ismax_2bit_p2``'s rank-2 train replaced."""
    y1, y0 = ring.variable(0), ring.variable(1)
    plus = (1, 1)
    both = ring.one()  # no input has high and low set
    for i in range(2, ring.n, 2):
        both = both * (1 + ring.variable(i) * ring.variable(i + 1))
    high = ring.tensor([(1,), (1,)] + [plus, (1,)] * (ring.n // 2 - 1))  # no high bit set
    all_zero = ring.tensor([(1,), (1,)] + [plus] * (ring.n - 2))  # every bit is zero
    return y1 * y0 + y1 * both + (y1 + y0) * high + (y1 + 1) * all_zero


@pytest.mark.parametrize("p", [p for p in range(2, 60) if is_prime(p)] + [257])
def test_piece_rows_match_the_oracle_delta_basis(p, monkeypatch):
    """The delta rows are the columns of the oracle's interpolation basis, a
    separate convolution, and the L rows their running sums, from L_0 = 0 to
    L_p = 1; building the rows multiplies no polynomials."""

    def refuse(*args):
        raise AssertionError("a ring product built a piece row")

    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    monkeypatch.setattr(Polynomial, "__pow__", refuse)
    formulas._piece_rows.cache_clear()
    deltas, lows = formulas._piece_rows(p)
    columns = tuple(zip(*delta_basis_rows(p)))
    assert deltas == columns
    running = (0,) * p
    assert lows[0] == running
    for t in range(p):
        running = tuple((a + b) % p for a, b in zip(running, columns[t]))
        assert lows[t + 1] == running
    assert lows[p] == (1,) + (0,) * (p - 1)


class TestMaxFamily:
    def test_max_general_matches_interpolation(self):
        assert max_general(PolyRing(3, 3)) == reference("max", 3, 3)

    def test_max_general_p2_n2_printed_form(self):
        ring = PolyRing(2, 2)
        x0, x1 = ring.variable(0), ring.variable(1)
        assert max_general(PolyRing(2, 2)) == x0 + x1 + x0 * x1

    def test_max_general_at_zero(self):
        assert max_general(PolyRing(5, 3)).eval((0, 0, 0)) == 0

    def test_max_p2_is_symmetric_sum(self):
        ring = PolyRing(2, 3)
        expected = (ring.elementary_symmetric(1) + ring.elementary_symmetric(2)
                    + ring.elementary_symmetric(3))
        assert max_p2(PolyRing(2, 3)) == expected

    def test_min_p2_vanishes_with_any_zero(self):
        f = min_p2(PolyRing(2, 4))
        assert f.eval((1, 1, 0, 1)) == 0
        assert f.eval((1, 1, 1, 1)) == 1

    def test_p2_forms_match_interpolation(self):
        for n in range(1, 6):
            assert max_p2(PolyRing(2, n)) == reference("max", 2, n)
            assert min_p2(PolyRing(2, n)) == reference("min", 2, n)

    def test_max_p3_eval_example(self):
        assert max_p3(PolyRing(3, 2)).eval((1, 2)) == 2

    def test_p3_forms_match_interpolation(self):
        for n in range(1, 5):
            assert max_p3(PolyRing(3, n)) == reference("max", 3, n)
            assert min_p3(PolyRing(3, n)) == reference("min", 3, n)

    def test_p3_forms_match_the_printed_symmetric_forms(self):
        for n in range(1, 7):
            ring = PolyRing(3, n)
            assert max_p3(ring).coeffs == max_p3_symmetric(ring).coeffs, n
            assert min_p3(ring).coeffs == min_p3_symmetric(ring).coeffs, n

    def test_min_p3_product_identity(self):
        # e_n (1 + sum (-1)^i e_i + e_n) is also prod x_i^2 + prod x_i(1-x_i)
        for n in (1, 2, 3):
            ring = PolyRing(3, n)
            sq = ring.one()
            mixed = ring.one()
            for i in range(n):
                x = ring.variable(i)
                sq = sq * x**2
                mixed = mixed * (x * (1 - x))
            assert min_p3(PolyRing(3, n)) == sq + mixed

    def test_min_p3_is_dual_of_max_p3(self):
        for n in range(1, 5):
            assert min_p3(PolyRing(3, n)) == involution_conjugate(max_p3(PolyRing(3, n)))

    def test_max_p5_printed_forms(self):
        assert max_p5_n2(PolyRing(5, 2)) == reference("max", 5, 2)
        assert max_p5_n3(PolyRing(5, 3)) == reference("max", 5, 3)

    def test_max_p5_forced_by_top_value(self):
        f = max_p5_n2(PolyRing(5, 2))
        for other in range(5):
            assert f.eval((4, other)) == 4


class TestArgmaxFamily:
    def test_general_matches_interpolation(self):
        assert argmax_digit_general(PolyRing(3, 3), 0) == reference("argmax_digit", 3, 3, 0)

    def test_digit_beyond_range_is_zero(self):
        # p^r > n-1 means every index has digit 0 at position r.
        assert argmax_digit_general(PolyRing(3, 3), 1) == PolyRing(3, 3).zero()
        assert argmax_digit_general(PolyRing(2, 2), 1) == PolyRing(2, 2).zero()

    def test_general_p2_n2_printed_form(self):
        ring = PolyRing(2, 2)
        assert (argmax_digit_general(PolyRing(2, 2), 0)
                == (1 + ring.variable(0)) * ring.variable(1))

    def test_argmax_p2_printed_form_n2(self):
        ring = PolyRing(2, 2)
        assert argmax_p2(PolyRing(2, 2), 0) == (1 + ring.variable(0)) * ring.variable(1)

    def test_argmax_p2_zero_input(self):
        for n, r in ((3, 0), (4, 1), (5, 0)):
            assert argmax_p2(PolyRing(2, n), r).eval((0,) * n) == 0

    def test_argmax_p2_matches_interpolation(self):
        for n in range(1, 8):
            for r in range(3):
                assert (argmax_p2(PolyRing(2, n), r)
                        == reference("argmax_digit", 2, n, r)), (n, r)

    def test_selector_n1_r0_printed_form(self):
        ring = PolyRing(2, 2)
        assert (argmax_p2_selector(PolyRing(2, 2), 0)
                == (1 + ring.variable(0)) * ring.variable(1))

    def test_selector_zero_when_digit_unreachable(self):
        assert argmax_p2_selector(PolyRing(2, 3), 2) == PolyRing(2, 3).zero()
        assert argmax_p2_selector(PolyRing(2, 4), 2) == PolyRing(2, 4).zero()

    def test_selector_matches_direct_form_and_interpolation(self):
        for n in range(1, 7):
            for r in range(3):
                sel = argmax_p2_selector(PolyRing(2, n + 1), r)
                direct = argmax_p2(PolyRing(2, n + 1), r)
                assert sel == direct, (n, r)
                assert sel == reference("argmax_digit", 2, n + 1, r), (n, r)

    def test_argmax_p3_n3_printed_polynomial(self):
        assert argmax_p3_n3(PolyRing(3, 3)) == reference("argmax_digit", 3, 3, 0)

    def test_argmax_p3_n3_tie_and_top(self):
        f = argmax_p3_n3(PolyRing(3, 3))
        assert f.eval((2, 2, 2)) == 0  # least-index tie
        assert f.eval((0, 0, 2)) == 2

    def test_least_index_tie_break_exhaustive(self):
        f = argmax_p3_n3(PolyRing(3, 3))
        for point in itertools.product(range(3), repeat=3):
            ties = [i for i, v in enumerate(point) if v == max(point)]
            assert f.eval(point) == min(ties) % 3


class TestTwoInputForms:
    def test_carry_matches_integer_addition(self):
        for p in (2, 3, 5, 7, 11):
            f = carry(PolyRing(p, 2))
            for y0 in range(p):
                for y1 in range(p):
                    assert f.eval((y0, y1)) == carry_sem(y0, y1, p), (p, y0, y1)

    def test_carry_edge_rows(self):
        for p in (3, 5, 7):
            f = carry(PolyRing(p, 2))
            for y1 in range(p):
                assert f.eval((0, y1)) == 0
            assert f.eval((p - 1, 1)) == 1

    def test_carry_is_minimal(self):
        for p in (2, 3, 5, 7, 11):
            assert carry(PolyRing(p, 2)) == reference("carry", p, 2)

    def test_argmax0_printed_form_p2(self):
        ring = PolyRing(2, 2)
        assert argmax0_n2(PolyRing(2, 2)) == (ring.variable(0) + 1) * ring.variable(1)

    def test_argmax0_printed_form_p3(self):
        ring = PolyRing(3, 2)
        x0, x1 = ring.variable(0), ring.variable(1)
        assert argmax0_n2(PolyRing(3, 2)) == -((x0 + 1) * (x0 - x1) * x1)

    def test_argmax0_printed_form_p5(self):
        ring = PolyRing(5, 2)
        x0, x1 = ring.variable(0), ring.variable(1)
        printed = -((x0 + 1) * (x0**2 - x0 * x1 + x0 + x1**2) * (x0 - x1) * x1)
        assert argmax0_n2(PolyRing(5, 2)) == printed

    def test_argmax0_printed_form_p7(self):
        ring = PolyRing(7, 2)
        x0, x1 = ring.variable(0), ring.variable(1)
        quartic = (x0**4 + 5 * x0**3 * x1 + 2 * x0**3 + 3 * x0**2 * x1**2
                   + x0**2 * x1 + 4 * x0**2 + 5 * x0 * x1**3 + 6 * x0 * x1**2
                   + 3 * x0 + x1**4)
        printed = -(quartic * (x0 + 1) * (x0 - x1) * x1)
        assert argmax0_n2(PolyRing(7, 2)) == printed

    def test_argmax0_is_carry_after_involution(self):
        for p in (2, 3, 5, 7, 11):
            c = carry(PolyRing(p, 2))
            ring = c.ring
            composed = c.compose([(p - 1) - ring.variable(0), ring.variable(1)])
            assert composed == argmax0_n2(PolyRing(p, 2))

    def test_max_n2_matches_interpolation(self):
        for p in (3, 5, 7, 11, 13):
            assert max_n2(PolyRing(p, 2)) == reference("max", p, 2)

    def test_max_n2_is_select_by_argmax(self):
        for p in (3, 5, 7):
            A = argmax0_n2(PolyRing(p, 2))
            ring = A.ring
            x0, x1 = ring.variable(0), ring.variable(1)
            assert max_n2(PolyRing(p, 2)) == x0 * (1 - A) + x1 * A

    def test_max_n2_diagonal(self):
        f = max_n2(PolyRing(7, 2))
        for t in range(7):
            assert f.eval((t, t)) == t

    @pytest.mark.parametrize("p", [p for p in range(2, 32) if is_prime(p)])
    def test_match_the_replaced_tensor_sums_and_products(self, p):
        ring = PolyRing(p, 2)
        assert carry(ring) == carry_tensors(ring)
        assert argmax0_n2(ring) == argmax0_tensors(ring)
        if p > 2:
            assert max_n2(ring) == max_n2_products(ring)

    def test_max_n2_rejects_p2(self):
        with pytest.raises(FormulaParamError):
            max_n2(PolyRing(2, 2))


class TestIsmaxNummax:
    def test_ismax_general_matches_interpolation(self):
        for p, n in ((3, 2), (2, 3), (2, 6), (3, 5), (5, 3), (7, 2), (11, 1)):
            assert ismax_general(PolyRing(p, n + 1)) == reference("ismax", p, n), (p, n)

    def test_nummax0_all_equal(self):
        f = nummax_digit_general(PolyRing(5, 3), 0)
        assert f.eval((2, 2, 2)) == 3
        assert f.eval((4, 4, 4)) == 3

    def test_nummax_digit_of_count(self):
        ring = PolyRing(2, 3)
        for f in (nummax_digit_general(ring, 1), nummax_digit_subsets(ring, 1)):
            for idx in range(8):
                point = point_at(2, 3, idx)
                count = sum(1 for v in point if v == max(point))
                assert f.eval(point) == (count >> 1) & 1

    def test_general_ismax_nummax_grid(self):
        for p in (2, 3):
            for n in (1, 2, 3):
                assert ismax_general(PolyRing(p, n + 1)) == reference("ismax", p, n), (p, n)
                for r in (0, 1):
                    assert (nummax_digit_general(PolyRing(p, n), r)
                            == reference("nummax_digit", p, n, r)), (p, n, r)

    @pytest.mark.parametrize("p,n_max", [(2, 8), (3, 6), (5, 4), (7, 3)])
    def test_nummax_digit_general_matches_subsets_and_interpolation(self, p, n_max):
        for n in range(1, n_max + 1):
            ring = PolyRing(p, n)
            for r in (0, 1, 2):
                f = nummax_digit_general(ring, r)
                assert f == nummax_digit_subsets(ring, r), (p, n, r)
                assert f == reference("nummax_digit", p, n, r), (p, n, r)

    def test_huge_digit_index_is_zero_without_forming_the_power(self):
        # p^r with r = 10^18 could never be allocated; every form must
        # notice that the digit is zero before forming it.
        for form, ring in ((nummax_digit_general, PolyRing(2, 4)),
                           (nummax_digit_general, PolyRing(3, 3)),
                           (nummax_p2, PolyRing(2, 4)), (argmax_p2, PolyRing(2, 4)),
                           (argmax_p2_selector, PolyRing(2, 4)),
                           (argmax_digit_general, PolyRing(3, 3))):
            assert form(ring, 10**18) == ring.zero(), form.__name__

    def test_ismax_p2_matches_interpolation(self):
        for n in range(1, 7):
            assert ismax_p2(PolyRing(2, n + 1)) == reference("ismax", 2, n)

    def test_ismax_p3_matches_interpolation(self):
        for n in range(1, 5):
            assert ismax_p3(PolyRing(3, n + 1)) == reference("ismax", 3, n)

    def test_ismax_p3_matches_the_replaced_products(self):
        for n in range(1, 8):
            ring = PolyRing(3, n + 1)
            assert ismax_p3(ring) == ismax_p3_products(ring), n

    def test_ismax_p3_all_zero(self):
        f = ismax_p3(PolyRing(3, 4))
        assert f.eval((0, 0, 0, 0)) == 1  # y = 0 against all-zero inputs

    def test_nummax_p2_semantics_grid(self):
        for n in range(1, 7):
            for r in range(3):
                f = nummax_p2(PolyRing(2, n), r)
                table = tabulate(FunctionSpec("nummax_digit", 2, n, r))
                assert f.values() == table.values, (n, r)

    def test_nummax_p2_all_zeros_gives_digit_of_n(self):
        F = PrimeField(2)
        for n in range(1, 9):
            for r in range(4):
                assert nummax_p2(PolyRing(2, n), r).eval((0,) * n) == F.digit(n, r)

    def test_nummax_p2_single_one(self):
        f = nummax_p2(PolyRing(2, 5), 0)
        assert f.eval((0, 0, 1, 0, 0)) == 1


class TestTrainForms:
    """``nummax_digit_general`` and ``argmax_digit_general`` build one train
    per level; the forms the trains replaced are their references."""

    @pytest.mark.parametrize("p,n_max", [(2, 7), (3, 5), (5, 3), (7, 3)])
    def test_match_the_replaced_forms(self, p, n_max):
        for n in range(1, n_max + 1):
            ring = PolyRing(p, n)
            for r in (0, 1, 2):
                assert nummax_digit_general(ring, r) == nummax_digit_dp(ring, r), (p, n, r)
                assert (argmax_digit_general(ring, r)
                        == argmax_digit_indicators(ring, r)), (p, n, r)

    @pytest.mark.parametrize("name,p,n,r", [("nummax", 3, 10, 1), ("argmax", 3, 10, 1),
                                            ("nummax", 2, 18, 2), ("argmax", 2, 18, 2)])
    def test_peak_memory_stays_near_the_table(self, name, p, n, r):
        # A train holds one table per live state, each at most a p-th of the
        # result until the last axis; full-table pieces would cost one
        # result per piece.
        formulas._piece_rows(p)  # warm the cached rows
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            f = build_formula(name, p, n, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.ring.size == p**n
        assert peak - base <= 8 * f.ring.size, (peak - base) / f.ring.size


class TestTwoBitIsmax:
    def test_matches_interpolation(self):
        for n in range(1, 5):
            assert ismax_2bit_p2(PolyRing(2, 2 * n + 2)) == reference("ismax_2bit", 2, n)

    def test_matches_the_replaced_products(self):
        for arity in range(2, 16, 2):
            ring = PolyRing(2, arity)
            assert ismax_2bit_p2(ring) == ismax_2bit_products(ring), arity

    def test_examples(self):
        f = ismax_2bit_p2(PolyRing(2, 6))
        # variable order (y1, y0, x01, x00, x11, x10)
        assert f.eval((1, 1, 1, 1, 0, 1)) == 1  # y=3, inputs 3 and 1
        assert f.eval((0, 0, 0, 0, 0, 0)) == 1  # y=0, all zero
        assert f.eval((0, 0, 1, 0, 0, 0)) == 0  # y=0 but an input is 2


class TestDualityAndMinimality:
    def test_min_constructors_are_involution_conjugates(self):
        for n in range(1, 6):
            assert min_p2(PolyRing(2, n)) == involution_conjugate(max_p2(PolyRing(2, n)))
        for n in range(1, 5):
            assert min_p3(PolyRing(3, n)) == involution_conjugate(max_p3(PolyRing(3, n)))

    @pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3), (131, 1)])
    def test_involution_conjugate_matches_composition(self, p, n):
        ring = PolyRing(p, n)
        rng = random.Random(f"{p}/{n}")
        subs = [(p - 1) - ring.variable(i) for i in range(n)]
        for _ in range(3):
            f = ring.from_coeffs([rng.randrange(p) for _ in range(ring.size)])
            assert involution_conjugate(f) == (p - 1) - f.compose(subs)

    def test_every_constructor_output_is_minimal_form(self):
        outputs = [
            max_general(PolyRing(5, 2)), max_p2(PolyRing(2, 6)), min_p2(PolyRing(2, 6)),
            max_p3(PolyRing(3, 4)), min_p3(PolyRing(3, 4)),
            max_p5_n2(PolyRing(5, 2)), max_p5_n3(PolyRing(5, 3)),
            argmax_digit_general(PolyRing(3, 3), 0),
            argmax_p2(PolyRing(2, 8), 1), argmax_p2_selector(PolyRing(2, 7), 1),
            argmax_p3_n3(PolyRing(3, 3)),
            carry(PolyRing(11, 2)), argmax0_n2(PolyRing(7, 2)), max_n2(PolyRing(11, 2)),
            ismax_general(PolyRing(3, 3)),
            nummax_digit_general(PolyRing(3, 3), 0), nummax_digit_general(PolyRing(2, 3), 1),
            ismax_p2(PolyRing(2, 7)), ismax_p3(PolyRing(3, 4)), nummax_p2(PolyRing(2, 6), 2),
            ismax_2bit_p2(PolyRing(2, 8)),
        ]
        for f in outputs:
            assert f.is_minimal_form()

    def test_two_input_max_composes_associatively(self):
        # max(x0, x1, x2) computed as max(max(x0, x1), x2); in the quotient
        # ring the composition is already canonical, so by uniqueness it
        # must equal the direct form (the unreduced composition would not).
        for p in (3, 5):
            big = PolyRing(p, 3)
            low = max_general(PolyRing(p, 2)).compose([big.variable(0), big.variable(1)])
            composed = max_n2(PolyRing(p, 2)).compose([low, big.variable(2)])
            assert composed == max_general(PolyRing(p, 3))
            table = tabulate(FunctionSpec("max", p, 3))
            assert composed.values() == table.values

    def test_two_input_max_composes_associatively_p2(self):
        big = PolyRing(2, 3)
        low = max_p2(PolyRing(2, 2)).compose([big.variable(0), big.variable(1)])
        composed = max_p2(PolyRing(2, 2)).compose([low, big.variable(2)])
        assert composed == max_p2(PolyRing(2, 3))

    def test_argmax_constructors_break_ties_to_least_index(self):
        cases = [
            (argmax_p2(PolyRing(2, 4), 0), 2, 4, 0), (argmax_p2(PolyRing(2, 4), 1), 2, 4, 1),
            (argmax_digit_general(PolyRing(3, 3), 0), 3, 3, 0),
            (argmax0_n2(PolyRing(5, 2)), 5, 2, 0),
        ]
        F = {2: PrimeField(2), 3: PrimeField(3), 5: PrimeField(5)}
        for poly, p, n, r in cases:
            for point in itertools.product(range(p), repeat=n):
                maxima = [i for i, v in enumerate(point) if v == max(point)]
                if len(maxima) < 2:
                    continue
                assert poly.eval(point) == F[p].digit(min(maxima), r), (p, n, r, point)


#: Each form written for one modulus or one arity, with a ring it must refuse.
FIXED_RING_FORMS = [
    ("max_p2", max_p2, PolyRing(3, 2)), ("min_p2", min_p2, PolyRing(3, 2)),
    ("max_p3", max_p3, PolyRing(2, 3)), ("min_p3", min_p3, PolyRing(5, 2)),
    ("max_p5_n2", max_p5_n2, PolyRing(5, 3)), ("max_p5_n2", max_p5_n2, PolyRing(3, 2)),
    ("max_p5_n3", max_p5_n3, PolyRing(5, 2)),
    ("argmax_p2", lambda ring: argmax_p2(ring, 0), PolyRing(3, 2)),
    ("argmax_p2_selector", lambda ring: argmax_p2_selector(ring, 0), PolyRing(3, 3)),
    ("argmax_p3_n3", argmax_p3_n3, PolyRing(3, 4)),
    ("argmax_p3_n3", argmax_p3_n3, PolyRing(2, 3)),
    ("carry", carry, PolyRing(3, 3)), ("argmax0_n2", argmax0_n2, PolyRing(5, 1)),
    ("max_n2", max_n2, PolyRing(7, 3)),
    ("ismax_p2", ismax_p2, PolyRing(3, 3)), ("ismax_p3", ismax_p3, PolyRing(2, 3)),
    ("nummax_p2", lambda ring: nummax_p2(ring, 0), PolyRing(3, 3)),
    ("ismax_2bit_p2", ismax_2bit_p2, PolyRing(2, 5)),
    ("ismax_2bit_p2", ismax_2bit_p2, PolyRing(3, 4)),
]


@pytest.mark.parametrize("form, build, ring", FIXED_RING_FORMS,
                         ids=[f"{form}-p{ring.p}n{ring.n}"
                              for form, _, ring in FIXED_RING_FORMS])
def test_fixed_form_refuses_other_ring(form, build, ring):
    with pytest.raises(FormulaParamError) as info:
        build(ring)
    assert form in str(info.value) and repr(ring) in str(info.value)


class TestCatalog:
    def test_catalog_is_complete(self):
        expected = {"max", "max2", "min2", "max3", "min3", "max5", "maxn2",
                    "argmax", "argmax2", "argmax2sel", "argmax3n3", "argmax0",
                    "carry", "ismax", "ismax2", "ismax3", "nummax0", "nummax",
                    "nummax2", "ismax2bit"}
        assert set(CATALOG) == expected

    def test_entries_have_constraint_text(self):
        for entry in CATALOG.values():
            assert entry.summary
            assert entry.constraints

    def test_build_formula_dispatch(self):
        assert build_formula("max", p=3, n=1) == PolyRing(3, 1).variable(0)
        assert build_formula("argmax0", p=2, n=2) == argmax0_n2(PolyRing(2, 2))
        assert build_formula("argmax0", p=3, n=3) == argmax_p3_n3(PolyRing(3, 3))
        assert build_formula("max5", n=2) == max_p5_n2(PolyRing(5, 2))

    def test_build_formula_ring_has_spec_arity(self):
        for name, entry in CATALOG.items():
            for p, n, r in entry.verify_grid:
                ring = build_formula(name, p, n, r).ring
                assert (ring.p, ring.n) == (p, entry.spec_of(p, n, r).arity), (name, p, n, r)

    def test_build_formula_caps_the_arity_table(self):
        # ismax with n = 3 inputs has arity 4: 81 entries, over a cap of 27
        with pytest.raises(SizeGuardError, match=r"3\^4 exceeds the cap of 27"):
            build_formula("ismax", p=3, n=3, max_table_size=27)
        assert build_formula("ismax", p=3, n=3, max_table_size=81).ring.n == 4

    def test_build_formula_validation(self):
        with pytest.raises(FormulaParamError):
            build_formula("nonesuch", p=2, n=2)
        with pytest.raises(FormulaParamError):
            build_formula("max3", p=5, n=2)
        with pytest.raises(FormulaParamError):
            build_formula("max5", n=4)
        with pytest.raises(FormulaParamError):
            build_formula("max")  # p and n required
        with pytest.raises(FormulaParamError):
            build_formula("max2", n=3, r=1)  # r not accepted
        with pytest.raises(FormulaParamError):
            build_formula("maxn2", p=2)

    def test_resolve_params_fills_defaults(self):
        entry, p, n, r = resolve_params("argmax2", n=4)
        assert (p, n, r) == (2, 4, 0)
        assert entry.uses_r

    def test_verify_formula_reports(self):
        report = verify_formula("max5", n=2)
        assert report["status"] == "pass"
        assert report["points_checked"] == 25
        assert report["coefficient_match"] and report["function_match"]

    def test_verify_formula_default_grids_pass(self):
        for name, entry in CATALOG.items():
            for p, n, r in entry.verify_grid:
                report = verify_formula(name, p, n, r)
                assert report["status"] == "pass", (name, p, n, r)
                given = verify_formula(name, p, n, r,
                                       candidate=build_formula(name, p, n, r))
                assert given == report, (name, p, n, r)


#: The catalog entries printed as products: the only builds that multiply.
PRODUCT_FORMS = {"max5", "argmax3n3"}


class TestRingProtocol:
    """Every catalog constructor builds in the ring it is given: it makes no
    second ``PolyRing``, and only the forms printed as products multiply two
    polynomials or raise one to a power.  The row caches of ``formulas`` are
    cleared before each build, so rows built on first use are seen too."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_builds_in_the_given_ring_only(self, name, monkeypatch):
        made, products = [], []
        init, mul, power = PolyRing.__init__, Polynomial.__mul__, Polynomial.__pow__

        def recording_init(ring, *args, **kwargs):
            made.append(args)
            init(ring, *args, **kwargs)

        def recording_mul(f, other):
            if isinstance(other, Polynomial):
                products.append("*")
            return mul(f, other)

        def recording_pow(f, e):
            products.append("**")
            return power(f, e)

        monkeypatch.setattr(PolyRing, "__init__", recording_init)
        monkeypatch.setattr(Polynomial, "__mul__", recording_mul)
        monkeypatch.setattr(Polynomial, "__pow__", recording_pow)
        entry = CATALOG[name]
        for p, n, r in entry.verify_grid:
            ring = PolyRing(p, entry.spec_of(p, n, r).arity)
            for value in vars(formulas).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
            made.clear()
            products.clear()
            f = entry.build(ring, r)
            assert f.ring is ring, (name, p, n, r)
            assert not made, (name, p, n, r, made)
            assert bool(products) == (name in PRODUCT_FORMS), (name, p, n, r, products)


#: What a ring must have to run the constructors, as the ``formulas``
#: docstring lists it: attributes, constructors, and the element operations,
#: the products only in ``PRODUCT_FORMS``.
RING_ATTRIBUTES = ("p", "n", "field")
RING_CONSTRUCTORS = ("zero", "one", "constant", "variable", "univariate", "tensor", "train",
                     "elementary_symmetric")
ELEMENT_OPERATIONS = ("+", "-", "scale")
PRODUCTS = ("*", "**")


class RecordingRing:
    """A ring with the listed operations and no others.  Each constructor
    builds in the wrapped ``PolyRing`` and returns an ``Element`` of this
    ring, a ``ProductElement`` when ``products`` allows ``*`` and ``**``.
    ``_calls`` records every operation, by its name in the list."""

    __slots__ = (*RING_ATTRIBUTES, "_ring", "_element", "_calls")

    def __init__(self, ring, products):
        self.p, self.n, self.field, self._ring = ring.p, ring.n, ring.field, ring
        self._element = ProductElement if products else Element
        self._calls = []

    def _wrap(self, name, f):
        self._calls.append(name)
        return self._element(self, f)


def _recorded(name):
    def construct(ring, *args):
        return ring._wrap(name, getattr(ring._ring, name)(*args))
    return construct


for _name in RING_CONSTRUCTORS:
    setattr(RecordingRing, _name, _recorded(_name))


class Element:
    """An element of a ``RecordingRing``: ``+``, ``-`` and ``scale`` with ints
    and elements of the same ring, nothing else.  ``_value`` is the wrapped
    ``Polynomial``."""

    __slots__ = ("_ring", "_value")

    def __init__(self, ring, value):
        self._ring, self._value = ring, value

    def _apply(self, name, op, *operands):
        values = []
        for x in operands:
            if isinstance(x, Element):
                assert x._ring is self._ring, "operands of two rings"
                x = x._value
            values.append(x)
        return self._ring._wrap(name, op(*values))

    def __add__(self, other):
        return self._apply("+", operator.add, self, other)

    def __radd__(self, other):
        return self._apply("+", operator.add, other, self)

    def __sub__(self, other):
        return self._apply("-", operator.sub, self, other)

    def __rsub__(self, other):
        return self._apply("-", operator.sub, other, self)

    def scale(self, c):
        return self._apply("scale", Polynomial.scale, self, c)

    def __bool__(self):
        raise TypeError("truth value of a ring element")

    def __eq__(self, other):
        raise TypeError("comparison of ring elements")

    __hash__ = None


class ProductElement(Element):
    """An ``Element`` that also has ``*`` and ``**``."""

    __slots__ = ()

    def __mul__(self, other):
        return self._apply("*", operator.mul, self, other)

    def __rmul__(self, other):
        return self._apply("*", operator.mul, other, self)

    def __pow__(self, e):
        return self._apply("**", operator.pow, self, e)


#: Every public constructor of ``formulas``, with the one small ring (p, n)
#: it runs on in ``TestRecordingRing`` and its digit index, if it takes one.
CONSTRUCTOR_RINGS = {
    "max_general": (3, 3), "max_p2": (2, 4), "min_p2": (2, 4), "max_p3": (3, 3),
    "min_p3": (3, 3), "max_p5_n2": (5, 2), "max_p5_n3": (5, 3),
    "argmax_digit_general": (3, 4, 1), "argmax_p2": (2, 5, 1), "argmax_p2_selector": (2, 5, 1),
    "argmax_p3_n3": (3, 3), "carry": (5, 2), "argmax0_n2": (5, 2), "max_n2": (5, 2),
    "ismax_general": (3, 3), "nummax_digit_general": (3, 4, 1), "ismax_p2": (2, 4),
    "ismax_p3": (3, 3), "nummax_p2": (2, 5, 1), "ismax_2bit_p2": (2, 6),
}

#: The constructors printed as products.
PRODUCT_CONSTRUCTORS = {"max_p5_n2", "max_p5_n3", "argmax_p3_n3"}


class TestRecordingRing:
    """The constructors run on a ring that has only the operations the
    ``formulas`` docstring lists, build the polynomials they build in a
    ``PolyRing``, and return an element of the ring they were given."""

    def check_build(self, build, ring, products, *r):
        recording = RecordingRing(ring, products)
        f = build(recording, *r)
        assert type(f) is recording._element and f._ring is recording
        assert f._value == build(ring, *r)
        assert bool(set(PRODUCTS) & set(recording._calls)) == products, recording._calls

    def test_the_ring_has_the_docstring_list(self):
        listed = formulas.__doc__.split("given:")[1].split("in ``max5``")[0]
        assert re.findall(r"``([^`]+)``", listed) == [
            *RING_ATTRIBUTES, *RING_CONSTRUCTORS, *ELEMENT_OPERATIONS, *PRODUCTS]

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_builds(self, name):
        entry = CATALOG[name]
        for p, n, r in entry.verify_grid:
            ring = PolyRing(p, entry.spec_of(p, n, r).arity)
            self.check_build(entry.build, ring, name in PRODUCT_FORMS, r)

    def test_every_public_constructor_is_run(self):
        public = {name for name, value in vars(formulas).items()
                  if inspect.isfunction(value) and value.__module__ == formulas.__name__
                  and not name.startswith("_")
                  and next(iter(inspect.signature(value).parameters)) == "ring"}
        assert public == set(CONSTRUCTOR_RINGS)

    @pytest.mark.parametrize("name", sorted(CONSTRUCTOR_RINGS))
    def test_public_constructor(self, name):
        p, n, *r = CONSTRUCTOR_RINGS[name]
        self.check_build(getattr(formulas, name), PolyRing(p, n),
                         name in PRODUCT_CONSTRUCTORS, *r)

    def test_other_operations_raise(self):
        ring = PolyRing(3, 2)
        plain, products = RecordingRing(ring, False), RecordingRing(ring, True)
        x, y = plain.variable(0), products.variable(0)
        for attempt in (lambda: plain.monomial((1, 1)), lambda: plain.from_coeffs([0] * 9),
                        lambda: plain.size, lambda: plain.strides, lambda: x.ring,
                        lambda: x.coeffs, lambda: x.values(), lambda: x.compose([x, x]),
                        lambda: -x, lambda: x * x, lambda: 2 * x, lambda: x ** 2,
                        lambda: bool(x), lambda: x == x, lambda: x + y, lambda: y - x,
                        lambda: x + 0.5):
            with pytest.raises((AttributeError, TypeError, AssertionError)):
                attempt()
        assert (2 * y ** 2 * y - 1)._value == 2 * ring.variable(0) ** 3 - 1
        assert (1 - x + x.scale(2))._value == 1 + ring.variable(0)
