import itertools
import random
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from fpminpoly.ff import PrimeField
from fpminpoly.oracle import point_at
from fpminpoly.polyring import (Polynomial, PolyRing, RingMismatchError,
                                SizeGuardError, bounded_power, format_terms)


def random_poly(ring, rng):
    return ring.from_coeffs([rng.randrange(ring.p) for _ in range(ring.size)])


@st.composite
def ring_and_polys(draw, count=2):
    p, n = draw(st.sampled_from([(2, 3), (3, 2), (5, 1), (2, 5), (3, 3)]))
    ring = PolyRing(p, n)
    polys = [ring.from_coeffs(draw(st.lists(
        st.integers(0, p - 1), min_size=ring.size, max_size=ring.size)))
        for _ in range(count)]
    return ring, polys


class TestConstructors:
    def test_variable_evaluates_to_itself(self):
        ring = PolyRing(2, 1)
        assert ring.variable(0).eval((1,)) == 1
        assert ring.variable(0).eval((0,)) == 0

    def test_constant_is_constant_everywhere(self):
        ring = PolyRing(3, 2)
        c = ring.constant(2)
        assert set(c.values()) == {2}

    def test_zero_is_additive_identity(self):
        rng = random.Random(1)
        ring = PolyRing(3, 2)
        for _ in range(5):
            q = random_poly(ring, rng)
            assert ring.zero() + q == q

    def test_variable_index_out_of_range(self):
        ring = PolyRing(3, 2)
        with pytest.raises(ValueError):
            ring.variable(2)

    def test_from_coeffs_validates(self):
        ring = PolyRing(3, 1)
        with pytest.raises(ValueError):
            ring.from_coeffs([0, 1])  # wrong length
        with pytest.raises(ValueError):
            ring.from_coeffs([0, 1, 3])  # out of range
        with pytest.raises(ValueError, match=r"field element 3 out of range \[0, 3\)"):
            ring.from_coeffs(b"\0\1\3")
        with pytest.raises(ValueError, match="must be an int, got True"):
            ring.from_coeffs([0, True, 1])
        assert ring.from_coeffs(b"\0\1\2") == ring.from_coeffs((0, 1, 2))
        assert PolyRing(131, 1).from_coeffs(bytes(131)).coeffs == (0,) * 131

    def test_public_constructor_validates(self):
        # A table that is not canonical is refused, naming the entry, before
        # it can be stored (at p = 2 as a word of bits).
        cases = [(PolyRing(3, 1), [5, 0, 0], r"field element 5 out of range \[0, 3\)"),
                 (PolyRing(2, 1), [2, 0], r"field element 2 out of range \[0, 2\)"),
                 (PolyRing(3, 1), [-1, 0, 0], r"field element -1 out of range \[0, 3\)"),
                 (PolyRing(2, 2), b"\0\1\0\x30", r"field element 48 out of range \[0, 2\)"),
                 (PolyRing(2, 1), [0, True], "must be an int, got True"),
                 (PolyRing(2, 1), [0, 1, 0], "length does not match the ring")]
        for ring, coeffs, message in cases:
            with pytest.raises(ValueError, match=message):
                Polynomial(ring, coeffs)
        for p, n in ((2, 3), (3, 2), (131, 1)):
            ring = PolyRing(p, n)
            table = [(7 * i + 3) % p for i in range(ring.size)]
            f = Polynomial(ring, table)
            assert f == ring.from_coeffs(table) == Polynomial(ring, iter(table))
            assert list(f.coeffs) == table and list(f.values()) == list(
                ring.from_coeffs(table).values())

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            PolyRing(2, 25)  # 2^25 > 2^24 default cap
        assert PolyRing(2, 25, max_table_size=1 << 25).size == 1 << 25
        assert PolyRing(2, 25, max_table_size=None).size == 1 << 25

    def test_size_guard_stops_before_exponentiating(self):
        with pytest.raises(SizeGuardError, match=r"3\^1000000000000 exceeds"):
            PolyRing(3, 10**12)
        assert bounded_power(3, 4, 81) == 81
        assert bounded_power(3, 4, 80) is None
        assert bounded_power(2, 0, 1) == 1
        assert bounded_power(2, 0, 0) is None
        assert bounded_power(2, 10**12, 1 << 24) is None

    def test_ring_needs_positive_arity(self):
        with pytest.raises(ValueError):
            PolyRing(3, 0)

    @pytest.mark.parametrize("p", [PrimeField(3), 3.0, True])
    def test_ring_modulus_is_an_int(self, p):
        with pytest.raises(TypeError, match="modulus must be an int"):
            PolyRing(p, 2)


class TestAddSubScale:
    def test_char2_doubling_vanishes(self):
        ring = PolyRing(2, 1)
        x = ring.variable(0)
        assert x + x == ring.zero()

    def test_scale_example(self):
        ring = PolyRing(3, 1)
        f = ring.variable(0).scale(2)
        assert f.eval((2,)) == 1  # 2*2 = 4 = 1 mod 3

    def test_f_minus_f_is_zero(self):
        rng = random.Random(2)
        ring = PolyRing(5, 2)
        for _ in range(5):
            f = random_poly(ring, rng)
            assert f - f == ring.zero()

    def test_int_coercion(self):
        ring = PolyRing(5, 1)
        x = ring.variable(0)
        assert (1 + x) - 1 == x
        assert 2 * x == x.scale(2)
        assert (x * 3).eval((2,)) == 1

    def test_ring_mismatch_is_hard_error(self):
        a = PolyRing(3, 2).one()
        b = PolyRing(5, 2).one()
        c = PolyRing(3, 3).one()
        for other in (b, c):
            with pytest.raises(RingMismatchError):
                _ = a + other
            with pytest.raises(RingMismatchError):
                _ = a * other


class TestMul:
    def test_idempotent_variable_char2(self):
        ring = PolyRing(2, 1)
        x = ring.variable(0)
        assert x * x == x

    def test_delta_product_identity_p5(self):
        # -(x - t + 1)(x - t + 2)(x - t + 3)(x - t + 4) equals 1 - (x - t)^4
        # as coefficient tables; cross-checked pointwise at all 5 points.
        ring = PolyRing(5, 1)
        x = ring.variable(0)
        t = 3
        prod = ring.one()
        for i in range(1, 5):
            prod = prod * (x - t + i)
        lhs = -prod
        rhs = 1 - (x - t) ** 4
        assert lhs == rhs
        for a in range(5):
            expected = 1 if a == t else 0
            assert lhs.eval((a,)) == expected
            assert rhs.eval((a,)) == expected

    def test_one_is_multiplicative_identity(self):
        rng = random.Random(3)
        ring = PolyRing(3, 3)
        for _ in range(5):
            f = random_poly(ring, rng)
            assert f * ring.one() == f

    def test_pow_reduces_to_canonical(self):
        # x^p has the same canonical table as x.
        for p in (2, 3, 5):
            ring = PolyRing(p, 2)
            x = ring.variable(1)
            assert x**p == x
            assert x ** (2 * p - 1) == x**p  # both collapse consistently

    def test_pow_zero_is_one(self):
        ring = PolyRing(3, 2)
        assert ring.variable(0) ** 0 == ring.one()

    @given(ring_and_polys(count=3))
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, data):
        ring, (f, g, h) = data[0], data[1]
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @given(ring_and_polys(count=2))
    @settings(max_examples=25, deadline=None)
    def test_mul_agrees_with_pointwise_products(self, data):
        ring, (f, g) = data[0], data[1]
        prod = f * g
        fv, gv, pv = f.values(), g.values(), prod.values()
        assert all((a * b) % ring.p == c for a, b, c in zip(fv, gv, pv))


class TestEval:
    def test_delta_polynomial_values(self):
        ring = PolyRing(5, 1)
        f = 1 - (ring.variable(0) - 2) ** 4
        assert f.eval((2,)) == 1
        assert f.eval((3,)) == 0

    def test_e2_at_all_ones_mod3(self):
        ring = PolyRing(3, 3)
        assert ring.elementary_symmetric(2).eval((1, 1, 1)) == 0

    def test_eval_validates_point(self):
        ring = PolyRing(3, 2)
        f = ring.variable(0)
        with pytest.raises(ValueError):
            f.eval((1,))
        with pytest.raises(ValueError):
            f.eval((1, 3))

    def test_values_matches_eval_everywhere(self):
        rng = random.Random(4)
        for p, n in ((2, 4), (3, 2), (5, 2)):
            ring = PolyRing(p, n)
            f = random_poly(ring, rng)
            vals = f.values()
            for i in range(ring.size):
                assert vals[i] == f.eval(point_at(p, n, i))


class TestCompose:
    def test_substituting_same_variable_char2(self):
        ring = PolyRing(2, 2)
        f = ring.variable(0) * ring.variable(1)
        x0 = ring.variable(0)
        assert f.compose([x0, x0]) == x0

    def test_identity_substitution(self):
        rng = random.Random(5)
        ring = PolyRing(3, 2)
        idvars = [ring.variable(i) for i in range(2)]
        for _ in range(5):
            f = random_poly(ring, rng)
            assert f.compose(idvars) == f

    def test_compose_commutes_with_eval(self):
        rng = random.Random(6)
        inner_ring = PolyRing(3, 2)
        outer_ring = PolyRing(3, 2)
        f = random_poly(outer_ring, rng)
        subs = [random_poly(inner_ring, rng) for _ in range(2)]
        composed = f.compose(subs)
        for i in range(inner_ring.size):
            a = point_at(3, 2, i)
            assert composed.eval(a) == f.eval(tuple(s.eval(a) for s in subs))

    @pytest.mark.parametrize("p,n,m", [(2, 10, 4), (3, 6, 3), (5, 4, 2), (131, 2, 1)])
    def test_first_variables_keep_the_table_in_the_low_slice(self, p, n, m):
        # x_i -> x_i for i < m reads f in a ring of more variables: indices
        # below p^m keep their meaning, so the table is f's padded with zeros.
        small, ring = PolyRing(p, m), PolyRing(p, n)
        f = random_poly(small, random.Random(f"{p}/{n}/{m}"))
        g = f.compose([ring.variable(i) for i in range(m)])
        assert list(g.coeffs) == list(f.coeffs) + [0] * (ring.size - small.size)

    def test_compose_ring_checks(self):
        f = PolyRing(3, 2).one()
        with pytest.raises(ValueError):
            f.compose([PolyRing(3, 2).one()])  # wrong arity
        with pytest.raises(RingMismatchError):
            f.compose([PolyRing(5, 2).one(), PolyRing(5, 2).one()])
        with pytest.raises(RingMismatchError):
            f.compose([PolyRing(3, 2).one(), PolyRing(3, 3).one()])


class TestElementarySymmetric:
    def test_e1_example_mod3(self):
        ring = PolyRing(3, 2)
        assert ring.elementary_symmetric(1).eval((1, 2)) == 0

    def test_generating_identity(self):
        # sum_i e_i equals prod (1 + x_i), as coefficients and at all points.
        ring = PolyRing(3, 3)
        total = ring.zero()
        for i in range(4):
            total = total + ring.elementary_symmetric(i)
        prod = ring.one()
        for i in range(3):
            prod = prod * (1 + ring.variable(i))
        assert total == prod
        assert total.values() == prod.values()

    def test_top_term_at_all_ones(self):
        ring = PolyRing(5, 3)
        assert ring.elementary_symmetric(3).eval((1, 1, 1)) == 1

    def test_e0_is_one(self):
        ring = PolyRing(3, 2)
        assert ring.elementary_symmetric(0) == ring.one()

    @pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5) for n in (1, 2, 3, 4)]
                             + [(131, 1), (131, 2)])
    def test_matches_the_sum_over_subsets(self, p, n):
        # Every i from e_0 to e_n, against the sum over the i-subsets S of
        # prod_{j in S} x_j: as coefficients, and as values at every point.
        ring = PolyRing(p, n)
        points = [point_at(p, n, k) for k in range(ring.size)]
        for i in range(n + 1):
            subsets = list(itertools.combinations(range(n), i))
            coeffs = [0] * ring.size
            for subset in subsets:
                coeffs[sum(p ** j for j in subset)] = 1
            values = [sum(prod(x[j] for j in subset) for subset in subsets) % p
                      for x in points]
            e = ring.elementary_symmetric(i)
            assert e == ring.from_coeffs(coeffs), (p, n, i)
            assert list(e.values()) == values, (p, n, i)

    def test_out_of_range_rejected(self):
        ring = PolyRing(3, 2)
        with pytest.raises(ValueError):
            ring.elementary_symmetric(3)
        with pytest.raises(ValueError):
            ring.elementary_symmetric(-1)


class TestDegreesAndEquality:
    def test_delta_degree(self):
        ring = PolyRing(5, 1)
        f = 1 - (ring.variable(0) - 3) ** 4
        assert f.max_degree_per_variable() == (4,)
        assert f.total_degree() == 4

    def test_zero_polynomial_degree_convention(self):
        ring = PolyRing(3, 2)
        assert ring.zero().max_degree_per_variable() == (0, 0)
        assert ring.zero().total_degree() == 0

    def test_is_minimal_form_holds_for_all_results(self):
        rng = random.Random(7)
        ring = PolyRing(3, 2)
        for _ in range(10):
            f, g = random_poly(ring, rng), random_poly(ring, rng)
            assert (f * g).is_minimal_form()
            assert (f + g).is_minimal_form()

    def test_equals_ignores_added_zero(self):
        rng = random.Random(8)
        ring = PolyRing(5, 2)
        f = random_poly(ring, rng)
        assert f == f + ring.zero()

    def test_distinct_deltas_differ(self):
        ring = PolyRing(3, 1)
        d0 = 1 - ring.variable(0) ** 2
        d1 = 1 - (ring.variable(0) - 1) ** 2
        assert d0 != d1

    def test_hashable(self):
        ring = PolyRing(3, 1)
        assert len({ring.one(), ring.one(), ring.zero()}) == 2


class TestSerialization:
    def test_json_round_trip_bit_exact(self):
        rng = random.Random(9)
        for p, n in ((2, 5), (3, 3), (7, 2)):
            ring = PolyRing(p, n)
            f = random_poly(ring, rng)
            text = f.to_json()
            g = Polynomial.from_json(text)
            assert g == f
            assert g.to_json() == text

    def test_from_dict_validates(self):
        with pytest.raises(ValueError):
            Polynomial.from_dict({"p": 3, "n": 1})
        with pytest.raises(ValueError):
            Polynomial.from_dict({"p": 3, "n": 1, "coeffs": [0, 1, 3]})

    def test_format_terms_graded_lex(self):
        ring = PolyRing(3, 2)
        x0, x1 = ring.variable(0), ring.variable(1)
        f = 2 * x0**2 * x1 + x1 + x0 + 1
        assert format_terms(f) == "1 + x0 + x1 + 2*x0^2*x1"
        assert format_terms(ring.zero()) == "0"


class TestHelpers:
    def test_univariate_and_monomial(self):
        ring = PolyRing(5, 2)
        f = ring.univariate(1, [1, 0, 3])
        assert f == 1 + 3 * ring.variable(1) ** 2
        m = ring.monomial((2, 1), 4)
        assert m == 4 * ring.variable(0) ** 2 * ring.variable(1)
