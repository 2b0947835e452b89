import math

import pytest
from hypothesis import given, strategies as st

from fpminpoly.ff import MAX_MODULUS, PrimeField, is_prime

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

primes_st = st.sampled_from(SMALL_PRIMES)


class TestConstruction:
    def test_small_primes_accepted(self):
        for p in SMALL_PRIMES:
            assert PrimeField(p).p == p

    @pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 100, 65536, 65537, 1 << 20])
    def test_non_primes_and_oversize_rejected(self, bad):
        with pytest.raises(ValueError):
            PrimeField(bad)

    def test_largest_supported_prime(self):
        assert PrimeField(65521).p == 65521
        assert MAX_MODULUS == 65536

    def test_modulus_must_be_int(self):
        with pytest.raises(TypeError):
            PrimeField(5.0)
        with pytest.raises(TypeError):
            PrimeField(True)

    def test_is_prime_agrees_with_trial_division(self):
        def slow(n):
            return n >= 2 and all(n % d for d in range(2, n))

        for n in range(200):
            assert is_prime(n) == slow(n)


class TestArithmetic:
    def test_add_examples(self):
        assert PrimeField(3).add(2, 2) == 1
        assert PrimeField(2).add(1, 1) == 0
        assert PrimeField(7).add(0, 5) == 5

    def test_mul_examples(self):
        assert PrimeField(5).mul(3, 4) == 2
        assert PrimeField(3).mul(2, 0) == 0
        assert PrimeField(7).mul(6, 6) == 1

    def test_sub_neg(self):
        F = PrimeField(5)
        assert F.sub(1, 3) == 3
        assert F.neg(2) == 3
        assert F.neg(0) == 0

    def test_inverse_examples(self):
        assert PrimeField(5).inverse(2) == 3
        assert PrimeField(3).inverse(2) == 2
        assert PrimeField(7).inverse(1) == 1

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            PrimeField(7).inverse(0)

    def test_inverse_is_total_on_units(self):
        for p in SMALL_PRIMES:
            F = PrimeField(p)
            for a in range(1, p):
                assert F.mul(a, F.inverse(a)) == 1

    def test_pow_matches_repeated_mul(self):
        F = PrimeField(7)
        for a in range(7):
            acc = 1
            for e in range(12):
                assert F.pow(a, e) == acc
                acc = F.mul(acc, a)

    def test_pow_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            PrimeField(5).pow(2, -1)

    def test_check_validates_range(self):
        F = PrimeField(3)
        assert F.check(2) == 2
        with pytest.raises(ValueError):
            F.check(3)
        with pytest.raises(ValueError):
            F.check(-1)
        with pytest.raises(ValueError):
            F.check(True)

    def test_element_normalizes(self):
        F = PrimeField(3)
        assert F.element(-1) == 2
        assert F.element(7) == 1


class TestDigits:
    def test_binary_digits_of_five(self):
        F = PrimeField(2)
        assert F.digit(5, 0) == 1
        assert F.digit(5, 1) == 0
        assert F.digit(5, 2) == 1

    def test_ternary_digit(self):
        assert PrimeField(3).digit(7, 1) == 2  # 7 = 21 base 3

    def test_digit_zero_beyond_range(self):
        for p in SMALL_PRIMES:
            F = PrimeField(p)
            for k in range(p**3):
                r = 3
                while p**r <= k:
                    r += 1
                assert F.digit(k, r) == 0

    def test_digit_of_huge_position_does_not_exponentiate(self):
        assert PrimeField(3).digit(7, 10**12) == 0
        assert PrimeField(3).digit(3**40, 40) == 1

    def test_digit_rejects_negative(self):
        F = PrimeField(3)
        with pytest.raises(ValueError):
            F.digit(-1, 0)
        with pytest.raises(ValueError):
            F.digit(1, -1)

    @given(primes_st, st.integers(min_value=0, max_value=10**6))
    def test_digits_reconstruct_the_integer(self, p, k):
        F = PrimeField(p)
        m = 1 if k == 0 else math.floor(math.log(k, p)) + 2
        assert sum(F.digit(k, r) * p**r for r in range(m)) == k


class TestInvolutionAndClassics:
    def test_involute_examples(self):
        F = PrimeField(3)
        assert F.involute(0) == 2
        assert F.involute(1) == 1
        assert PrimeField(5).involute(PrimeField(5).involute(4)) == 4

    @given(primes_st, st.data())
    def test_involution_is_an_involution(self, p, data):
        F = PrimeField(p)
        a = data.draw(st.integers(min_value=0, max_value=p - 1))
        assert F.involute(F.involute(a)) == a
        assert 0 <= F.involute(a) < p

    def test_fermat_little_theorem(self):
        for p in SMALL_PRIMES:
            F = PrimeField(p)
            for a in range(1, p):
                assert F.pow(a, p - 1) == 1

    def test_wilson_theorem(self):
        # (p-1)! = -1 mod p; also spot-check the largest supported prime.
        for p in (*SMALL_PRIMES, 17, 19, 23, 97, 65521):
            F = PrimeField(p)
            acc = 1
            for a in range(2, p):
                acc = F.mul(acc, a)
            assert acc == p - 1


def test_field_equality_and_hash():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert hash(PrimeField(5)) == hash(PrimeField(5))
    assert PrimeField(5) != 5
