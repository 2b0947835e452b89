"""Exact arithmetic in a prime field of small order.

Field elements are plain Python ints kept in the canonical range
{0, ..., p-1}; the ``PrimeField`` object carries the modulus and supplies
every operation, so values never drag a copy of the modulus around.
Objects that combine field values (polynomial rings, truth tables,
circuits) hold a ``PrimeField`` and refuse to mix two different moduli.

Comparison of field elements (as in "largest input") is always the integer
ordering of the canonical residues; addition and multiplication wrap mod p.
"""

from __future__ import annotations

from math import isqrt

#: Largest supported modulus.  Keeps p^n coefficient tables and (p-1)-fold
#: factorial products comfortably inside native int range.
MAX_MODULUS = 1 << 16


def is_prime(p: int) -> bool:
    """Deterministic trial-division primality check (fine below 2^16)."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0 or p % 3 == 0:
        return False
    d = 5
    while d <= isqrt(p):
        if p % d == 0 or p % (d + 2) == 0:
            return False
        d += 6
    return True


class PrimeField:
    """Arithmetic context for F_p.

    >>> F = PrimeField(5)
    >>> F.mul(3, 4)
    2
    >>> F.inverse(2)
    3
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError(f"modulus must be an int, got {type(p).__name__}")
        if p < 2 or p > MAX_MODULUS:
            raise ValueError(f"modulus must satisfy 2 <= p <= {MAX_MODULUS}, got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def element(self, value: int) -> int:
        """Reduce an arbitrary integer to its canonical residue."""
        return value % self.p

    def check(self, value: int) -> int:
        """Require an already-canonical residue; used at API boundaries."""
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"field element must be an int, got {value!r}")
        if not 0 <= value < self.p:
            raise ValueError(f"field element {value} out of range [0, {self.p})")
        return value

    def elements(self) -> range:
        return range(self.p)

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def pow(self, a: int, e: int) -> int:
        """a**e by square-and-multiply; e must be >= 0 (0**0 == 1)."""
        if e < 0:
            raise ValueError("negative exponent; use inverse() first")
        return pow(a, e, self.p)

    def inverse(self, a: int) -> int:
        """Multiplicative inverse via Fermat (a**(p-2))."""
        if a % self.p == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return pow(a, self.p - 2, self.p)

    def involute(self, a: int) -> int:
        """The order-reversing involution a -> p-1-a.

        Applying it to every input and to the output swaps max with min and
        the least maximizing index with the least minimizing one.
        """
        return (self.p - 1 - a) % self.p

    def digit(self, k: int, r: int) -> int:
        """The r-th digit of k's base-p expansion (0 once p**r exceeds k).

        Shifts k down one digit at a time, so p**r is never formed.
        """
        if k < 0:
            raise ValueError("digits are defined for nonnegative integers")
        if r < 0:
            raise ValueError("digit position must be nonnegative")
        while r and k:
            k //= self.p
            r -= 1
        return k % self.p
