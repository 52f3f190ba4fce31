"""Coefficient fields used throughout: Q (as fractions.Fraction), prime fields
F_p, and field adapters so polynomial code can run over either.

Both adapters expose exactly `zero`, `one`, `char`, `from_int` and
`is_zero`.  Elements themselves carry the arithmetic through operator
overloading.
"""

from __future__ import annotations

from fractions import Fraction


class RationalField:
    """Adapter for exact rational arithmetic via fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)
    char = 0

    @staticmethod
    def from_int(n):
        return Fraction(n)

    @staticmethod
    def is_zero(a) -> bool:
        return a == 0


QQ = RationalField()


# Miller-Rabin with the prime bases up to 37 is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017))
PRIME_TEST_BOUND = 318665857834031151167461
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError for n >= PRIME_TEST_BOUND."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"{n} is not below PRIME_TEST_BOUND = {PRIME_TEST_BOUND}")
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeFieldElt:
    """Residue in F_p with p an odd prime."""

    __slots__ = ("p", "r")

    def __init__(self, p: int, r: int):
        self.p = p
        self.r = r % p

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElt):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other
        if isinstance(other, int):
            return PrimeFieldElt(self.p, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return PrimeFieldElt(self.p, self.r + o.r)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return PrimeFieldElt(self.p, self.r - o.r)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return PrimeFieldElt(self.p, o.r - self.r)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return PrimeFieldElt(self.p, self.r * o.r)

    __rmul__ = __mul__

    def __neg__(self):
        return PrimeFieldElt(self.p, -self.r)

    def inverse(self):
        if self.r == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return PrimeFieldElt(self.p, pow(self.r, -1, self.p))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return PrimeFieldElt(self.p, pow(self.r, n, self.p))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.r == other % self.p
        return isinstance(other, PrimeFieldElt) and self.p == other.p and self.r == other.r

    def __hash__(self):
        return hash((self.p, self.r))

    def __bool__(self):
        return self.r != 0

    def __repr__(self):
        return f"{self.r} (mod {self.p})"


class PrimeField:
    """Adapter for F_p, p an odd prime."""

    def __init__(self, p: int):
        if p == 2 or p < 2:
            raise ValueError("p must be an odd prime")
        self.p = p
        self.zero = PrimeFieldElt(p, 0)
        self.one = PrimeFieldElt(p, 1)
        self.char = p

    def from_int(self, n):
        if isinstance(n, Fraction):
            return PrimeFieldElt(self.p, n.numerator) / PrimeFieldElt(self.p, n.denominator)
        return PrimeFieldElt(self.p, n)

    @staticmethod
    def is_zero(a) -> bool:
        return a.r == 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"
