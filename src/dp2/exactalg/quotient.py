"""Arithmetic in quotient rings k[t]/(d) for k = Q or F_p.

With d irreducible these are fields; inverses are computed by the extended
Euclidean algorithm.  The geometry only asks whether a form over such a field
is a square up to scalar, which needs no square test on field elements.
"""

from __future__ import annotations

from .poly import Poly, poly_xgcd


class QuotientElt:
    __slots__ = ("K", "v")

    def __init__(self, K: "QuotientField", v: Poly):
        self.K = K
        self.v = v % K.modulus if v.degree >= K.modulus.degree else v

    def _coerce(self, other):
        if isinstance(other, QuotientElt):
            return other
        if isinstance(other, int):
            return self.K.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuotientElt(self.K, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuotientElt(self.K, self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuotientElt(self.K, o.v - self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuotientElt(self.K, (self.v * o.v) % self.K.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return QuotientElt(self.K, -self.v)

    def inverse(self):
        g, u, _ = poly_xgcd(self.v, self.K.modulus)
        if g.degree != 0:
            raise ZeroDivisionError("non-invertible element (zero or zero divisor)")
        inv = self.K.base.one / g.lc
        return QuotientElt(self.K, (u.scale(inv)) % self.K.modulus)

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
        acc = self.K.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.v == o.v

    def __bool__(self):
        return not self.v.is_zero()

    def __hash__(self):
        return hash(("QuotientElt", tuple(repr(c) for c in self.v.c)))

    def __repr__(self):
        return f"[{self.v!r}]"


class QuotientField:
    """k[t]/(d) with d squarefree; a field when d is irreducible."""

    def __init__(self, modulus: Poly):
        if modulus.degree < 1:
            raise ValueError("modulus must be non-constant")
        self.base = modulus.field
        self.modulus = modulus.monic()
        self.zero = QuotientElt(self, Poly.zero(self.base))
        self.one = QuotientElt(self, Poly.one(self.base))
        self.gen = QuotientElt(self, Poly.x(self.base))
        self.char = self.base.char

    def from_int(self, n):
        return QuotientElt(self, Poly(self.base, [self.base.from_int(n)]))

    def from_base(self, a):
        return QuotientElt(self, Poly(self.base, [a]))

    @staticmethod
    def is_zero(a) -> bool:
        return a.v.is_zero()

    @property
    def degree(self):
        return self.modulus.degree

    def __eq__(self, other):
        return isinstance(other, QuotientField) and self.modulus == other.modulus and self.base == other.base

    def __hash__(self):
        return hash(("QuotientField", tuple(repr(c) for c in self.modulus.c)))

    def __repr__(self):
        return f"{self.base!r}[t]/({self.modulus!r})"
