"""Dense univariate polynomials over a field adapter, binary and ternary
homogeneous forms, subresultant GCD and Yun squarefree decomposition.

Univariate coefficients are stored ascending (c[i] is the coefficient of t^i).
Binary forms follow the opposite, classical convention: coefficient i belongs
to s^(d-i) t^i.  Ternary forms are sparse maps from exponent triples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd

from ..errors import WrongDegree, ZeroPolynomial
from .field import RationalField


class Poly:
    """Dense univariate polynomial over a field adapter."""

    __slots__ = ("field", "c")

    def __init__(self, field, coeffs):
        self.field = field
        c = list(coeffs)
        while c and field.is_zero(c[-1]):
            c.pop()
        self.c = c

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.from_int(n) for n in ints])

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [field.one])

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero, field.one])

    @property
    def degree(self) -> int:
        return len(self.c) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.c

    @property
    def lc(self):
        if not self.c:
            return self.field.zero
        return self.c[-1]

    def coeff(self, i):
        return self.c[i] if 0 <= i < len(self.c) else self.field.zero

    def __add__(self, other):
        n = max(len(self.c), len(other.c))
        return Poly(self.field, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.c), len(other.c))
        return Poly(self.field, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self):
        return Poly(self.field, [-a for a in self.c])

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.c or not other.c:
                return Poly(self.field, [])
            out = [self.field.zero] * (len(self.c) + len(other.c) - 1)
            for i, a in enumerate(self.c):
                if self.field.is_zero(a):
                    continue
                for j, b in enumerate(other.c):
                    out[i + j] = out[i + j] + a * b
            return Poly(self.field, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, k):
        return Poly(self.field, [a * k for a in self.c])

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        r = list(self.c)
        q = [F.zero] * max(0, len(r) - len(other.c) + 1)
        dlc = other.lc
        while len(r) >= len(other.c) and r:
            k = len(r) - len(other.c)
            t = r[-1] / dlc
            q[k] = t
            for i, b in enumerate(other.c):
                r[k + i] = r[k + i] - t * b
            while r and F.is_zero(r[-1]):
                r.pop()
        return Poly(F, q), Poly(F, r)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero():
            return self
        inv = self.field.one / self.lc
        return self.scale(inv)

    def derivative(self):
        return Poly(self.field, [self.c[i] * self.field.from_int(i) for i in range(1, len(self.c))])

    def evaluate(self, t):
        acc = self.field.zero
        for a in reversed(self.c):
            acc = acc * t + a
        return acc

    def __eq__(self, other):
        return isinstance(other, Poly) and self.c == other.c

    def __hash__(self):
        return hash(tuple(repr(a) for a in self.c))

    def __repr__(self):
        if not self.c:
            return "0"
        terms = []
        for i, a in enumerate(self.c):
            if self.field.is_zero(a):
                continue
            if i == 0:
                terms.append(f"{a}")
            elif i == 1:
                terms.append(f"({a})*t")
            else:
                terms.append(f"({a})*t^{i}")
        return " + ".join(terms)


# ---------------------------------------------------------------------------
# GCD and squarefree machinery


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b over Z."""
    r = list(a)
    d = len(a) - len(b)
    lb = b[-1]
    for _ in range(d + 1):
        if len(r) < len(b):
            r = [lb * x for x in r]
            continue
        k = len(r) - len(b)
        lr = r[-1]
        r = [lb * x for x in r[:-1]]
        for i, y in enumerate(b[:-1]):
            r[k + i] -= lr * y
        while r and r[-1] == 0:
            r.pop()
    return r


def _subresultant_gcd_int(a: list[int], b: list[int]) -> list[int]:
    """Primitive GCD of primitive integer polynomials via the subresultant PRS."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    g, h = 1, 1
    while True:
        d = len(a) - len(b)
        r = _prem(a, b)
        if not r:
            cont = 0
            for n in b:
                cont = igcd(cont, n)
            return [n // cont for n in b]
        if len(r) == 1:
            return [1]
        div = g * h**d
        a, b = b, [n // div for n in r]
        g = a[-1]
        if d > 0:
            h = g**d // h ** (d - 1)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic GCD.  Over Q, via the subresultant remainder sequence (no
    intermediate coefficient blowup beyond subresultant bounds); over other
    fields, by monic Euclid."""
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if isinstance(a.field, RationalField):
        g = _subresultant_gcd_int(content_primitive_ints(a.c)[0], content_primitive_ints(b.c)[0])
        return Poly.from_ints(a.field, g).monic()
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_xgcd(a: Poly, b: Poly):
    """Extended GCD over a field: returns (g, u, v) with u*a + v*b = g monic."""
    F = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(F), Poly.zero(F)
    t0, t1 = Poly.zero(F), Poly.one(F)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = F.one / r0.lc
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


def squarefree_factor(a: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: monic pairwise-coprime squarefree factors with
    multiplicities.  Requires characteristic 0 or multiplicities < char."""
    if a.is_zero():
        raise ZeroPolynomial("squarefree decomposition of 0")
    a = a.monic()
    if a.degree == 0:
        return []
    out = []
    da = a.derivative()
    g = poly_gcd(a, da)
    b = a // g
    c = da // g
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        p = poly_gcd(b, d)
        if p.degree > 0:
            out.append((p.monic(), i))
        b = b // p
        c = d // p
        d = c - b.derivative()
        i += 1
    return out


# ---------------------------------------------------------------------------
# Binary forms


class BinForm:
    """Homogeneous binary form; coefficient i multiplies s^(d-i) t^i."""

    __slots__ = ("field", "degree", "c")

    def __init__(self, field, degree: int, coeffs):
        c = list(coeffs)
        if len(c) != degree + 1:
            raise WrongDegree(f"degree {degree} needs {degree + 1} coefficients")
        self.field = field
        self.degree = degree
        self.c = c

    @classmethod
    def from_ints(cls, field, degree, ints):
        return cls(field, degree, [field.from_int(n) for n in ints])

    def is_zero(self) -> bool:
        return all(self.field.is_zero(a) for a in self.c)

    def evaluate(self, s, t):
        acc = self.field.zero
        for i, a in enumerate(self.c):
            term = a
            for _ in range(self.degree - i):
                term = term * s
            for _ in range(i):
                term = term * t
            acc = acc + term
        return acc

    def to_poly(self) -> Poly:
        """Dehomogenize t = 1; coefficient of s^k is c[d-k]."""
        return Poly(self.field, list(reversed(self.c)))

    @classmethod
    def from_poly(cls, p: Poly, degree: int):
        c = [p.coeff(degree - i) for i in range(degree + 1)]
        return cls(p.field, degree, c)

    def deriv_s(self) -> "BinForm":
        if self.degree == 0:
            return BinForm(self.field, 0, [self.field.zero])
        c = [self.c[i] * self.field.from_int(self.degree - i) for i in range(self.degree)]
        return BinForm(self.field, self.degree - 1, c)

    def deriv_t(self) -> "BinForm":
        if self.degree == 0:
            return BinForm(self.field, 0, [self.field.zero])
        c = [self.c[i + 1] * self.field.from_int(i + 1) for i in range(self.degree)]
        return BinForm(self.field, self.degree - 1, c)

    def substitute(self, m):
        """Pullback along (s,t) -> (m00 s + m01 t, m10 s + m11 t)."""
        F = self.field
        a, b = F.from_int(m[0][0]) if isinstance(m[0][0], int) else m[0][0], m[0][1]
        b = F.from_int(b) if isinstance(b, int) else b
        cc, d = m[1][0], m[1][1]
        cc = F.from_int(cc) if isinstance(cc, int) else cc
        d = F.from_int(d) if isinstance(d, int) else d
        # u = a*s + b*t, v = cc*s + d*t as binary linear forms
        lin_u = [a, b]
        lin_v = [cc, d]
        # accumulate sum c[i] * u^(d-i) * v^i as binary form of degree d
        n = self.degree
        pow_u = [[F.one]]
        for _ in range(n):
            pow_u.append(_bin_mul(F, pow_u[-1], lin_u))
        pow_v = [[F.one]]
        for _ in range(n):
            pow_v.append(_bin_mul(F, pow_v[-1], lin_v))
        out = [F.zero] * (n + 1)
        for i, coeff in enumerate(self.c):
            if F.is_zero(coeff):
                continue
            term = _bin_mul(F, pow_u[n - i], pow_v[i])
            for k, val in enumerate(term):
                out[k] = out[k] + coeff * val
        return BinForm(F, n, out)

    def scale(self, k):
        return BinForm(self.field, self.degree, [a * k for a in self.c])

    def __add__(self, other):
        if self.degree != other.degree:
            raise WrongDegree("degree mismatch")
        return BinForm(self.field, self.degree, [x + y for x, y in zip(self.c, other.c)])

    def __mul__(self, other):
        c = _bin_mul(self.field, self.c, other.c)
        return BinForm(self.field, self.degree + other.degree, c)

    def __eq__(self, other):
        return isinstance(other, BinForm) and self.degree == other.degree and self.c == other.c

    def __repr__(self):
        return f"BinForm(deg={self.degree}, {self.c})"


def _bin_mul(F, a, b):
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def disc_binary_quartic(q: BinForm):
    """Discriminant of a binary quartic via the classical I, J invariants."""
    if q.degree != 4:
        raise WrongDegree("binary quartic expected")
    a, b, c, d, e = q.c
    F = q.field
    twelve, three, two = F.from_int(12), F.from_int(3), F.from_int(2)
    I = twelve * a * e - three * b * d + c * c
    J = (
        F.from_int(72) * a * c * e
        + F.from_int(9) * b * c * d
        - F.from_int(27) * a * d * d
        - F.from_int(27) * e * b * b
        - two * c * c * c
    )
    return (F.from_int(4) * I * I * I - J * J) / F.from_int(27)


def square_conditions(a0, a1, a2, a3, a4):
    """(c1, c2) with c1 = c2 = 0 exactly when the quartic sum a_i s^(4-i) t^i
    with a4 != 0 is c * h^2 over the algebraic closure (characteristic != 2).
    The coefficients of t^4, s t^3, s^2 t^2 fix c = a4 and h = t^2 + b s t
    + e s^2 with b = a3 / (2 a4), e = (4 a4 a2 - a3^2) / (8 a4^2); c1 and c2
    are those of s^3 t and s^4 in q - a4 h^2, times 8 a4^2 and 64 a4^3.
    Uses only +, - and *, so the a_i may be field elements, `Poly`s or
    sympy `Poly`s."""
    c1 = 8 * a4 * a4 * a1 - 4 * a4 * a2 * a3 + a3 * a3 * a3
    h = 4 * a4 * a2 - a3 * a3
    return c1, 64 * a4 * a4 * a4 * a0 - h * h


def is_square_binform(q: BinForm) -> bool:
    """Whether the binary quartic q is c * h^2 with c a scalar and h a
    binary form over the algebraic closure (characteristic != 2).  With
    a4 = 0, s divides q and then h, so q = s^2 (a0 s^2 + a1 s t + a2 t^2)
    with a3 = 0 and the quadratic a square."""
    if q.degree != 4:
        raise WrongDegree("binary quartic expected")
    F = q.field
    a0, a1, a2, a3, a4 = q.c
    if F.is_zero(a4):
        return F.is_zero(a3) and F.is_zero(a1 * a1 - 4 * a0 * a2)
    return all(F.is_zero(c) for c in square_conditions(a0, a1, a2, a3, a4))


def content_primitive_ints(fracs: list[Fraction]) -> tuple[list[int], Fraction]:
    """Clear denominators and content: returns (ints, scale) with
    fracs = scale * ints and ints primitive with positive leading convention
    left to the caller."""
    den = 1
    for a in fracs:
        den = den * a.denominator // igcd(den, a.denominator)
    ints = [int(a * den) for a in fracs]
    g = 0
    for n in ints:
        g = igcd(g, n)
    if g == 0:
        return ints, Fraction(1)
    ints = [n // g for n in ints]
    return ints, Fraction(g, den)


# ---------------------------------------------------------------------------
# Ternary forms


class TernForm:
    """Sparse homogeneous form in (x, y, z): map (i, j, k) -> coefficient."""

    __slots__ = ("field", "degree", "c")

    def __init__(self, field, degree: int, coeffs: dict):
        self.field = field
        self.degree = degree
        c = {}
        for key, val in coeffs.items():
            i, j, k = key
            if i + j + k != degree:
                raise WrongDegree(f"exponents {key} do not sum to {degree}")
            if not field.is_zero(val):
                c[(i, j, k)] = val
        self.c = c

    @classmethod
    def from_ints(cls, field, degree, entries):
        return cls(field, degree, {k: field.from_int(v) for k, v in entries.items()})

    @classmethod
    def zero(cls, field, degree):
        return cls(field, degree, {})

    def is_zero(self) -> bool:
        return not self.c

    def coeff(self, i, j, k):
        return self.c.get((i, j, k), self.field.zero)

    def evaluate(self, x, y, z):
        F = self.field
        acc = F.zero
        for (i, j, k), val in self.c.items():
            term = val
            for _ in range(i):
                term = term * x
            for _ in range(j):
                term = term * y
            for _ in range(k):
                term = term * z
            acc = acc + term
        return acc

    def __add__(self, other):
        if self.degree != other.degree:
            raise WrongDegree("degree mismatch")
        out = dict(self.c)
        for key, val in other.c.items():
            out[key] = out.get(key, self.field.zero) + val
        return TernForm(self.field, self.degree, out)

    def __mul__(self, other):
        out = {}
        F = self.field
        for (i1, j1, k1), v1 in self.c.items():
            for (i2, j2, k2), v2 in other.c.items():
                key = (i1 + i2, j1 + j2, k1 + k2)
                out[key] = out.get(key, F.zero) + v1 * v2
        return TernForm(F, self.degree + other.degree, out)

    def scale(self, k):
        return TernForm(self.field, self.degree, {key: v * k for key, v in self.c.items()})

    def deriv(self, var: int) -> "TernForm":
        out = {}
        for (i, j, k), val in self.c.items():
            e = (i, j, k)[var]
            if e == 0:
                continue
            key = list((i, j, k))
            key[var] = e - 1
            out[tuple(key)] = val * self.field.from_int(e)
        return TernForm(self.field, max(self.degree - 1, 0), out)

    def restrict_line(self, p1, p2) -> BinForm:
        """Binary form B(s*p1 + t*p2) of the same degree; p1, p2 are
        coordinate triples over the coefficient field (or ints)."""
        F = self.field

        def conv(v):
            return [F.from_int(a) if isinstance(a, int) else a for a in v]

        p1, p2 = conv(p1), conv(p2)
        n = self.degree
        # linear binary forms for each coordinate
        lins = [[p1[m], p2[m]] for m in range(3)]
        pows = []
        for m in range(3):
            pw = [[F.one]]
            for _ in range(n):
                pw.append(_bin_mul(F, pw[-1], lins[m]))
            pows.append(pw)
        out = [F.zero] * (n + 1)
        for (i, j, k), val in self.c.items():
            term = _bin_mul(F, _bin_mul(F, pows[0][i], pows[1][j]), pows[2][k])
            for idx, v in enumerate(term):
                out[idx] = out[idx] + val * v
        return BinForm(F, n, out)

    def map_coeffs(self, fn, field=None):
        field = field or self.field
        return TernForm(field, self.degree, {k: fn(v) for k, v in self.c.items()})

    def __eq__(self, other):
        return (
            isinstance(other, TernForm)
            and self.degree == other.degree
            and self.c == other.c
        )

    def __repr__(self):
        return f"TernForm(deg={self.degree}, {self.c})"
