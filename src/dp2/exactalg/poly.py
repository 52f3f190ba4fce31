"""Dense univariate polynomials over a field adapter, binary and ternary
homogeneous forms and Musser squarefree decomposition; on ints over Q or mod
p, row reduction and univariate gcd (GCDHEU over Q), division and radical;
the subresultant PRS over Z[v], as lists of int lists.

Univariate coefficients are stored ascending (c[i] is the coefficient of t^i).
Binary forms follow the opposite, classical convention: coefficient i belongs
to s^(d-i) t^i.  Ternary forms are sparse maps from exponent triples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from math import gcd as igcd, isqrt, lcm

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


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic GCD.  Over Q, by `_gcd_ints` on the primitive int parts; over
    other fields, by monic Euclid."""
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if isinstance(a.field, RationalField):
        g = _gcd_ints(content_primitive_ints(a.c)[0], content_primitive_ints(b.c)[0])
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
    """Musser's algorithm: monic pairwise-coprime squarefree factors with
    their multiplicities in ascending order, in characteristic 0 or over a
    finite field.  With a = prod f_j^(e_j) and p the characteristic,
    c = gcd(a, a') holds f_j^(e_j - 1) if p does not divide e_j and f_j^(e_j)
    if it does; w = a / c holds the former f_j once.  Step i peels those
    with e_j = i off w and one power of each off c.  What is left of c is a
    polynomial in t^p, whose p-th root is decomposed in turn."""
    if a.is_zero():
        raise ZeroPolynomial("squarefree decomposition of 0")
    a = a.monic()
    c = poly_gcd(a, a.derivative())
    w = a // c
    out = []
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        if w.degree > y.degree:
            out.append((w // y, i))
        w, c = y, c // y
        i += 1
    if c.degree > 0:
        p = a.field.char
        root = Poly(a.field, [_pth_root(v, p) for v in c.c[::p]])
        out += [(f, p * e) for f, e in squarefree_factor(root)]
    return sorted(out, key=lambda fe: fe[1])


def _pth_root(a, p: int):
    """The b with b^p = a in a finite field of characteristic p: the orbit
    of a under a -> a^p returns to a, and b is the element before it."""
    b = a
    while (c := b**p) != a:
        b = c
    return b


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
        """Horner's rule, homogeneous: after c_i the sum is
        c_0 s^i + c_1 s^(i-1) t + ... + c_i t^i."""
        acc, tk = self.c[0], self.field.one
        for a in self.c[1:]:
            tk = tk * t
            acc = acc * s + a * tk
        return acc

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
        """Pullback along (s,t) -> (m00 s + m01 t, m10 s + m11 t); the entries
        of m are ints or elements of the coefficient field."""
        n = self.degree
        terms = [((n - i, i), a) for i, a in enumerate(self.c) if not self.field.is_zero(a)]
        cols = (m[0][0], m[1][0]), (m[0][1], m[1][1])
        return BinForm(self.field, n, _restrict(self.field, terms, n, *cols))

    def scale(self, k):
        return BinForm(self.field, self.degree, [a * k for a in self.c])

    def __add__(self, other):
        if self.degree != other.degree:
            raise WrongDegree("degree mismatch")
        return BinForm(self.field, self.degree, [x + y for x, y in zip(self.c, other.c)])

    def __mul__(self, other):
        c = _bin_mul(self.field.zero, self.c, other.c)
        return BinForm(self.field, self.degree + other.degree, c)

    def __eq__(self, other):
        return isinstance(other, BinForm) and self.degree == other.degree and self.c == other.c

    def __repr__(self):
        return f"BinForm(deg={self.degree}, {self.c})"


def _bin_mul(zero, a, b):
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _tern_mul(a: dict, b: dict, zero=0) -> dict:
    """The product of two ternary forms given as maps from exponent triples."""
    out = {}
    for (i, j, k), x in a.items():
        for (i2, j2, k2), y in b.items():
            e = (i + i2, j + j2, k + k2)
            out[e] = out.get(e, zero) + x * y
    return out


def _expand_linear(terms, lins, n, zero):
    """Coefficients [out_0, ..., out_n] (out_i at s^(n-i) t^i) of the sum of
    c * prod_m (x_m s + y_m t)^(e_m) over the terms (e, c), with
    lins[m] = (x_m, y_m) and every |e| = n.  Builds a power table of each
    linear form and uses only + and *, so the entries may be ints or the
    elements of any commutative ring."""
    top = [max((e[m] for e, _ in terms), default=0) for m in range(len(lins))]
    pows = []
    for lin, k in zip(lins, top):
        pw = [None, list(lin)]
        for _ in range(k - 1):
            pw.append(_bin_mul(zero, pw[-1], lin))
        pows.append(pw)
    out = [zero] * (n + 1)
    for e, c in terms:
        term = [c]
        for pw, k in zip(pows, e):
            if k:
                term = _bin_mul(zero, term, pw[k])
        for i, v in enumerate(term):
            out[i] = out[i] + v
    return out


def _restrict(F, terms, n, p1, p2) -> list:
    """`_expand_linear` of the terms (e, c) at the linear forms
    p1[m] s + p2[m] t, as n + 1 elements of F, run on F's own elements with
    ints in p1, p2 mapped in by `from_int`."""

    def conv(a):
        return F.from_int(a) if isinstance(a, int) else a

    return _expand_linear(terms, [(conv(a), conv(b)) for a, b in zip(p1, p2)], n, F.zero)


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
    The a_i, c1 and c2 are polynomials, int lists (`_sum_of_products`);
    `is_square_quartic` evaluates the same c1, c2 on scalars."""
    h = _sum_of_products((4, a4, a2), (-1, a3, a3))
    c1 = _sum_of_products((8, a4, a4, a1), (-4, a4, a2, a3), (1, a3, a3, a3))
    return c1, _sum_of_products((64, a4, a4, a4, a0), (-1, h, h))


def is_square_binform(q: BinForm) -> bool:
    """Whether the binary quartic q is c * h^2 with c a scalar and h a
    binary form over the algebraic closure (characteristic != 2).  With
    a4 = 0, s divides q and then h, so q = s^2 (a0 s^2 + a1 s t + a2 t^2)
    with a3 = 0 and the quadratic a square."""
    if q.degree != 4:
        raise WrongDegree("binary quartic expected")
    return is_square_quartic(q.c, q.field.is_zero)


def is_square_quartic(c, is_zero) -> bool:
    """`is_square_binform` on coefficients a0..a4 under the zero test
    `is_zero`: with a4 != 0, the c1 = c2 = 0 of `square_conditions`."""
    a0, a1, a2, a3, a4 = c
    if is_zero(a4):
        return is_zero(a3) and is_zero(a1 * a1 - 4 * a0 * a2)
    h = 4 * a4 * a2 - a3 * a3
    return is_zero(8 * a4 * a4 * a1 - 4 * a4 * a2 * a3 + a3 * a3 * a3) and is_zero(64 * a4 * a4 * a4 * a0 - h * h)


def primitive_ints(ints) -> tuple[tuple[int, ...], int]:
    """(ints / g, g) with g = +-gcd(ints), signed so that the first nonzero
    entry of ints / g is positive; g = 0 when every entry is zero."""
    g = igcd(*ints)
    if not g:
        return tuple(ints), 0
    for n in ints:
        if n:
            g = -g if n < 0 else g
            break
    return tuple([n // g for n in ints]), g


def content_primitive_ints(fracs) -> tuple[tuple[int, ...], Fraction]:
    """(ints, scale) with fracs = scale * ints: the denominators cleared,
    then `primitive_ints` (scale = 0 when every entry is zero)."""
    den = lcm(*(a.denominator for a in fracs))
    ints, g = primitive_ints([a.numerator * (den // a.denominator) for a in fracs])
    return ints, Fraction(g, den)


# ---------------------------------------------------------------------------
# Linear systems on int rows with a modulus p (0 for Q)


def _row_echelon(rows, p: int = 0) -> tuple[list[list[int]], list[int]]:
    """(echelon rows, pivot columns) of the int matrix `rows` over F_p, or
    over Q for p = 0.  Mod p each pivot row is scaled to 1 and taken from
    the rows below it.  Over Q the elimination is fraction-free (Bareiss,
    Math. Comp. 22, 1968): after k pivots each entry below them is the
    minor on the pivot rows and its row, and the pivot columns and its
    column (Sylvester's identity, for any choice of columns), so the
    division by the previous pivot is exact.  Rows are zero left of the
    pivot column, so only the columns from it on are computed."""
    m = [[v % p for v in row] for row in rows] if p else [list(row) for row in rows]
    pivots, prev = [], 1
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        if p:
            inv = pow(m[r][col], -1, p)
            top = [v * inv % p for v in m[r][col:]]
            m[r][col:] = top
            for i in range(r + 1, len(m)):
                c = m[i][col]
                if c:
                    m[i][col:] = [(v - c * u) % p for v, u in zip(m[i][col:], top)]
        else:
            top, piv = m[r][col:], m[r][col]
            for i in range(r + 1, len(m)):
                a = m[i][col]
                m[i][col:] = [(piv * v - a * u) // prev for v, u in zip(m[i][col:], top)]
            prev = piv
        pivots.append(col)
    return m[: len(pivots)], pivots


def _nullspace(rows, p: int = 0) -> list[tuple[int, ...]]:
    """A kernel basis of the int matrix `rows` (not empty) over F_p, as
    residues, or over Q, as `primitive_ints` vectors: per free column, the
    vector zero at the other free columns, by back-substitution in
    `_row_echelon`'s rows.  Its free entry is 1 mod p, and over Q the last
    pivot, the minor M of the pivot rows on the pivot columns; by Cramer's
    rule the pivot entries are then those of -adj(M) times the free column,
    ints, so every division is exact."""
    ech, pivots = _row_echelon(rows, p)
    ncols = len(rows[0])
    free_entry = ech[-1][pivots[-1]] if pivots and not p else 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = free_entry
        for row, pc in zip(reversed(ech), reversed(pivots)):
            s = sum(row[j] * vec[j] for j in range(pc + 1, ncols))
            vec[pc] = -s % p if p else -s // row[pc]
        basis.append(tuple(vec) if p else primitive_ints(vec)[0])
    return basis


# ---------------------------------------------------------------------------
# Univariate int polynomials with a modulus p (0 for Q), as ascending int lists


def _sum_of_products(*terms) -> list[int]:
    """The sum of k f_1 ... f_n over the terms (k, f_1, ..., f_n) of int lists f_i."""
    out = []
    for k, *fs in terms:
        term = [k]
        for f in fs:
            term = _bin_mul(0, term, f)
        out = [u + v for u, v in zip_longest(out, term, fillvalue=0)]
    return out


def _trim(a, p: int = 0) -> list[int]:
    """The int list a reduced mod p (p > 0), trailing zeros dropped."""
    a = [v % p for v in a] if p else list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _divmod_ints(a, b, p: int = 0) -> tuple[list[int], list[int]]:
    """(q, r) with a = q b + r and deg r < deg b, for a, b without trailing
    zeros, b nonzero: mod p, or over Z for p = 0 when q is integral, as when
    b divides a over Z, or b is primitive and divides a over Q (Gauss's
    lemma); then each step's division by lc(b) is exact."""
    r, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    inv, nb = pow(b[-1], -1, p) if p else 0, len(b) - 1
    for k in range(len(q) - 1, -1, -1):
        t = q[k] = r[k + nb] * inv % p if p else r[k + nb] // b[-1]
        for i, v in enumerate(b):
            r[k + i] -= t * v
    return q, _trim(r[:nb], p)


_HEU_TRIES = 6  # values of xi GCDHEU tries before `_prs`, as sympy's heugcd does


def _gcd_ints(a, b, p: int = 0) -> list[int]:
    """A gcd of the int polynomials a, b, [] when both are zero: mod p the
    monic one, by Euclid; over Q the primitive one (`primitive_ints`), by
    GCDHEU (Char, Geddes and Gonnet, J. Symb. Comp. 7, 1989) on their
    primitive parts, and after _HEU_TRIES values of xi by the last element
    of their `_prs`.

    GCDHEU, for a, b primitive of positive degree and m the least of their
    max-norms: for an int xi >= 2 m + 2, h has as coefficients the
    symmetric xi-adic digits, in (-xi/2, xi/2], of gamma = gcd(a(xi),
    b(xi)), so h(xi) = gamma.  If pp(h) divides a and b, it is their gcd G:
    then pp(h) divides G, say G = pp(h) c, and G(xi) divides gamma =
    cont(h) pp(h)(xi), so c(xi) divides cont(h); gamma != 0, since the
    polynomial f of norm m has its roots z below 1 + m <= xi/2 in absolute
    value (Cauchy's bound).  If c had degree >= 1, it would divide f, and
    |c(xi)| >= prod |xi - z| over its roots > (xi/2)^deg c >= xi/2 >=
    |cont(h)|.  So c = +-1, G and pp(h) being primitive.  Divisibility is
    checked by multiplying the quotient back."""
    a, b = _trim(a, p), _trim(b, p)
    if p:
        while b:
            a, b = b, _divmod_ints(a, b, p)[1]
        inv = pow(a[-1], -1, p) if a else 0
        return [v * inv % p for v in a]
    a, b = sorted((list(primitive_ints(a)[0]), list(primitive_ints(b)[0])), key=len, reverse=True)
    if len(b) < 2:
        return a if not b else [1]
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(_HEU_TRIES):
        gamma, h = igcd(*(reduce(lambda acc, v: acc * xi + v, reversed(f), 0) for f in (a, b))), []
        while gamma:
            d = gamma % xi
            d -= xi if d > xi // 2 else 0
            h.append(d)
            gamma = (gamma - d) // xi
        h = list(primitive_ints(h)[0])
        if all(_bin_mul(0, _divmod_ints(f, h)[0], h) == f for f in (a, b)):
            return h
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    last = _prs([[v] if v else [] for v in a], [[v] if v else [] for v in b])[-1]
    return list(primitive_ints([c[0] if c else 0 for c in last])[0])


def _prs(a, b) -> list:
    """The subresultant PRS a, b, F_3, ..., F_k of polynomials in u over
    Z[v], given as lists in u of int lists in v, b != 0 and deg a >= deg b
    (Brown and Traub, JACM 18, 1971): F_(i+1) = prem(F_(i-1), F_i) /
    (g_i h_i^(d_i)) up to the last nonzero one, where d_i = deg F_(i-1) -
    deg F_i, g_2 = h_2 = 1, and for i >= 3 g_i = lc(F_(i-1)) and h_i =
    h_(i-1)^(1 - d_(i-1)) g_i^(d_(i-1)).  Each F_i, i >= 3, is +-S_j, the
    j-th subresultant of a and b with j = deg F_(i-1) - 1, so every division
    is exact in Z[v] and `_divmod_ints` performs it.
    Res_u(a, b) is 0 when deg F_k > 0 and +-F_k when deg F_k = 0 and
    deg F_(k-1) = 1.  On constant coefficients, [n] or [], this is the PRS
    over Z, and F_k is a gcd of a and b."""
    seq, g, h = [a, b], [1], [1]
    while True:
        a, b = seq[-2:]
        d, nb = len(a) - len(b), len(b) - 1
        r = list(a)
        for k in range(d, -1, -1):
            t = r[k + nb]
            r = [_trim(_bin_mul(0, b[-1], c)) for c in r]
            for i, y in enumerate(b):
                r[k + i] = _trim(_sum_of_products((1, r[k + i]), (-1, t, y)))
        r = _trim(r[:nb])
        if not r:
            return seq
        div = _sum_of_products((1, g, *[h] * d))
        seq.append([_divmod_ints(c, div)[0] for c in r])
        g = b[-1]
        if d:
            h = _divmod_ints(_sum_of_products((1, *[g] * d)), _sum_of_products((1, *[h] * (d - 1))))[0]


def _radical(a, p: int = 0) -> list[int]:
    """The product of the distinct irreducible factors of the nonzero int
    polynomial a, up to a unit, over Q or mod p.  With a = prod f_j^(e_j)
    and c = gcd(a, a'), c holds f_j^(e_j - 1) where p does not divide e_j
    (always in characteristic 0) and f_j^(e_j) where it does, so w = a / c
    holds the former f_j once, and rad a = lcm(w, rad c) mod p.  There
    a' = 0 makes a = b(t^p) = b(t)^p, coefficients being their own p-th
    powers in F_p, and rad a = rad b."""
    a = _trim(a, p)
    d = _trim([i * v for i, v in enumerate(a)][1:], p)
    if not d:
        return _radical(a[::p], p) if len(a) > 1 else a
    c = _gcd_ints(a, d, p)
    w = _divmod_ints(a, c, p)[0]
    if not p or len(c) == 1:
        return w
    r = _radical(c, p)
    return _divmod_ints(_bin_mul(0, w, r), _gcd_ints(w, r, p), p)[0]


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

    def evaluate(self, x, y, z):
        return sum((v * x**i * y**j * z**k for (i, j, k), v in self.c.items()), self.field.zero)

    def __add__(self, other):
        if self.degree != other.degree:
            raise WrongDegree("degree mismatch")
        out = dict(self.c)
        for key, val in other.c.items():
            out[key] = out.get(key, self.field.zero) + val
        return TernForm(self.field, self.degree, out)

    def __mul__(self, other):
        out = _tern_mul(self.c, other.c, self.field.zero)
        return TernForm(self.field, self.degree + other.degree, out)

    def scale(self, k):
        return TernForm(self.field, self.degree, {key: v * k for key, v in self.c.items()})

    def __eq__(self, other):
        return isinstance(other, TernForm) and self.degree == other.degree and self.c == other.c

    def __repr__(self):
        return f"TernForm(deg={self.degree}, {self.c})"
