"""The degree-2 del Pezzo surface model w^2 + f w = g in P(1,1,1,2).

A surface is stored with integer f (degree 2) and g (degree 4), normalized
under the admissible rescaling (f, g, w) -> (mu f, mu^2 g, mu w) so the
coefficients are integral and jointly primitive.  The branch quartic
B = f^2 + 4g must be smooth, which is certified exactly by the rank of one
integer matrix, its degree-7 Macaulay matrix, taken mod primes (no
Groebner bases, no factoring, no floating point).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as igcd
from math import isqrt, prod

from .errors import NotOnSurface, SingularBranchCurve, WrongDegree
from .exactalg import QQ, TernForm, content_primitive_ints, is_prime, primitive_ints
from .exactalg.poly import _row_echelon

# digits of an input integer (coordinate, coefficient numerator or denominator):
# twice w's in `generate`'s output by default, below Python's 4300 int/str limit
MAX_INPUT_DIGITS = 4000
_INPUT_BOUND = 10**MAX_INPUT_DIGITS  # the least int of more digits, computed once
TOO_LONG = f"an integer has more than MAX_INPUT_DIGITS = {MAX_INPUT_DIGITS} digits"
_COEFFICIENT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # a coefficient string of a surface file


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class PointP2:
    """A rational point of P^2 in canonical primitive form."""

    x: int
    y: int
    z: int

    @classmethod
    def make(cls, x: int, y: int, z: int) -> "PointP2":
        """The point (x:y:z) of integers in `primitive_ints` form."""
        xyz, g = primitive_ints((x, y, z))
        if not g:
            raise ValueError("(0, 0, 0) is not a projective point")
        return cls(*xyz)

    def coords(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)

    def __str__(self):
        return f"{self.x}:{self.y}:{self.z}"


@dataclass(frozen=True)
class PointDP2:
    """A rational point of X in P(1,1,1,2), canonical primitive form:
    gcd(x, y, z) = 1, first nonzero of (x, y, z) positive, w integral."""

    x: int
    y: int
    z: int
    w: int

    def coords(self) -> tuple[int, int, int, int]:
        return (self.x, self.y, self.z, self.w)

    def xyz(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)

    def __str__(self):
        return f"{self.x}:{self.y}:{self.z}:{self.w}"

    @classmethod
    def parse(cls, text: str) -> "PointDP2":
        parts = text.strip().split(":")
        if len(parts) != 4:
            raise ValueError(f"point must be x:y:z:w, got {text!r}")
        x, y, z, w = (int(p) for p in parts)
        if max(abs(x), abs(y), abs(z), abs(w)) >= _INPUT_BOUND:
            raise ValueError(TOO_LONG)
        if x == 0 and y == 0 and z == 0:
            raise ValueError(f"point {text!r} has x = y = z = 0")
        return cls(x, y, z, w)


# ---------------------------------------------------------------------------
# smoothness certification for a plane quartic (int terms with a modulus p)


def _monomials(d: int) -> list[tuple[int, int, int]]:
    return [(i, j, d - i - j) for i in range(d, -1, -1) for j in range(d - i, -1, -1)]


_SEPTIC_COLUMN = {m: n for n, m in enumerate(_monomials(7))}


def _macaulay_rows(B) -> list[list[int]]:
    """The 45 rows x^a y^b z^c * dB/dx_d, a + b + c = 4, of the quartic
    with int terms B over the 36 septic monomials."""
    rows = []
    for d in range(3):
        partial = {}
        for e, v in B:
            if e[d]:
                partial[e[:d] + (e[d] - 1,) + e[d + 1:]] = e[d] * v
        for a, b, c in _monomials(4):
            row = [0] * len(_SEPTIC_COLUMN)
            for (i, j, k), v in partial.items():
                row[_SEPTIC_COLUMN[(i + a, j + b, k + c)]] = v
            rows.append(row)
    return rows


def _is_smooth_quartic(B, p: int = 0) -> bool:
    """Exact smoothness test for a plane quartic with int terms B over Q
    (p = 0), or residues over F_p with p >= 5, by the rank of its degree-7
    Macaulay matrix (Macaulay 1916; Cox, Little and O'Shea, Using Algebraic
    Geometry, ch. 3 sec. 4): B is smooth exactly when the 45 products of
    the quartic monomials with the partials of B span the 36 septic
    monomials.

    Soundness.  By Euler's relation 4B = sum x_d dB/dx_d with 4 != 0, a
    singular point is exactly a common zero of the three partials, ternary
    cubics.  Three cubics with no common zero over the closure form a
    regular sequence; the quotient by them has Hilbert series
    (1 + t + t^2)^3, of degree 6, so it is zero in degree 7 and the rank is
    36.  A common zero P kills every row, while some septic monomial does
    not vanish at P, so the rank is below 36.  Rank does not change under
    field extension.  Over Q, B is made primitive (scaling keeps its
    singular points) and the matrix reduced mod successive primes q below
    2^61: the rank mod q is at most the rank over Q, so rank 36 mod one
    prime proves B smooth.  If the rank over Q is 36, some 36 x 36 minor M is nonzero,
    and by Hadamard |M| <= H, the product of the 36 largest row norms; once
    the primes tried multiply to more than H, they cannot all divide M, so
    B is singular.  B = 0 gives rank 0."""
    if p:
        return len(_row_echelon(_macaulay_rows(B), p)[1]) == len(_SEPTIC_COLUMN)
    ints, _ = primitive_ints([c for _, c in B])
    rows = _macaulay_rows([(e, c) for (e, _), c in zip(B, ints)])
    norms = sorted(isqrt(sum(v * v for v in row)) + 1 for row in rows)
    bound = prod(norms[-len(_SEPTIC_COLUMN):])
    q, tried = 2**61, 1
    while tried <= bound:
        q -= 1
        while not is_prime(q):
            q -= 1
        if len(_row_echelon(rows, q)[1]) == len(_SEPTIC_COLUMN):
            return True
        tried *= q
    return False


# ---------------------------------------------------------------------------
# the surface


@dataclass(frozen=True)
class SurfaceDP2:
    """Normalized surface data; construct via validate_surface."""

    f: TernForm  # degree 2, integer coefficients (as Fractions)
    g: TernForm  # degree 4, integer coefficients
    B: TernForm  # f^2 + 4g, cached
    f_ints: tuple  # the terms (e, c) of f, g and B with c an int
    g_ints: tuple
    B_ints: tuple

    def equation_at(self, x: int, y: int, z: int, w: int) -> bool:
        """Whether the integer point (x, y, z, w) satisfies w^2 + f w = g."""
        fx = _int_value(self.f_ints, x, y, z)
        return w * w + fx * w == _int_value(self.g_ints, x, y, z)


def _int_value(terms, x: int, y: int, z: int) -> int:
    """The form with int terms (e, c) at the integer point (x, y, z)."""
    return sum(c * x**i * y**j * z**k for (i, j, k), c in terms)


def _coprime_base(nums) -> list[int]:
    """Pairwise coprime integers > 1 of which every n in nums is a product
    of powers (factor refinement by gcds: a pair sharing g > 1 is replaced
    by g and the two cofactors, which lowers the product of the list)."""
    base: list[int] = []
    todo = [n for n in nums if n > 1]
    while todo:
        n = todo.pop()
        for i, b in enumerate(base):
            g = igcd(n, b)
            if g > 1:
                base.pop(i)
                todo.extend(x for x in (g, b // g, n // g) if x > 1)
                break
        else:
            base.append(n)
    return base


def _multiplicity(b: int, val: Fraction) -> int:
    """k with val = b^k * (numerator and denominator prime to b), for b in a
    coprime base of val's numerator and denominator."""
    k = 0
    n, d = abs(val.numerator), val.denominator
    while n % b == 0:
        n //= b
        k += 1
    while d % b == 0:
        d //= b
        k -= 1
    return k


def _normalization_scalar(f: TernForm, g: TernForm) -> Fraction:
    """Minimal mu > 0 with mu*f, mu^2*g integral and jointly primitive under
    (f, g) -> (mu f, mu^2 g).

    For a prime l with least valuations vf, vg over the coefficients of the
    nonzero forms, v_l(mu) = max(-vf, ceil(-vg / 2)), so only primes of the
    denominators or of the joint content count.  The numerators and
    denominators are split over a coprime base by gcds alone: l | b gives
    vf = v_l(b) kf and vg = v_l(b) kg, with kf, kg the least multiplicities
    of b over f and g.  So b contributes b^max(-kf, ceil(-kg / 2)), unless kg
    is odd and ceil(-kg / 2) > -kf (or f = 0): then v_l(mu) =
    ceil(-v_l(b) kg / 2), and b contributes b^((-kg - 1) / 2) times the
    least r with b | r^2.  That case alone factors b."""
    vals = [*f.c.values(), *g.c.values()]
    nums = [abs(v.numerator) for v in vals] + [v.denominator for v in vals]
    mu = Fraction(1)
    for b in _coprime_base(nums):
        bounds = [-min(_multiplicity(b, val) for val in f.c.values())] if f.c else []
        if g.c:
            kg = min(_multiplicity(b, val) for val in g.c.values())
            bg = -(kg // 2)  # ceil(-kg / 2)
            if kg % 2 and all(bg > e for e in bounds):
                mu *= Fraction(b) ** (bg - 1) * _square_cover(b)
                continue
            bounds.append(bg)
        mu *= Fraction(b) ** max(bounds)
    return mu


# `_square_cover` factors b: sympy's factorint took 0.6 s on a product of
# two 15-digit primes and 23 s on one of two 20-digit primes (two-vCPU
# Xeon guest), so a longer b makes the surface file a usage error
MAX_SQUARE_COVER_DIGITS = 30


def _square_cover(b: int) -> int:
    """The least r > 0 with b | r^2; ValueError if b has more than
    MAX_SQUARE_COVER_DIGITS digits."""
    if b >= 10**MAX_SQUARE_COVER_DIGITS:
        raise ValueError(f"normalising would factor an integer of more than "
                         f"MAX_SQUARE_COVER_DIGITS = {MAX_SQUARE_COVER_DIGITS} digits")
    from sympy import factorint

    r = 1
    for ell, v in factorint(b).items():
        r *= ell ** ((v + 1) // 2)
    return r


def validate_surface(f: TernForm, g: TernForm) -> SurfaceDP2:
    """Normalize and certify a surface w^2 + f w = g."""
    if f.degree != 2 or g.degree != 4:
        raise WrongDegree(f"need deg f = 2 and deg g = 4, got {f.degree}, {g.degree}")
    mu = _normalization_scalar(f, g)
    fn = f.scale(mu)
    gn = g.scale(mu * mu)
    B = fn * fn + gn.scale(Fraction(4))
    f_ints, g_ints, B_ints = (tuple((e, v.numerator) for e, v in h.c.items()) for h in (fn, gn, B))
    if not _is_smooth_quartic(B_ints):
        raise SingularBranchCurve("branch quartic f^2 + 4g is singular")
    return SurfaceDP2(f=fn, g=gn, B=B, f_ints=f_ints, g_ints=g_ints, B_ints=B_ints)


def on_surface(S: SurfaceDP2, x, y, z, w) -> PointDP2:
    """Canonical primitive representative of a rational solution."""
    (xi, yi, zi), scale = content_primitive_ints((x, y, z))
    if not scale:
        raise ValueError("(0, 0, 0) is not a projective point")
    wn = w / (scale * scale)
    if wn.denominator != 1:
        raise NotOnSurface(f"w-coordinate {wn} not integral in primitive form")
    wn = int(wn)
    if not S.equation_at(xi, yi, zi, wn):
        raise NotOnSurface(f"({x}:{y}:{z}:{w}) does not satisfy w^2 + fw = g")
    return PointDP2(xi, yi, zi, wn)


def kappa(P: PointDP2) -> PointP2:
    return PointP2.make(P.x, P.y, P.z)


def geiser(S: SurfaceDP2, P: PointDP2) -> PointDP2:
    return PointDP2(P.x, P.y, P.z, -_int_value(S.f_ints, *P.xyz()) - P.w)


def on_ramification(S: SurfaceDP2, P: PointDP2) -> bool:
    return 2 * P.w + _int_value(S.f_ints, *P.xyz()) == 0


def lift(S: SurfaceDP2, p: PointP2) -> list[PointDP2]:
    """All rational points of X above p: the roots (-f +- r) / 2 of
    w^2 + f w - g = 0, r^2 = f^2 + 4g.  They are integral: f^2 + 4g is
    f^2 mod 4, so r has the parity of f."""
    fx, gx = _int_value(S.f_ints, *p.coords()), _int_value(S.g_ints, *p.coords())
    disc = fx * fx + 4 * gx
    r = isqrt(max(disc, 0))
    if r * r != disc:
        return []
    return [PointDP2(p.x, p.y, p.z, w) for w in sorted({(-fx - r) // 2, (-fx + r) // 2})]


# ---------------------------------------------------------------------------
# file format


def serialize_surface(S: SurfaceDP2) -> str:
    doc = {
        "f": [[i, j, k, str(v)] for (i, j, k), v in sorted(S.f.c.items())],
        "g": [[i, j, k, str(v)] for (i, j, k), v in sorted(S.g.c.items())],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_surface(text: str) -> SurfaceDP2:
    """Surface from the JSON written by serialize_surface; ValueError (or its
    subclass json.JSONDecodeError) for text not in that format."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("surface file must hold an object with keys 'f' and 'g'")

    def load(name, degree):
        entries = doc.get(name, [])
        if not isinstance(entries, list):
            raise ValueError(f"'{name}' must be a list of [i, j, k, c] entries")
        out = {}
        for entry in entries:
            bad = ValueError(f"'{name}' entry {entry!r} is not [i, j, k, c]")
            # c is a JSON integer (not true/false) or a string "[+-]n[/d]":
            # Fraction would also take floats, and "1e10000000" in seconds
            c = entry[3] if isinstance(entry, list) and len(entry) == 4 else None
            if not (type(c) is int or isinstance(c, str) and _COEFFICIENT.fullmatch(c)):
                raise bad
            exps = tuple(entry[:3])
            # bool is a subclass of int, and JSON's true is no exponent
            if any(type(e) is not int or e < 0 for e in exps) or sum(exps) != degree:
                raise ValueError(f"'{name}' entry {entry!r} needs integers i, j, k >= 0 "
                                 f"with i + j + k = {degree}")
            if exps in out:
                raise ValueError(f"'{name}' lists the exponents {list(exps)} twice")
            try:
                out[exps] = c = Fraction(c)
            except (ValueError, ZeroDivisionError) as exc:
                raise bad from exc
            if max(abs(c.numerator), c.denominator) >= _INPUT_BOUND:
                raise ValueError(TOO_LONG)
        return TernForm(QQ, degree, out)

    return validate_surface(load("f", 2), load("g", 4))


def load_surface(path: str) -> SurfaceDP2:
    with open(path, encoding="utf-8") as fh:
        return parse_surface(fh.read())
