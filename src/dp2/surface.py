"""The degree-2 del Pezzo surface model w^2 + f w = g in P(1,1,1,2).

A surface is stored with integer f (degree 2) and g (degree 4), normalized
under the admissible rescaling (f, g, w) -> (mu f, mu^2 g, mu w) so the
coefficients are integral and jointly primitive.  The branch quartic
B = f^2 + 4g must be smooth, which is certified exactly by resultant
elimination (no Groebner bases, no floating point).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as igcd

from sympy import factorint

from .errors import NotOnSurface, SingularBranchCurve, WrongDegrees
from .exactalg import (
    QQ,
    Poly,
    QuotientField,
    TernForm,
    content_primitive_ints,
    factor_univariate,
    poly_gcd,
)
from .genus1 import _det3


# ---------------------------------------------------------------------------
# points


def _normalize_xyz(x: Fraction, y: Fraction, z: Fraction) -> tuple[int, int, int, Fraction]:
    """Primitive sign-normalized integer representative and the scalar lam
    with (lam*x, lam*y, lam*z) = result."""
    if x == 0 and y == 0 and z == 0:
        raise ValueError("(0, 0, 0) is not a projective point")
    ints, scale = content_primitive_ints([x, y, z])
    sign = -1 if next(n for n in ints if n) < 0 else 1
    return sign * ints[0], sign * ints[1], sign * ints[2], sign / scale


@dataclass(frozen=True)
class PointP2:
    """A rational point of P^2 in canonical primitive form."""

    x: int
    y: int
    z: int

    @classmethod
    def make(cls, x, y, z) -> "PointP2":
        xi, yi, zi, _ = _normalize_xyz(Fraction(x), Fraction(y), Fraction(z))
        return cls(xi, yi, zi)

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
        if x == 0 and y == 0 and z == 0:
            raise ValueError(f"point {text!r} has x = y = z = 0")
        return cls(x, y, z, w)


# ---------------------------------------------------------------------------
# smoothness certification for a plane quartic (field-generic)


def _has_common_projective_root_binary(F, forms) -> bool:
    """Whether nonzero binary forms share a root in P^1 over the closure."""
    forms = [f for f in forms if not f.is_zero()]
    if not forms:
        return True
    # root at infinity (1:0): all coefficients of s^deg vanish
    if all(F.is_zero(f.c[0]) for f in forms):
        return True
    g = forms[0].to_poly()
    for f in forms[1:]:
        g = poly_gcd(g, f.to_poly())
        if g.degree == 0:
            return False
    return g.degree > 0


def _poly2_resultant_x(F, a, b):
    """Resultant with respect to x of bivariate polynomials represented as
    dicts (i, j) -> coeff (x^i y^j), returning a univariate Poly in y.

    Computed via the Sylvester matrix with entries in F[y], expanded by
    fraction-free Gaussian elimination (Bareiss) over the polynomial ring.
    """
    ax = max((i for (i, _) in a), default=0)
    bx = max((i for (i, _) in b), default=0)

    def x_coeff(d, i):
        ymax = max((j for (ii, j) in d if ii == i), default=-1)
        return Poly(F, [d.get((i, j), F.zero) for j in range(ymax + 1)])

    arow = [x_coeff(a, i) for i in range(ax, -1, -1)]
    brow = [x_coeff(b, i) for i in range(bx, -1, -1)]
    n = ax + bx
    if n == 0:
        return Poly.one(F)
    m = []
    for k in range(bx):
        m.append([Poly.zero(F)] * k + arow + [Poly.zero(F)] * (bx - 1 - k))
    for k in range(ax):
        m.append([Poly.zero(F)] * k + brow + [Poly.zero(F)] * (ax - 1 - k))
    # Bareiss fraction-free determinant over F[y]
    prev = Poly.one(F)
    mat = [row[:] for row in m]
    sign = 1
    for k in range(n - 1):
        if mat[k][k].is_zero():
            for r in range(k + 1, n):
                if not mat[r][k].is_zero():
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return Poly.zero(F)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]
                mat[i][j] = num // prev
            mat[i][k] = Poly.zero(F)
        prev = mat[k][k]
    det = mat[n - 1][n - 1]
    if sign < 0:
        det = -det
    return det


def _tern_to_xy_dict(F, form: TernForm):
    """Dehomogenize z = 1: dict (i, j) -> coeff for x^i y^j."""
    out = {}
    for (i, j, k), val in form.c.items():
        out[(i, j)] = out.get((i, j), F.zero) + val
    return out


def _dict_eval_y(F, d, beta, K):
    """Substitute y = beta (element of extension K) into an (i,j)-dict,
    returning a Poly in x over K."""
    xmax = max((i for (i, _) in d), default=0)
    coeffs = []
    for i in range(xmax + 1):
        acc = K.zero
        for (ii, j), val in d.items():
            if ii != i:
                continue
            acc = acc + K.from_base(val) * beta**j
        coeffs.append(acc)
    return Poly(K, coeffs)


_SMOOTH_FRAMES = 6  # coordinate frames tried before giving up


def _is_smooth_quartic(B: TernForm) -> bool:
    """Exact smoothness test for a plane quartic over Q or F_p.

    A singular point is a common projective zero of the three partials (it
    lies on B automatically by the Euler relation).  Strategy: check the line
    z = 0 by binary-form GCDs, then the affine chart z = 1 by eliminating x
    with two resultants, intersecting candidate y-values, and certifying each
    candidate by a GCD computation over the quotient field.  Degenerate
    coordinate frames are escaped by a deterministic random change of basis.
    """
    F = B.field
    rng = random.Random(11)
    form = B
    for attempt in range(_SMOOTH_FRAMES):
        if attempt > 0:
            m = _random_unimodular(rng)
            form = _tern_substitute(B, m)
        verdict = _smooth_in_frame(F, form)
        if verdict is not None:
            return verdict
    raise SingularBranchCurve("smoothness test degenerate in all frames")


def _random_unimodular(rng) -> list[list[int]]:
    while True:
        m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if _det3(m) in (1, -1):
            return m


def _tern_substitute(form: TernForm, m) -> TernForm:
    """Pullback of the form along (x, y, z) -> M (x, y, z)."""
    F = form.field
    basis = []
    for row in range(3):
        basis.append(
            TernForm(F, 1, {
                (1, 0, 0): F.from_int(m[row][0]),
                (0, 1, 0): F.from_int(m[row][1]),
                (0, 0, 1): F.from_int(m[row][2]),
            })
        )
    out = TernForm.zero(F, form.degree)
    for (i, j, k), val in form.c.items():
        term = TernForm(F, 0, {(0, 0, 0): val})
        for _ in range(i):
            term = term * basis[0]
        for _ in range(j):
            term = term * basis[1]
        for _ in range(k):
            term = term * basis[2]
        pad = form.degree - term.degree
        if pad:
            raise AssertionError("degree bookkeeping")
        out = out + term
    return out


def _smooth_in_frame(F, form: TernForm):
    """True/False when decidable in this coordinate frame, None to retry."""
    partials = [form.deriv(0), form.deriv(1), form.deriv(2)]
    if all(p.is_zero() for p in partials):
        return False
    # the line z = 0
    restricted = [p.restrict_line((1, 0, 0), (0, 1, 0)) for p in partials]
    if _has_common_projective_root_binary(F, restricted):
        return False
    # affine chart z = 1
    nz = [p for p in partials if not p.is_zero()]
    if len(nz) < 2:
        return False  # a single curve of critical points: certainly singular
    dicts = [_tern_to_xy_dict(F, p) for p in nz]
    res = []
    for other in dicts[1:]:
        r = _poly2_resultant_x(F, dicts[0], other)
        res.append(r)
    h = Poly.zero(F)
    for r in res:
        h = poly_gcd(h, r) if not h.is_zero() else r
        if not h.is_zero() and h.degree == 0:
            return True
    if h.is_zero():
        return None  # resultants identically zero: frame degenerate
    if h.degree == 0:
        return True
    for factor, _mult in factor_univariate(h.monic()):
        if factor.degree == 0:
            continue
        K = QuotientField(factor)
        beta = K.gen
        g = None
        for d in dicts:
            p = _dict_eval_y(F, d, beta, K)
            g = p if g is None else poly_gcd(g, p)
            if g.degree == 0:
                break
        if g is not None and g.degree != 0:
            # a genuine common root, or all partials vanish along y = beta
            return False
    return True


# ---------------------------------------------------------------------------
# the surface


@dataclass(frozen=True)
class SurfaceDP2:
    """Normalized surface data; construct via validate_surface."""

    f: TernForm  # degree 2, integer coefficients (as Fractions)
    g: TernForm  # degree 4, integer coefficients
    B: TernForm  # f^2 + 4g, cached

    def equation_at(self, x, y, z, w) -> bool:
        fx = self.f.evaluate(Fraction(x), Fraction(y), Fraction(z))
        gx = self.g.evaluate(Fraction(x), Fraction(y), Fraction(z))
        w = Fraction(w)
        return w * w + fx * w == gx


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
    r = 1
    for ell, v in factorint(b).items():
        r *= ell ** ((v + 1) // 2)
    return r


def validate_surface(f: TernForm, g: TernForm) -> SurfaceDP2:
    """Normalize and certify a surface w^2 + f w = g."""
    if f.degree != 2 or g.degree != 4:
        raise WrongDegrees(f"need deg f = 2 and deg g = 4, got {f.degree}, {g.degree}")
    mu = _normalization_scalar(f, g)
    fn = f.scale(mu)
    gn = g.scale(mu * mu)
    B = fn * fn + gn.scale(Fraction(4))
    if B.is_zero() or not _is_smooth_quartic(B):
        raise SingularBranchCurve("branch quartic f^2 + 4g is singular")
    return SurfaceDP2(f=fn, g=gn, B=B)


def on_surface(S: SurfaceDP2, x, y, z, w) -> PointDP2:
    """Canonical primitive representative of a rational solution."""
    x, y, z, w = Fraction(x), Fraction(y), Fraction(z), Fraction(w)
    xi, yi, zi, lam = _normalize_xyz(x, y, z)
    wn = w * lam * lam
    if wn.denominator != 1:
        raise NotOnSurface(f"w-coordinate {wn} not integral in primitive form")
    if not S.equation_at(xi, yi, zi, wn):
        raise NotOnSurface(f"({x}:{y}:{z}:{w}) does not satisfy w^2 + fw = g")
    return PointDP2(xi, yi, zi, int(wn))


def kappa(P: PointDP2) -> PointP2:
    return PointP2.make(P.x, P.y, P.z)


def geiser(S: SurfaceDP2, P: PointDP2) -> PointDP2:
    fx = S.f.evaluate(Fraction(P.x), Fraction(P.y), Fraction(P.z))
    return PointDP2(P.x, P.y, P.z, int(-fx - P.w))


def on_ramification(S: SurfaceDP2, P: PointDP2) -> bool:
    fx = S.f.evaluate(Fraction(P.x), Fraction(P.y), Fraction(P.z))
    return 2 * P.w + fx == 0


def lift(S: SurfaceDP2, p: PointP2) -> list[PointDP2]:
    """All rational points of X above p: roots of w^2 + f w - g = 0."""
    fx = S.f.evaluate(Fraction(p.x), Fraction(p.y), Fraction(p.z))
    gx = S.g.evaluate(Fraction(p.x), Fraction(p.y), Fraction(p.z))
    disc = fx * fx + 4 * gx
    if disc < 0 or not QQ.is_square(disc):
        return []
    r = QQ.sqrt(disc)
    ws = sorted({Fraction(-fx + r, 2), Fraction(-fx - r, 2)})
    out = []
    for w in ws:
        out.append(PointDP2(p.x, p.y, p.z, int(w)))
    return out


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
            # a JSON float would become its binary fraction, not the decimal
            if not isinstance(entry, list) or len(entry) != 4 or isinstance(entry[3], float):
                raise bad
            try:
                exps = tuple(int(e) for e in entry[:3])
                out[exps] = Fraction(entry[3])
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise bad from exc
            if min(exps) < 0:
                raise bad
        return TernForm(QQ, degree, out)

    return validate_surface(load("f", 2), load("g", 4))


def load_surface(path: str) -> SurfaceDP2:
    with open(path, encoding="utf-8") as fh:
        return parse_surface(fh.read())
