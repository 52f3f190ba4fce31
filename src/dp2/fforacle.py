"""Finite-field ground truth: reduction mod good primes, exhaustive point
enumeration, the base-locus oracle for phi, and empirical surjectivity of phi
on U_inv(F_p).

Every construction reuses the field-generic cores of the geometry module over
F_p, so the oracle is an independent execution path only in arithmetic, not in
formulas, except for base_locus_oracle which avoids the group law entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from .errors import (
    BadPrime,
    BitangentLine,
    DP2Error,
    NotVeryGeneral,
    SameImage,
    SingularHit,
    UnexpectedDimension,
)
from .exactalg import PrimeField, TernForm
from .geometry import (
    SEC_MONOMIALS,
    _count_bitangents_core,
    _kernel,
    _osculating_core,
    _phi_core,
    _section_condition_rows,
)
from .surface import PointDP2, SurfaceDP2, _is_smooth_quartic


@dataclass
class SurfaceModP:
    """Reduction of a surface mod a good odd prime."""

    p: int
    F: PrimeField
    f: TernForm
    g: TernForm
    B: TernForm
    _points: list | None = None

    def points(self) -> list[tuple[int, int, int, int]]:
        if self._points is None:
            self._points = _enumerate(self)
        return self._points


def reduce_surface(S: SurfaceDP2, p: int) -> SurfaceModP:
    """Reduce mod p, certifying that B stays a smooth quartic.  The quartic
    discriminant and the jets divide by 2 and 3, so p must be at least 5."""
    if not sp.isprime(p) or p < 5:
        raise BadPrime(f"{p} is not a prime >= 5")
    F = PrimeField(p)
    fp = S.f.map_coeffs(F.from_int, F)
    gp = S.g.map_coeffs(F.from_int, F)
    Bp = S.B.map_coeffs(F.from_int, F)
    if Bp.is_zero() or Bp.degree != 4 or not _is_smooth_quartic(Bp):
        raise BadPrime(f"branch quartic degenerates mod {p}")
    return SurfaceModP(p=p, F=F, f=fp, g=gp, B=Bp)


def good_prime(S: SurfaceDP2, p: int) -> bool:
    try:
        reduce_surface(S, p)
        return True
    except BadPrime:
        return False


def good_primes(S: SurfaceDP2, lo: int = 5, hi: int = 100, count: int | None = None):
    out = []
    p = lo - 1
    while True:
        p = int(sp.nextprime(p))
        if p > hi:
            break
        if good_prime(S, p):
            out.append(p)
            if count is not None and len(out) >= count:
                break
    return out


# ---------------------------------------------------------------------------
# points mod p


def _normalize_modp(F: PrimeField, x, y, z, w) -> tuple[int, int, int, int]:
    """Canonical representative: first nonzero of (x, y, z) scaled to 1."""
    for v in (x, y, z):
        if not F.is_zero(v):
            lam = F.one / v
            return (
                (x * lam).r,
                (y * lam).r,
                (z * lam).r,
                (w * lam * lam).r,
            )
    raise ValueError("kappa-image is zero")


def reduce_point(Sp: SurfaceModP, P: PointDP2) -> tuple[int, int, int, int]:
    F = Sp.F
    return _normalize_modp(F, F.from_int(P.x), F.from_int(P.y), F.from_int(P.z), F.from_int(P.w))


def _enumerate(Sp: SurfaceModP) -> list[tuple[int, int, int, int]]:
    """All points of X(F_p), via the quadratic character of f^2 + 4g on each
    of the p^2 + p + 1 points of P^2(F_p)."""
    F, p = Sp.F, Sp.p
    reps = []
    for y in range(p):
        for z in range(p):
            reps.append((1, y, z))
    for z in range(p):
        reps.append((0, 1, z))
    reps.append((0, 0, 1))
    pts = []
    two_inv = F.one / F.from_int(2)
    for (x, y, z) in reps:
        xe, ye, ze = F.from_int(x), F.from_int(y), F.from_int(z)
        fv = Sp.f.evaluate(xe, ye, ze)
        gv = Sp.g.evaluate(xe, ye, ze)
        disc = fv * fv + 4 * gv
        if F.is_zero(disc):
            w = (-fv) * two_inv
            pts.append((x, y, z, w.r))
        elif F.is_square(disc):
            r = F.sqrt(disc)
            for w in ((-fv + r) * two_inv, (-fv - r) * two_inv):
                pts.append((x, y, z, w.r))
    return pts


def enumerate_points(S: SurfaceDP2, p: int) -> list[tuple[int, int, int, int]]:
    return reduce_surface(S, p).points()


def on_ramification_modp(Sp: SurfaceModP, P4) -> bool:
    F = Sp.F
    x, y, z, w = (F.from_int(v) for v in P4)
    return F.is_zero(2 * w + Sp.f.evaluate(x, y, z))


# ---------------------------------------------------------------------------
# base-locus oracle for phi


def _section_value(F, vec, P4):
    x, y, z, w = (F.from_int(v) for v in P4)
    acc = vec[0] * w
    coords = (x, y, z)
    for idx, (i, j, k) in enumerate(SEC_MONOMIALS):
        acc = acc + vec[1 + idx] * coords[0] ** i * coords[1] ** j * coords[2] ** k
    return acc


def base_locus_zeros(Sp: SurfaceModP, Pm, Qm) -> set:
    """Common zeros on X(F_p) of the 3-dimensional space of sections
    lambda*w + q2 vanishing to order >= 2 at Pm and >= 1 at Qm."""
    F = Sp.F
    if on_ramification_modp(Sp, Pm):
        raise BadPrime(f"P hits the ramification divisor mod {Sp.p}")
    P4f = tuple(F.from_int(v) for v in Pm)
    try:
        rows = _section_condition_rows(F, Sp.f, Sp.g, P4f, order=2)
    except ZeroDivisionError as exc:
        raise BadPrime(f"jet expansion degenerates mod {Sp.p}: {exc}") from exc
    xq, yq, zq, wq = (F.from_int(v) for v in Qm)
    q_row = [wq]
    for (i, j, k) in SEC_MONOMIALS:
        q_row.append(xq**i * yq**j * zq**k)
    rows.append(q_row)
    basis = _kernel(F, rows, 7)
    if len(basis) != 3:
        raise UnexpectedDimension(f"section space has dimension {len(basis)} mod {Sp.p}, expected 3")
    return {
        T for T in Sp.points()
        if all(F.is_zero(_section_value(F, vec, T)) for vec in basis)
    }


def base_locus_oracle(S: SurfaceDP2, p: int, P: PointDP2, Q: PointDP2, R: PointDP2) -> bool:
    """True iff the common zeros on X(F_p) of the sections lambda*w + q2
    vanishing to order >= 2 at P and >= 1 at Q are exactly {P, Q, R} mod p.
    Independent of the group-law engine."""
    Sp = reduce_surface(S, p)
    Pm, Qm, Rm = (reduce_point(Sp, T) for T in (P, Q, R))
    if len({Pm, Qm, Rm}) != len({P, Q, R}):
        raise BadPrime(f"distinct points collide mod {p}")
    return base_locus_zeros(Sp, Pm, Qm) == {Pm, Qm, Rm}


# ---------------------------------------------------------------------------
# phi mod p


def phi_modp(Sp: SurfaceModP, P4, Q4) -> tuple[int, int, int, int]:
    """phi over F_p via the same group-law core as the exact computation."""
    F = Sp.F
    P = tuple(F.from_int(v) for v in P4)
    Q = tuple(F.from_int(v) for v in Q4)
    x, y, z, w = _phi_core(F, Sp.f, Sp.g, P, Q)
    return _normalize_modp(F, x, y, z, w)


def bitangents_through_modp(Sp: SurfaceModP, p3) -> int:
    F = Sp.F
    n, _cert = _count_bitangents_core(F, Sp.B, tuple(F.from_int(v) for v in p3))
    return n


def very_general_exceptions(S: SurfaceDP2, P: PointDP2, primes) -> list[int]:
    """Good primes among `primes` where a bitangent of B mod p passes through
    kappa(P); empty for persistent very-general verdicts."""
    out = []
    for p in primes:
        Sp = reduce_surface(S, p)
        Pm = reduce_point(Sp, P)
        if bitangents_through_modp(Sp, Pm[:3]) > 0:
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# surjectivity of phi on U_inv(F_p)


@dataclass(frozen=True)
class SurjectivityReport:
    p: int
    total: int
    hit: int
    missed: tuple[tuple[int, int, int, int], ...]
    pairs_tried: int

    @property
    def coverage(self) -> float:
        return self.hit / self.total if self.total else 1.0

    def as_dict(self):
        return {
            "p": self.p,
            "total": self.total,
            "hit": self.hit,
            "missed": [list(t) for t in self.missed],
            "pairs_tried": self.pairs_tried,
            "coverage": self.coverage,
        }


def _u0_section(Sp: SurfaceModP, P4):
    """Osculating-section vector for P in U_0 mod p, else None."""
    if on_ramification_modp(Sp, P4):
        return None
    if bitangents_through_modp(Sp, P4[:3]) != 0:
        return None
    try:
        return _osculating_core(Sp.F, Sp.f, Sp.g, tuple(Sp.F.from_int(v) for v in P4))
    except (NotVeryGeneral, ZeroDivisionError):
        return None


def phi_surjectivity(S: SurfaceDP2, p: int) -> SurjectivityReport:
    """Exhaustive search for phi-preimages of every point of X(F_p) over pairs
    in U_inv(F_p); reported, never asserted."""
    if p > 31:
        raise BadPrime("surjectivity sweep limited to p <= 31")
    Sp = reduce_surface(S, p)
    F = Sp.F
    pts = Sp.points()
    total = len(pts)
    remaining = set(pts)
    sections = {}
    for P4 in pts:
        sec = _u0_section(Sp, P4)
        if sec is not None:
            sections[P4] = sec
    pairs_tried = 0
    for P4, sec in sections.items():
        if not remaining:
            break
        for Q4 in pts:
            if not remaining:
                break
            if Q4[:3] == P4[:3]:
                continue
            if not F.is_zero(_section_value(F, sec, Q4)):
                pairs_tried += 1
                try:
                    R4 = phi_modp(Sp, P4, Q4)
                except (SameImage, BitangentLine, SingularHit, DP2Error):
                    continue
                remaining.discard(R4)
    missed = tuple(sorted(remaining))
    return SurjectivityReport(
        p=p, total=total, hit=total - len(missed), missed=missed, pairs_tried=pairs_tried
    )
