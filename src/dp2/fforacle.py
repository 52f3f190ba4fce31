"""Finite-field ground truth: reduction mod good primes, exhaustive point
enumeration, the base-locus oracle for phi, and empirical surjectivity of phi
on U_inv(F_p).

Points of X(F_p) are residue tuples (x, y, z, w) in one normal form, found and
tested on the residues of f and g; phi and the sections run the exact
computation's integer cores on them, the bitangent counts its core over F_p.
Only base_locus_oracle is independent in formulas: it decides phi by the
sections of |-2K_X| and never runs the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadPrime, DP2Error, UnexpectedDimension
from .exactalg import PRIME_TEST_BOUND, PrimeField, TernForm, is_prime
from .exactalg.poly import _nullspace
from .geometry import (
    _count_bitangents_core,
    _phi_core,
    _section_condition_rows,
    _section_row,
    _section_value,
    _u0_core,
)
from .surface import PointDP2, SurfaceDP2, _int_value, _is_smooth_quartic


@dataclass
class SurfaceModP:
    """Reduction of a surface mod a good odd prime."""

    p: int
    F: PrimeField
    B: TernForm
    f_ints: list  # the terms (e, c) of f and of g with c a residue
    g_ints: list
    _points: list | None = None

    def points(self) -> list[tuple[int, int, int, int]]:
        if self._points is None:
            self._points = _enumerate(self)
        return self._points


def reduce_surface(S: SurfaceDP2, p: int) -> SurfaceModP:
    """Reduce mod p, certifying that B stays a smooth quartic.  The quartic
    discriminant divides by 27 and the point count by 2, so p must be at
    least 5."""
    if p >= PRIME_TEST_BOUND:
        raise BadPrime(f"{p} is not below PRIME_TEST_BOUND = {PRIME_TEST_BOUND}, "
                       f"where the primality test is exact")
    if p < 5 or not is_prime(p):
        raise BadPrime(f"{p} is not a prime >= 5")
    F = PrimeField(p)
    Bp = S.B.map_coeffs(F.from_int, F)
    if not _is_smooth_quartic(Bp):
        raise BadPrime(f"branch quartic degenerates mod {p}")
    f_ints, g_ints = ([(e, c % p) for e, c in h if c % p] for h in (S.f_ints, S.g_ints))
    return SurfaceModP(p=p, F=F, B=Bp, f_ints=f_ints, g_ints=g_ints)


def good_prime(S: SurfaceDP2, p: int) -> bool:
    try:
        reduce_surface(S, p)
        return True
    except BadPrime:
        return False


def good_primes(S: SurfaceDP2, lo: int = 5, hi: int = 100, count: int | None = None):
    out = []
    for p in range(lo, hi + 1):
        if good_prime(S, p):
            out.append(p)
            if count is not None and len(out) >= count:
                break
    return out


# ---------------------------------------------------------------------------
# points mod p


def _normalize_modp(p: int, x: int, y: int, z: int, w: int) -> tuple[int, int, int, int]:
    """The residue tuple of the integer point (x, y, z, w) mod p, with the
    first nonzero of (x, y, z) scaled to 1."""
    for v in (x, y, z):
        if v % p:
            lam = pow(v, -1, p)
            return (x * lam % p, y * lam % p, z * lam % p, w * lam * lam % p)
    raise ValueError("kappa-image is zero")


def reduce_point(Sp: SurfaceModP, P: PointDP2) -> tuple[int, int, int, int]:
    return _normalize_modp(Sp.p, *P.coords())


def _sqrt_modp(n: int, p: int) -> int | None:
    """The square root of n mod p by Tonelli-Shanks, None for a non-residue.
    Which of the two roots it returns fixes the order of `_enumerate`."""
    n %= p
    if n == 0:
        return 0
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _enumerate(Sp: SurfaceModP) -> list[tuple[int, int, int, int]]:
    """All points of X(F_p), via a square root of f^2 + 4g on each of the
    p^2 + p + 1 points of P^2(F_p): w = (-f +- r) / 2."""
    p = Sp.p
    reps = [(1, y, z) for y in range(p) for z in range(p)] + [(0, 1, z) for z in range(p)] + [(0, 0, 1)]
    half = (p + 1) // 2  # 1/2 mod p
    pts = []
    for (x, y, z) in reps:
        fv, gv = _int_value(Sp.f_ints, x, y, z) % p, _int_value(Sp.g_ints, x, y, z)
        r = _sqrt_modp(fv * fv + 4 * gv, p)
        if r is not None:  # one w for r = 0
            pts.extend((x, y, z, w) for w in dict.fromkeys([(r - fv) * half % p, (-r - fv) * half % p]))
    return pts


def enumerate_points(S: SurfaceDP2, p: int) -> list[tuple[int, int, int, int]]:
    return reduce_surface(S, p).points()


def on_ramification_modp(Sp: SurfaceModP, P4) -> bool:
    return (2 * P4[3] + _int_value(Sp.f_ints, *P4[:3])) % Sp.p == 0


# ---------------------------------------------------------------------------
# base-locus oracle for phi


def _base_locus_sections(Sp: SurfaceModP, Pm, Qm) -> list:
    """Basis of the 3-dimensional space of sections lambda*w + q2 vanishing
    to order >= 2 at Pm and >= 1 at Qm, as residue vectors."""
    if on_ramification_modp(Sp, Pm):
        raise BadPrime(f"P hits the ramification divisor mod {Sp.p}")
    rows = _section_condition_rows(Sp.f_ints, Sp.g_ints, Pm, 2, Sp.p)
    rows.append(_section_row(*Qm))
    basis = _nullspace(rows, Sp.p)
    if len(basis) != 3:
        raise UnexpectedDimension(f"section space has dimension {len(basis)} mod {Sp.p}, expected 3")
    return basis


def base_locus_zeros(Sp: SurfaceModP, Pm, Qm) -> set:
    """Common zeros on X(F_p) of the sections of `_base_locus_sections`."""
    basis = _base_locus_sections(Sp, Pm, Qm)
    return {T for T in Sp.points() if all(_section_value(vec, T) % Sp.p == 0 for vec in basis)}


def base_locus_oracle(Sp: SurfaceModP, P: PointDP2, Q: PointDP2, R: PointDP2) -> bool:
    """True iff the common zeros on X(F_p) of the sections lambda*w + q2
    vanishing to order >= 2 at P and >= 1 at Q are exactly {P, Q, R} mod p.
    Decided by sections alone, independent of phi's closed form."""
    Pm, Qm, Rm = (reduce_point(Sp, T) for T in (P, Q, R))
    if len({Pm, Qm, Rm}) != len({P, Q, R}):
        raise BadPrime(f"distinct points collide mod {Sp.p}")
    return base_locus_zeros(Sp, Pm, Qm) == {Pm, Qm, Rm}


# ---------------------------------------------------------------------------
# phi mod p


def phi_modp(Sp: SurfaceModP, P4, Q4) -> tuple[int, int, int, int]:
    """phi over F_p: the integer core of the exact computation on residues."""
    return _normalize_modp(Sp.p, *_phi_core(Sp.f_ints, Sp.g_ints, P4, Q4, Sp.p))


def bitangents_through_modp(Sp: SurfaceModP, p3) -> int:
    """Bitangents of B mod p through p3, a triple of residues."""
    return _count_bitangents_core(Sp.F, Sp.B, p3)


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


def phi_surjectivity(Sp: SurfaceModP) -> SurjectivityReport:
    """Exhaustive search for phi-preimages of every point of X(F_p) over pairs
    in U_inv(F_p); reported, never asserted.  The base points P run through
    X(F_p) in order, and U_0 membership (`_u0_core`) is decided only for
    the P reached before every point is hit."""
    p = Sp.p
    if p > 31:
        raise BadPrime("surjectivity sweep limited to p <= 31")
    pts = Sp.points()
    total = len(pts)
    remaining = set(pts)
    pairs_tried = 0
    for P4 in pts:
        if not remaining:
            break
        sec = _u0_core(Sp.f_ints, Sp.g_ints, Sp.B, P4, p)
        if sec is None:
            continue
        for Q4 in pts:
            if not remaining:
                break
            if Q4[:3] == P4[:3]:
                continue
            if _section_value(sec, Q4) % p:
                pairs_tried += 1
                try:
                    R4 = phi_modp(Sp, P4, Q4)
                except DP2Error:
                    continue
                remaining.discard(R4)
    missed = tuple(sorted(remaining))
    return SurjectivityReport(
        p=p, total=total, hit=total - len(missed), missed=missed, pairs_tried=pairs_tried
    )
