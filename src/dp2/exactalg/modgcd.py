"""Modular GCD for polynomials over Q[t]/(d).

Monic Euclid over a number field suffers severe intermediate coefficient
blowup.  This module computes the GCD modulo word-sized primes (where the
quotient-ring arithmetic is cheap), reconstructs rational coefficients by CRT
and rational reconstruction, and certifies the answer by exact trial division.

Certification is rigorous: for any prime p where the reductions keep their
degrees, deg gcd_p >= deg gcd over Q(alpha).  A verified monic common divisor
whose degree matches the smallest modular degree is therefore the GCD.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd, isqrt

import sympy as sp

from .field import PrimeField, RationalField
from .poly import Poly, poly_gcd
from .quotient import QuotientElt, QuotientField

_MAX_PRIMES = 400


def _rational_reconstruct(c: int, m: int) -> Fraction | None:
    """n/d with n = c*d (mod m), |n|, d <= sqrt(m/2), or None."""
    c %= m
    bound = isqrt(m // 2)
    r0, r1 = m, c
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    if s1 < 0:
        r1, s1 = -r1, -s1
    if igcd(abs(r1), s1) != 1:
        return None
    return Fraction(r1, s1)


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Residue mod m1*m2 matching r1 mod m1 and r2 mod m2 (m1, m2 coprime)."""
    t = (r2 - r1) * pow(m1, -1, m2) % m2
    return r1 + m1 * t


def _reduce_rational_poly(Fp: PrimeField, p: Poly) -> Poly:
    return Poly(Fp, [Fp.from_int(a) for a in p.c])


def _reduce_quotient_poly(Kp: QuotientField, A: Poly) -> Poly:
    Fp = Kp.base
    out = []
    for a in A.c:
        out.append(QuotientElt(Kp, _reduce_rational_poly(Fp, a.v)))
    return Poly(Kp, out)


def _residue_table(gp: Poly, ext_deg: int) -> list[list[int]]:
    """Integer residues of a monic polynomial over F_p[t]/(d_p)."""
    rows = []
    for i in range(gp.degree):
        coeff = gp.coeff(i)
        rows.append([coeff.v.coeff(j).r for j in range(ext_deg)])
    return rows


def _try_candidate(K: QuotientField, rows: list[list[int]], modulus: int, deg: int) -> Poly | None:
    coeffs = []
    for row in rows:
        fracs = []
        for r in row:
            q = _rational_reconstruct(r, modulus)
            if q is None:
                return None
            fracs.append(q)
        coeffs.append(QuotientElt(K, Poly(K.base, fracs)))
    coeffs.append(K.one)
    return Poly(K, coeffs)


def quotient_gcd(A: Poly, B: Poly) -> Poly:
    """Monic GCD of A, B in K[v] for K = Q[t]/(d) (d irreducible), computed
    modulo primes with CRT reconstruction and exact verification."""
    K = A.field
    if not isinstance(K, QuotientField) or not isinstance(K.base, RationalField):
        return poly_gcd(A, B)
    if A.is_zero() or B.is_zero():
        return poly_gcd(A, B)
    if K.degree <= 6:
        return poly_gcd(A, B)
    d = K.modulus
    best_deg: int | None = None
    rows: list[list[int]] = []
    modulus = 1
    p = 1 << 62
    for _ in range(_MAX_PRIMES):
        p = int(sp.prevprime(p))
        try:
            Fp = PrimeField(p)
            dp = _reduce_rational_poly(Fp, d)
            if dp.degree != d.degree:
                continue
            if poly_gcd(dp, dp.derivative()).degree != 0:
                continue
            Kp = QuotientField(dp)
            Ap = _reduce_quotient_poly(Kp, A)
            Bp = _reduce_quotient_poly(Kp, B)
            if Ap.degree != A.degree or Bp.degree != B.degree:
                continue
            gp = poly_gcd(Ap, Bp)
        except (ZeroDivisionError, ValueError):
            continue
        if gp.degree == 0:
            return Poly(K, [K.one])
        if best_deg is None or gp.degree < best_deg:
            best_deg = gp.degree
            rows = _residue_table(gp, K.degree)
            modulus = p
        elif gp.degree == best_deg:
            new_rows = _residue_table(gp, K.degree)
            rows = [
                [_crt_pair(r1, modulus, r2, p) for r1, r2 in zip(row1, row2)]
                for row1, row2 in zip(rows, new_rows)
            ]
            modulus *= p
        else:
            continue
        cand = _try_candidate(K, rows, modulus, best_deg)
        if cand is not None and (A % cand).is_zero() and (B % cand).is_zero():
            return cand
    raise RuntimeError("modular GCD over the extension failed to stabilize")
