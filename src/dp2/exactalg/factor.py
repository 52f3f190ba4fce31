"""Irreducible factorization of univariate polynomials over Q and F_p.

Backed by sympy's factorization engine (Zassenhaus over Q, Berlekamp /
Cantor-Zassenhaus mod p); everything else in this package is hand-rolled.
"""

from __future__ import annotations

from fractions import Fraction

import sympy as sp

from ..errors import ZeroPolynomial
from .field import PrimeField, RationalField
from .poly import Poly

_T = sp.Symbol("_t")

MAX_FACTOR_DEGREE = 64


def to_sympy(p: Poly):
    return sum(sp.Rational(c) * _T**i for i, c in enumerate(p.c))


def factor_rational(a: Poly) -> list[tuple[Poly, int]]:
    """Irreducible monic factors over Q with multiplicities; the product of
    factor^mult equals a up to a nonzero rational scalar."""
    if a.is_zero():
        raise ZeroPolynomial("cannot factor 0")
    if a.degree > MAX_FACTOR_DEGREE:
        raise ValueError(f"degree {a.degree} beyond supported scale")
    if a.degree == 0:
        return []
    _, factors = sp.Poly(to_sympy(a), _T).factor_list()
    out = []
    for f, mult in factors:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in map(sp.Rational, reversed(f.all_coeffs()))]
        out.append((Poly(a.field, coeffs).monic(), int(mult)))
    out.sort(key=lambda fm: (fm[0].degree, [str(c) for c in fm[0].c]))
    return out


def factor_modp(a: Poly) -> list[tuple[Poly, int]]:
    """Irreducible monic factors over F_p with multiplicities."""
    if a.is_zero():
        raise ZeroPolynomial("cannot factor 0")
    F = a.field
    if not isinstance(F, PrimeField):
        raise TypeError("factor_modp needs coefficients in a prime field")
    if a.degree == 0:
        return []
    expr = sum(int(c.r) * _T**i for i, c in enumerate(a.c))
    _, factors = sp.Poly(expr, _T, modulus=F.p, symmetric=False).factor_list()
    out = []
    for f, mult in factors:
        coeffs = [F.from_int(int(c) % F.p) for c in reversed(f.all_coeffs())]
        out.append((Poly(F, coeffs).monic(), int(mult)))
    out.sort(key=lambda fm: (fm[0].degree, [c.r for c in fm[0].c]))
    return out


def factor_univariate(a: Poly) -> list[tuple[Poly, int]]:
    if isinstance(a.field, RationalField):
        return factor_rational(a)
    return factor_modp(a)
