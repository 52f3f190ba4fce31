"""Exact arithmetic: fields, polynomials, forms, factorization."""

from .factor import factor_modp, factor_rational, factor_univariate
from .field import PRIME_TEST_BOUND, QQ, PrimeField, PrimeFieldElt, RationalField, is_prime
from .poly import (
    BinForm,
    Poly,
    TernForm,
    content_primitive_ints,
    disc_binary_quartic,
    is_square_binform,
    poly_gcd,
    poly_xgcd,
    square_conditions,
    squarefree_factor,
)
from .quotient import QuotientElt, QuotientField

__all__ = [
    "PRIME_TEST_BOUND",
    "QQ",
    "BinForm",
    "Poly",
    "PrimeField",
    "PrimeFieldElt",
    "QuotientElt",
    "QuotientField",
    "RationalField",
    "TernForm",
    "content_primitive_ints",
    "disc_binary_quartic",
    "factor_modp",
    "factor_rational",
    "factor_univariate",
    "is_prime",
    "is_square_binform",
    "poly_gcd",
    "poly_xgcd",
    "square_conditions",
    "squarefree_factor",
]
