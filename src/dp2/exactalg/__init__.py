"""Exact arithmetic: fields, polynomials, forms.  Factorization (`factor`)
and the number fields Q(alpha) (`quotient`) are imported from their
submodules."""

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
    primitive_ints,
    square_conditions,
    squarefree_factor,
)

__all__ = [
    "PRIME_TEST_BOUND",
    "QQ",
    "BinForm",
    "Poly",
    "PrimeField",
    "PrimeFieldElt",
    "RationalField",
    "TernForm",
    "content_primitive_ints",
    "disc_binary_quartic",
    "is_prime",
    "is_square_binform",
    "poly_gcd",
    "poly_xgcd",
    "primitive_ints",
    "square_conditions",
    "squarefree_factor",
]
