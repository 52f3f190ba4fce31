"""Exact-arithmetic layer: fields, polynomials, forms, factorization, and the
modular extension-field GCD."""

from fractions import Fraction

import pytest
from conftest import square_by_yun
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dp2.errors import WrongDegree
from dp2.exactalg import (
    QQ,
    BinForm,
    Poly,
    PrimeField,
    QuotientField,
    TernForm,
    content_primitive_ints,
    disc_binary_quartic,
    factor_modp,
    factor_rational,
    is_square_binform,
    poly_gcd,
    poly_xgcd,
    squarefree_factor,
)
from dp2.exactalg.modgcd import _rational_reconstruct, quotient_gcd


def P(*ints):
    return Poly.from_ints(QQ, ints)


class TestPoly:
    def test_zero_degree(self):
        assert Poly.zero(QQ).degree == -1
        assert P(0, 0).is_zero()

    def test_divmod(self):
        a, b = P(-1, 0, 0, 0, 1), P(-1, 1)  # t^4 - 1, t - 1
        q, r = a.divmod(b)
        assert r.is_zero()
        assert q == P(1, 1, 1, 1)

    def test_gcd_subresultant(self):
        a = P(-1, 0, 1) * P(2, 3, 1) * P(5)
        b = P(-1, 0, 1) * P(1, 1)
        assert poly_gcd(a, b) == (P(-1, 0, 1) * P(1, 1)).monic()

    def test_xgcd_bezout(self):
        a, b = P(6, 7, 1), P(2, 1)
        g, u, v = poly_xgcd(a, b)
        assert u * a + v * b == g

    def test_squarefree_yun(self):
        a = P(1, 1) * P(1, 1) * P(-2, 1)
        parts = squarefree_factor(a)
        assert parts == [(P(-2, 1).monic(), 1), (P(1, 1).monic(), 2)]


class TestPrimeField:
    def test_inverse_and_sqrt(self):
        F = PrimeField(13)
        a = F.from_int(5)
        assert a * a.inverse() == F.one
        sq = F.from_int(3) * F.from_int(3)
        assert F.is_square(sq)
        r = F.sqrt(sq)
        assert r * r == sq

    def test_nonsquare(self):
        F = PrimeField(7)
        assert not F.is_square(F.from_int(3))

    def test_fraction_reduction(self):
        F = PrimeField(11)
        assert F.from_int(Fraction(1, 2)) == F.from_int(6)

    def test_pow(self):
        F = PrimeField(11)
        assert F.from_int(2) ** 10 == F.one


class TestBinForm:
    def test_degree_check(self):
        with pytest.raises(WrongDegree):
            BinForm(QQ, 4, [Fraction(1)] * 3)

    def test_disc_quartic_smooth(self):
        # s^4 + t^4 is squarefree
        q = BinForm(QQ, 4, [Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(1)])
        assert disc_binary_quartic(q) != 0

    def test_is_square(self):
        # (s^2 + t^2)^2
        sq = BinForm(QQ, 4, [Fraction(1), Fraction(0), Fraction(2), Fraction(0), Fraction(1)])
        assert is_square_binform(sq)
        # 2*(s^2+t^2)^2 is a square up to scalar
        assert is_square_binform(sq.scale(Fraction(2)))
        # s^4 + t^4 has four simple roots
        assert not is_square_binform(BinForm(QQ, 4, [Fraction(1), 0, 0, 0, Fraction(1)]))
        # a4 = 0 or a3 = a4 = 0, and the zero form
        for coeffs, square in [
            ((0, 0, 0, 0, 0), True),
            ((3, 0, 0, 0, 0), True),    # 3 s^4
            ((1, 2, 1, 0, 0), True),    # s^2 (s + t)^2
            ((1, 3, 1, 0, 0), False),   # s^2 (s^2 + 3 s t + t^2)
            ((1, 0, 0, 1, 0), False),   # s (s^3 + t^3)
            ((0, 0, 0, 0, 5), True),    # 5 t^4
            ((0, 0, 0, 1, 1), False),   # s t^3 + t^4
        ]:
            assert is_square_binform(BinForm.from_ints(QQ, 4, coeffs)) is square, coeffs
        # the closed form holds in characteristic 3, where Yun's does not
        assert is_square_binform(BinForm.from_ints(PrimeField(3), 4, [1, 0, 0, 0, 0]))

    def test_restrict_line(self):
        B = TernForm(QQ, 4, {(4, 0, 0): Fraction(1), (0, 4, 0): Fraction(1), (0, 0, 4): Fraction(1)})
        q = B.restrict_line((Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0)))
        assert q.c == [Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(1)]


# Yun's method needs multiplicities below the characteristic: F_3 is left out
SQUARE_TEST_FIELDS = [QQ, PrimeField(5), PrimeField(7), PrimeField(11), QuotientField(P(-1, -1, 0, 1))]


@st.composite
def binary_quartics(draw):
    """Quartics over one of SQUARE_TEST_FIELDS: arbitrary ones, scaled
    squares c * h^2, and either kind with a4 or a3, a4 set to zero."""
    K = draw(st.sampled_from(SQUARE_TEST_FIELDS))

    def elt():
        a, b = (Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))) for _ in range(2))
        if isinstance(K, QuotientField):
            return K.from_base(a) + K.from_base(b) * K.gen
        return K.from_int(a)

    if draw(st.booleans()):
        h = BinForm(K, 2, [elt() for _ in range(3)])
        q = (h * h).scale(elt())
    else:
        q = BinForm(K, 4, [elt() for _ in range(5)])
    zeros = draw(st.sampled_from([(), (4,), (3, 4)]))
    return BinForm(K, 4, [K.zero if i in zeros else a for i, a in enumerate(q.c)])


@seed(4)
@settings(max_examples=300, deadline=2000, database=None)
@given(binary_quartics())
def test_square_conditions_match_yun(q):
    assert is_square_binform(q) == square_by_yun(q)


class TestQuotientField:
    def test_inverse(self):
        K = QuotientField(P(-2, 0, 1))  # Q(sqrt 2)
        a = K.gen + 1
        assert a * (K.one / a) == K.one


class TestFactor:
    def test_rational(self):
        a = P(-1, 0, 1) * P(1, 0, 1)
        factors = factor_rational(a)
        degs = sorted(d.degree for d, _ in factors)
        assert degs == [1, 1, 2]

    def test_modp(self):
        F = PrimeField(5)
        a = Poly.from_ints(F, [1, 0, 1])  # t^2 + 1 = (t+2)(t+3) mod 5
        factors = factor_modp(a)
        assert sorted(d.degree for d, _ in factors) == [1, 1]


class TestModGcd:
    def test_rational_reconstruct(self):
        m = 10**9 + 7
        c = Fraction(22, 7)
        residue = c.numerator * pow(c.denominator, -1, m) % m
        assert _rational_reconstruct(residue, m) == c

    def test_agrees_with_euclid_small(self):
        K = QuotientField(P(-2, 0, 1))
        t = Poly(K, [K.gen, K.one])          # v + sqrt2
        a = t * Poly(K, [K.one, K.one])      # (v + sqrt2)(v + 1)
        b = t * Poly(K, [K.from_int(3), K.one])
        g = quotient_gcd(a, b)
        assert g == t.monic()

    def test_large_extension(self):
        # an irreducible degree-8 modulus exercises the modular path
        d = P(3, 1, 0, 0, 0, 0, 0, 0, 1)  # t^8 + t + 3
        assert len(factor_rational(d)) == 1
        K = QuotientField(d)
        t = Poly(K, [K.gen * K.gen + 1, K.one])
        a = t * Poly(K, [K.gen, K.from_int(2), K.one])
        b = t * Poly(K, [K.one, K.gen, K.one])
        g = quotient_gcd(a, b)
        assert g == t.monic()
        assert (a % g).is_zero() and (b % g).is_zero()

    def test_coprime(self):
        d = P(3, 1, 0, 0, 0, 0, 0, 0, 1)
        K = QuotientField(d)
        a = Poly(K, [K.gen, K.one])
        b = Poly(K, [K.gen + 1, K.one])
        assert quotient_gcd(a, b).degree == 0


class TestContent:
    def test_primitive(self):
        ints, den = content_primitive_ints([Fraction(2, 3), Fraction(4, 3)])
        assert ints == [1, 2]
