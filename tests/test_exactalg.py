"""Exact-arithmetic layer: fields, polynomials, forms, factorization, and the
modular extension-field GCD."""

import random
from fractions import Fraction

import pytest
import sympy as sp
from conftest import (
    domain_matrix,
    int_matrices,
    restrict_line_reference,
    square_by_yun,
    substitute_reference,
)
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from dp2.errors import WrongDegree
from dp2.exactalg import (
    PRIME_TEST_BOUND,
    QQ,
    BinForm,
    Poly,
    PrimeField,
    TernForm,
    content_primitive_ints,
    disc_binary_quartic,
    is_prime,
    is_square_binform,
    poly_gcd,
    poly_xgcd,
    primitive_ints,
    squarefree_factor,
)
from dp2.exactalg.factor import factor_modp, factor_rational
from dp2.exactalg.modgcd import _rational_reconstruct, quotient_gcd
from dp2.exactalg.poly import _nullspace
from dp2.exactalg.quotient import QuotientField


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

    def test_squarefree_multiplicity_divisible_by_p(self):
        # (t - 2)^5 over F_5 is (t^5 - 2): its derivative vanishes, and the
        # factor is found by the p-th-root step, not dropped
        F = PrimeField(5)
        t2, t1 = Poly.from_ints(F, [-2, 1]), Poly.from_ints(F, [1, 1])
        a = t1 * t1
        for _ in range(5):
            a = a * t2
        assert squarefree_factor(a) == [(t1, 2), (t2, 5)]
        assert squarefree_factor(a * t2 * t1) == [(t1, 3), (t2, 6)]


class TestPrimeField:
    def test_inverse(self):
        F = PrimeField(13)
        a = F.from_int(5)
        assert a * a.inverse() == F.one

    def test_fraction_reduction(self):
        F = PrimeField(11)
        assert F.from_int(Fraction(1, 2)) == F.from_int(6)

    def test_pow(self):
        F = PrimeField(11)
        assert F.from_int(2) ** 10 == F.one


class TestIsPrime:
    def test_matches_sympy_below_10_5(self):
        assert [n for n in range(10**5) if is_prime(n) != sp.isprime(n)] == []

    def test_matches_sympy_on_61_bit_numbers(self):
        rng = random.Random(61)
        sample = [rng.randrange(2**60, 2**61) | 1 for _ in range(2000)]
        sample += list(range(2**61 - 200, 2**61 + 1))
        assert [n for n in sample if is_prime(n) != sp.isprime(n)] == []
        assert sum(map(is_prime, sample)) > 50

    def test_strong_pseudoprimes(self):
        # strong pseudoprimes to the bases 2, 3, 5, 7 and to the primes up to 23
        for n in (3215031751, 3825123056546413051):
            assert not sp.isprime(n) and not is_prime(n)

    def test_refuses_beyond_the_exact_bound(self):
        assert is_prime(PRIME_TEST_BOUND - 2) == sp.isprime(PRIME_TEST_BOUND - 2)
        with pytest.raises(ValueError, match="PRIME_TEST_BOUND"):
            is_prime(PRIME_TEST_BOUND)


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


KERNEL_FIELDS = [QQ, PrimeField(5), PrimeField(11), QuotientField(P(-1, -1, 0, 1))]


@st.composite
def restrictions(draw):
    """A form of degree 2 or 4 over one of KERNEL_FIELDS, with two points
    and a 2x2 matrix.  Over Q the coefficients are fractions and the
    entries ints or fractions; over F_p the entries are ints or residues."""
    K = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.sampled_from([2, 4]))

    def frac():  # denominators prime to 5 and 11
        return Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from([1, 2, 3, 4, 6, 12])))

    def coeff():
        a = frac()
        if isinstance(K, QuotientField):
            return K.from_base(a) + K.from_base(frac()) * K.gen
        return K.from_int(a)

    def entry():
        if draw(st.booleans()):
            return draw(st.integers(-20, 20))
        return frac() if K is QQ else coeff()

    monomials = [(i, j, n - i - j) for i in range(n + 1) for j in range(n + 1 - i)]
    chosen = draw(st.lists(st.sampled_from(monomials), unique=True, max_size=len(monomials)))
    form = TernForm(K, n, {m: coeff() for m in chosen})
    binary = BinForm(K, n, [coeff() if draw(st.booleans()) else K.zero for _ in range(n + 1)])
    p1, p2 = ([entry() for _ in range(3)] for _ in range(2))
    m = [[entry(), entry()], [entry(), entry()]]
    return form, p1, p2, binary, m


@seed(5)
@settings(max_examples=200, deadline=2000, database=None)
@given(restrictions())
def test_restriction_kernel_matches_reference(case):
    form, p1, p2, binary, m = case
    assert form.restrict_line(p1, p2) == restrict_line_reference(form, p1, p2)
    assert binary.substitute(m) == substitute_reference(binary, m)


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
        assert ints == (1, 2) and den == Fraction(2, 3)
        assert content_primitive_ints([Fraction(-1, 2), Fraction(3, 4)]) == ((2, -3), Fraction(-1, 4))
        assert content_primitive_ints([Fraction(0), Fraction(0)]) == ((0, 0), 0)

    @pytest.mark.parametrize("ints, expected", [
        ((6, -9, 12), ((2, -3, 4), 3)),
        ((-6, 9, 0), ((2, -3, 0), -3)),
        ((0, 0, -5), ((0, 0, 1), -5)),
        ((0, -4, 6), ((0, 2, -3), -2)),
        ((7,), ((1,), 7)),
        ((0, 0, 0), ((0, 0, 0), 0)),
    ])
    def test_primitive_ints_sign_rule(self, ints, expected):
        """ints / g with the first nonzero entry positive, g = 0 for zeros."""
        assert primitive_ints(ints) == expected


class TestNullspace:
    """`_nullspace` against sympy's DomainMatrix over QQ and GF(p)."""

    @seed(22)
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.sampled_from([0, 5, 11, 2**61 - 1]), int_matrices())
    def test_matches_domain_matrix(self, p, matrix):
        """The same rank and the same span: k independent vectors whose
        span with the reference's k vectors still has dimension k."""
        rows, ncols = matrix
        assume(rows)
        ours = _nullspace(rows, p)
        ref = domain_matrix(rows, ncols, p).nullspace()
        k = len(ours)
        assert k == ref.shape[0] == ncols - domain_matrix(rows, ncols, p).rank()
        if k:
            assert domain_matrix(ours, ncols, p).rank() == k
            assert domain_matrix(ours, ncols, p).vstack(ref).rank() == k
        for vec in ours:
            if p:
                assert all(0 <= v < p for v in vec)
            else:
                assert primitive_ints(vec) == (vec, 1)
