"""Surface model: validation, normalization, points, kappa, Geiser, lift,
file format."""

import random
import time
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest
from conftest import is_smooth_by_elimination
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from sympy import nextprime

from dp2.errors import NotOnSurface, SingularBranchCurve, WrongDegree
from dp2.exactalg import QQ, PrimeField, TernForm
from dp2.geometry import _pullback, _random_unimodular
from dp2.surface import (
    PointDP2,
    _is_smooth_quartic,
    PointP2,
    geiser,
    kappa,
    lift,
    load_surface,
    on_ramification,
    on_surface,
    parse_surface,
    serialize_surface,
    validate_surface,
)

SURFACE_DIR = Path(__file__).resolve().parent.parent / "surfaces"
PRIME_21 = 100000000000000000039  # the least prime above 10^20


class TestValidate:
    def test_s0_valid(self, s0):
        assert not s0.f.c
        assert s0.B.c[(4, 0, 0)] == 4

    def test_sk_valid(self, sk):
        assert sk.g.c[(3, 1, 0)] == 1

    def test_singular_branch_rejected(self):
        g = TernForm(QQ, 4, {(4, 0, 0): Fraction(1)})
        with pytest.raises(SingularBranchCurve):
            validate_surface(TernForm(QQ, 2, {}), g)

    def test_wrong_degrees(self):
        with pytest.raises(WrongDegree):
            validate_surface(TernForm(QQ, 3, {}), TernForm(QQ, 4, {}))

    def test_normalization_rescaling(self, s0):
        g = TernForm(
            QQ,
            4,
            {
                (4, 0, 0): Fraction(1, 16),
                (0, 4, 0): Fraction(1, 16),
                (0, 0, 4): Fraction(1, 16),
            },
        )
        S = validate_surface(TernForm(QQ, 2, {}), g)
        assert S.g.c == s0.g.c and S.f.c == s0.f.c
        # (c f, c^2 g) is the same surface; with f != 0 both f and g bound mu
        r2 = load_surface(SURFACE_DIR / "random2.json")
        for c in (Fraction(2, 3), Fraction(12)):
            S = validate_surface(r2.f.scale(c), r2.g.scale(c * c))
            assert S.f.c == r2.f.c and S.g.c == r2.g.c

    def test_large_prime_coefficient_validates_fast(self):
        # a 21-digit prime that divides no denominator and not the joint
        # content leaves mu alone; trial division up to its square root did not
        start = time.perf_counter()
        S = validate_surface(TernForm(QQ, 2, {(1, 1, 0): Fraction(1)}), TernForm(QQ, 4, {
            (4, 0, 0): Fraction(1), (0, 4, 0): Fraction(1), (0, 0, 4): Fraction(PRIME_21),
        }))
        assert time.perf_counter() - start < 1
        assert S.g.c[(0, 0, 4)] == PRIME_21

    def test_large_prime_scaling_normalises_back(self, random_surfaces):
        for S in random_surfaces:
            q = Fraction(PRIME_21)
            for c in (q, 1 / q):
                T = validate_surface(S.f.scale(c), S.g.scale(c * c))
                assert T.f.c == S.f.c and T.g.c == S.g.c

    def test_odd_power_denominator_of_g(self, s0):
        # with f = 0, mu = min r with d | r^2: the one case that needs the
        # primes of d (12 = 2^2 * 3 gives mu = 6, leaving 3 g)
        for d, left in ((12, 3), (PRIME_21, PRIME_21)):
            S = validate_surface(s0.f, s0.g.scale(Fraction(1, d)))
            assert S.g.c == s0.g.scale(Fraction(left)).c

    def test_square_cover_beyond_the_digit_bound(self, s0):
        # f = 0 and g / (p q), p and q primes of 27 digits: mu needs the
        # primes of the 54-digit p q, which is refused instead of factored
        p, q = nextprime(10**26), nextprime(3 * 10**26)
        start = time.monotonic()
        with pytest.raises(ValueError, match="MAX_SQUARE_COVER_DIGITS"):
            validate_surface(s0.f, s0.g.scale(Fraction(1, p * q)))
        assert time.monotonic() - start < 1.0

    def test_random_surfaces_valid(self, random_surfaces):
        for S in random_surfaces:
            assert S.equation_at(1, 1, 1, 1)


def _form(rng, degree, binary=False) -> TernForm:
    """Random ternary form with coefficients in [-3, 3]; with binary, a
    form in x and y alone."""
    mons = [(i, degree - i - k, k) for i in range(degree + 1) for k in range(degree + 1 - i)]
    mons = [m for m in mons if not (binary and m[2])]
    return TernForm(QQ, degree, {m: Fraction(rng.randint(-3, 3)) for m in mons})


def _quartic(family: str, rng) -> TernForm:
    """A random quartic of one of SMOOTHNESS_FAMILIES.  "node" and "cusp"
    are singular at (0:0:1), z^2 q + z c3 + c4 with q a random (or squared)
    binary quadratic, moved by a random unimodular frame; "pair" lies in
    (z, n)^2 for a binary quadratic n, so it is singular at the two zeros
    of n on z = 0, a conjugate pair when disc n is not a square."""
    z = TernForm(QQ, 1, {(0, 0, 1): Fraction(1)})
    if family == "random":
        return _form(rng, 4)
    if family in ("node", "cusp"):
        line = _form(rng, 1, binary=True)
        q = _form(rng, 2, binary=True) if family == "node" else line * line
        B = z * z * q + z * _form(rng, 3, binary=True) + _form(rng, 4, binary=True)
        frame = _pullback(_int_terms(B), _random_unimodular(rng))
        return TernForm(QQ, 4, {e: Fraction(c) for e, c in frame})
    if family == "pair":
        n, c = _form(rng, 2, binary=True), Fraction(rng.randint(-3, 3))
        return z * z * _form(rng, 2) + z * n * _form(rng, 1) + (n * n).scale(c)
    if family == "cubic_line":
        return _form(rng, 3) * _form(rng, 1)
    if family == "conic_conic":
        return _form(rng, 2) * _form(rng, 2)
    conic = _form(rng, 2)
    return (conic * conic).scale(Fraction(rng.choice((-2, -1, 1, 3))))


def _int_terms(B: TernForm) -> list:
    """The terms (e, c) of a form with integral Fraction coefficients, c an int."""
    return [(e, int(v)) for e, v in B.c.items()]


SMOOTHNESS_FAMILIES = ("random", "node", "cusp", "pair", "cubic_line", "conic_conic", "double_conic")


class TestSmoothness:
    @seed(8)
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.sampled_from(SMOOTHNESS_FAMILIES), st.integers(0, 10**9))
    def test_rank_matches_elimination(self, family, n):
        """The Macaulay rank test and the elimination reference agree over
        Q and over F_5, ..., F_17; every family but "random" is singular."""
        B = _quartic(family, random.Random(n))
        smooth = _is_smooth_quartic(_int_terms(B))
        assert smooth == is_smooth_by_elimination(B)
        assert not smooth or family == "random"
        for p in (5, 7, 11, 13, 17):
            Bp = TernForm(PrimeField(p), 4, {e: PrimeField(p).from_int(v) for e, v in B.c.items()})
            residues = [(e, c % p) for e, c in _int_terms(B) if c % p]
            assert _is_smooth_quartic(residues, p) == is_smooth_by_elimination(Bp), p

    def test_huge_smooth_quartic_validates_fast(self):
        # 300-digit coefficients: one elimination mod one prime suffices
        rng = random.Random(300)
        mons = [(i, j, 4 - i - j) for i in range(5) for j in range(5 - i)]
        g = TernForm(QQ, 4, {m: Fraction(rng.randrange(10**299, 10**300)) for m in mons})
        start = time.perf_counter()
        validate_surface(TernForm(QQ, 2, {}), g)
        assert time.perf_counter() - start < 1

    def test_huge_singular_quartic_rejected_in_bounded_time(self):
        # 100-digit coefficients and no z^4, x z^3, y z^3: singular at
        # (0:0:1), so every prime up to the Hadamard bound is tried
        rng = random.Random(100)
        mons = [(i, j, 4 - i - j) for i in range(5) for j in range(5 - i) if i + j > 1]
        g = TernForm(QQ, 4, {m: Fraction(rng.randrange(10**99, 10**100)) for m in mons})
        start = time.perf_counter()
        with pytest.raises(SingularBranchCurve):
            validate_surface(TernForm(QQ, 2, {}), g)
        assert time.perf_counter() - start < 5


class TestPoints:
    def test_on_surface_canonical(self, s0):
        assert on_surface(s0, 1, 0, 0, 1) == PointDP2(1, 0, 0, 1)
        assert on_surface(s0, 2, 0, 0, 4) == PointDP2(1, 0, 0, 1)

    def test_not_on_surface(self, s0):
        with pytest.raises(NotOnSurface):
            on_surface(s0, 1, 1, 0, 1)

    def test_parse(self):
        assert PointDP2.parse("1:0:0:-1") == PointDP2(1, 0, 0, -1)
        with pytest.raises(ValueError):
            PointDP2.parse("1:2")
        with pytest.raises(ValueError):
            PointDP2.parse("0:0:0:1")

    def test_p2_make_on_ints_matches_fraction_normalization(self):
        """`PointP2.make` divides by the gcd and makes the first nonzero
        entry positive, as a reference on the gcd of Fractions does."""
        rng = random.Random(7)
        triples = [(0, 0, -3), (0, -4, 6), (-6, 9, 0), (12, -18, 30)]
        triples += [tuple(rng.randint(-50, 50) for _ in range(3)) for _ in range(200)]
        for xyz in triples:
            if any(xyz):
                g = Fraction(gcd(*xyz))
                if next(n for n in xyz if n) < 0:
                    g = -g
                assert PointP2.make(*xyz).coords() == tuple(Fraction(n) / g for n in xyz), xyz
        with pytest.raises(ValueError, match="not a projective point"):
            PointP2.make(0, 0, 0)

    def test_kappa(self, sk):
        assert kappa(PointDP2(0, 0, 1, 0)) == PointP2(0, 0, 1)


class TestGeiser:
    def test_s0(self, s0):
        assert geiser(s0, PointDP2(1, 0, 0, 1)) == PointDP2(1, 0, 0, -1)

    def test_fixed_point(self, sk):
        P = PointDP2(0, 0, 1, 0)
        assert geiser(sk, P) == P
        assert on_ramification(sk, P)

    def test_involution_everywhere(self, s0):
        P = PointDP2(20, 15, 12, 481)
        assert geiser(s0, geiser(s0, P)) == P
        assert not on_ramification(s0, P)


class TestLift:
    def test_two_lifts(self, s0):
        assert lift(s0, PointP2(1, 0, 0)) == [PointDP2(1, 0, 0, -1), PointDP2(1, 0, 0, 1)]

    def test_no_lift(self, s0):
        assert lift(s0, PointP2(1, 1, 0)) == []

    def test_ramified_lift(self, sk):
        assert lift(sk, PointP2(0, 0, 1)) == [PointDP2(0, 0, 1, 0)]

    @pytest.mark.parametrize("name", ["s0", "s_k", "random2", "random3", "random5"])
    def test_matches_fraction_reference(self, name):
        """`lift` on ints against f and g evaluated on Fractions and the
        root taken over Q, on seeded points of P^2 of heights 4 to 10^20,
        and at a known point of s0 of height 288600."""
        S = load_surface(SURFACE_DIR / f"{name}.json")
        rng = random.Random(name)
        pts = [PointP2(288600, 130111, 173160)]
        for bound in (4, 4, 4, 10**3, 10**20):
            pts += [PointP2.make(*xyz) for xyz in (
                [rng.randint(-bound, bound) for _ in range(3)] for _ in range(60)) if any(xyz)]
        counts = set()
        for p in pts:
            got = lift(S, p)
            assert got == _lift_by_fractions(S, p), p
            counts.add(len(got))
        assert {0, 2} <= counts


def _lift_by_fractions(S, p):
    """Reference for `lift`: f, g and the root of f^2 + 4g over Q."""
    fx, gx = (h.evaluate(*map(Fraction, p.coords())) for h in (S.f, S.g))
    disc = fx * fx + 4 * gx
    if disc < 0:
        return []
    r = Fraction(isqrt(disc.numerator), isqrt(disc.denominator))
    if r * r != disc:
        return []
    ws = sorted({(-fx + r) / 2, (-fx - r) / 2})
    assert all(w.denominator == 1 for w in ws)
    return [PointDP2(p.x, p.y, p.z, int(w)) for w in ws]


class TestFileFormat:
    def test_round_trip(self, s0):
        S = parse_surface(serialize_surface(s0))
        assert S.f.c == s0.f.c and S.g.c == s0.g.c

    def test_checked_in_files(self, s0, sk, random_surfaces):
        assert load_surface(str(SURFACE_DIR / "s0.json")).g.c == s0.g.c
        assert load_surface(str(SURFACE_DIR / "s_k.json")).g.c == sk.g.c
        for seed, S in zip((2, 3, 5), random_surfaces):
            assert load_surface(str(SURFACE_DIR / f"random{seed}.json")).g.c == S.g.c
