"""Finite-field oracles: reduction, enumeration, base locus, surjectivity."""

import random
from fractions import Fraction

import sympy as sp
import pytest
from conftest import SURFACE_DIR, assert_norm_order, forms_modp, phi_surjectivity_eager

from dp2 import fforacle
from dp2.errors import BadPrime, UnexpectedDimension
from dp2.exactalg import PRIME_TEST_BOUND, QQ, PrimeField, TernForm, factor
from dp2.exactalg.quotient import QuotientField
from dp2.fforacle import (
    SurjectivityReport,
    _base_locus_sections,
    _section_value,
    _sqrt_modp,
    base_locus_oracle,
    base_locus_zeros,
    bitangents_through_modp,
    enumerate_points,
    good_prime,
    good_primes,
    phi_modp,
    phi_surjectivity,
    reduce_point,
    reduce_surface,
    very_general_exceptions,
)
from dp2.geometry import phi
from dp2.surface import PointDP2, _int_value, load_surface, validate_surface

P0 = PointDP2(20, 15, 12, 481)
Q1 = PointDP2(0, 1, 0, 1)
R1 = PointDP2(288600, 130111, 173160, 90126952321)  # = phi(P0, Q1), frozen


class TestGoodPrime:
    def test_two_excluded(self, s0):
        assert not good_prime(s0, 2)

    def test_five_good(self, s0):
        assert good_prime(s0, 5)

    def test_cofinite_in_practice(self, s0):
        odd_primes = [int(p) for p in sp.primerange(3, 200)][:25]
        good = [p for p in odd_primes if good_prime(s0, p)]
        assert len(good) >= 20

    def test_non_prime_rejected(self, s0):
        with pytest.raises(BadPrime):
            reduce_surface(s0, 15)

    def test_prime_beyond_the_exact_bound_rejected(self, s0):
        with pytest.raises(BadPrime, match="PRIME_TEST_BOUND"):
            reduce_surface(s0, int(sp.nextprime(PRIME_TEST_BOUND)))

    def test_bad_primes_of_the_pinned_surfaces(self):
        bad = {}
        for name in ("s0", "s_k", "random2", "random3", "random5"):
            S = load_surface(SURFACE_DIR / f"{name}.json")
            bad[name] = [p for p in sp.primerange(5, 98) if not good_prime(S, p)]
        assert bad == {"s0": [], "s_k": [7], "random2": [7, 13], "random3": [], "random5": [29]}

    def test_branch_quartic_vanishing_mod_p(self):
        # f = x^2, g = x^4 + 5 y^4 + 5 z^4: B = 5 (x^4 + 4 y^4 + 4 z^4) is
        # smooth over Q and zero mod 5
        S = validate_surface(TernForm(QQ, 2, {(2, 0, 0): Fraction(1)}), TernForm(QQ, 4, {
            (4, 0, 0): Fraction(1), (0, 4, 0): Fraction(5), (0, 0, 4): Fraction(5),
        }))
        assert S.B.c == {(4, 0, 0): 5, (0, 4, 0): 20, (0, 0, 4): 20}
        assert not good_prime(S, 5)
        assert good_primes(S, 5, 13) == [7, 11, 13]

    def test_smoothness_factors_nothing(self, monkeypatch):
        """Certifying a smooth branch quartic, over Q or mod p, factors no
        polynomial and builds no number field."""

        def refuse(*_args, **_kwargs):
            raise AssertionError("factoring or a number field in the smoothness test")

        monkeypatch.setattr(factor, "factor_rational", refuse)
        monkeypatch.setattr(factor, "factor_modp", refuse)
        monkeypatch.setattr(QuotientField, "__init__", refuse)
        for name in ("s0", "s_k", "random2", "random3", "random5"):
            S = load_surface(SURFACE_DIR / f"{name}.json")
            for p in sp.primerange(5, 24):
                try:
                    reduce_surface(S, p)
                except BadPrime:
                    assert (name, p) in {("s_k", 7), ("random2", 7), ("random2", 13)}


class TestSqrtModp:
    """The Tonelli-Shanks root on residues: its choice of root fixes the
    order of `enumerate_points`, so the sweep's base points and
    `pairs_tried`."""

    @pytest.mark.parametrize("p", [7, 13, 17, 41])
    def test_roots(self, p):
        # p = 13, 17 and 41 are 1 mod 4 with p - 1 divisible by 4, 16 and 8,
        # so Tonelli's inner loop runs
        squares = {n * n % p for n in range(p)}
        for n in range(-p, 2 * p):
            r = _sqrt_modp(n, p)
            assert (r is not None) == (n % p in squares)
            assert r is None or (0 <= r < p and r * r % p == n % p)

    def test_root_choice_pinned(self):
        assert [_sqrt_modp(n, 17) for n in range(17)] == [
            0, 1, 6, None, 2, None, None, None, 12, 14, None, None, None, 8, None, 7, 4]

    def test_nonsquare(self):
        assert _sqrt_modp(3, 7) is None


class TestEnumerate:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_weil_band_s0(self, s0, p):
        N = len(enumerate_points(s0, p))
        assert abs(N - p * p - 1) <= 8 * p

    def test_points_satisfy_equation(self, s0):
        Sp = reduce_surface(s0, 7)
        F, (f, g) = PrimeField(Sp.p), forms_modp(Sp)
        for (x, y, z, w) in Sp.points():
            xe, ye, ze, we = (F.from_int(v) for v in (x, y, z, w))
            assert we * we + f.evaluate(xe, ye, ze) * we == g.evaluate(xe, ye, ze)

    @pytest.mark.parametrize("name", ["s0", "random2"])
    def test_matches_brute_force(self, name):
        """Every w in range(p) with w^2 + f w = g at each point of P^2(F_p),
        as a set, and no point listed twice."""
        S = load_surface(SURFACE_DIR / f"{name}.json")
        primes = good_primes(S, 5, 60)
        assert len(primes) >= 10
        for p in primes:
            Sp = reduce_surface(S, p)
            f, g = forms_modp(Sp)
            plane = [(1, y, z) for y in range(p) for z in range(p)] + [(0, 1, z) for z in range(p)] + [(0, 0, 1)]
            brute = set()
            for x, y, z in plane:
                fv, gv = f.evaluate(x, y, z).r, g.evaluate(x, y, z).r
                brute.update((x, y, z, w) for w in range(p) if (w * w + fv * w - gv) % p == 0)
            pts = enumerate_points(S, p)
            assert len(pts) == len(set(pts)) and set(pts) == brute, p

    def test_ramification_iff_disc_zero(self, s0):
        Sp = reduce_surface(s0, 11)
        F, (f, _) = PrimeField(Sp.p), forms_modp(Sp)
        for (x, y, z, w) in Sp.points():
            xe, ye, ze, we = (F.from_int(v) for v in (x, y, z, w))
            on_ram = F.is_zero(2 * we + f.evaluate(xe, ye, ze))
            assert on_ram == (_int_value(Sp.B, x, y, z) % Sp.p == 0)


class TestBaseLocus:
    @pytest.mark.parametrize("p", [7, 17, 19, 23, 29])
    def test_confirms_frozen_phi(self, s0, p):
        assert base_locus_oracle(reduce_surface(s0, p), P0, Q1, R1)

    def test_uniqueness(self, s0):
        # replacing R by any other F_p-point changes the zero set
        p = 17
        Sp = reduce_surface(s0, p)
        Pm, Qm, Rm = (reduce_point(Sp, T) for T in (P0, Q1, R1))
        zeros = base_locus_zeros(Sp, Pm, Qm)
        assert zeros == {Pm, Qm, Rm}
        for T in Sp.points():
            if T in (Pm, Qm, Rm):
                continue
            assert {Pm, Qm, T} != zeros

    @pytest.mark.parametrize("name", ["random2", "s0"])
    @pytest.mark.parametrize("p", [11, 17])
    def test_sections_by_norm(self, name, p):
        """Each basis section vanishes to order >= 2 at P along four seeded
        lines other than those `_section_condition_rows` uses, by the
        series-free norm, and vanishes at Q."""
        Sp = reduce_surface(load_surface(SURFACE_DIR / f"{name}.json"), p)
        f, g = forms_modp(Sp)
        rng = random.Random(p)
        checked = 0
        for _ in range(12):
            Pm, Qm = rng.sample(Sp.points(), 2)
            try:
                basis = _base_locus_sections(Sp, Pm, Qm)
            except (BadPrime, UnexpectedDimension):
                continue
            checked += 1
            for vec in basis:
                assert _section_value(vec, Qm) % p == 0
                assert_norm_order(f, g, vec, Pm, 2, seed=checked)
        assert checked >= 8

    def test_bad_prime_never_wrong(self, s0):
        # 13 divides w(P0): the configuration degenerates and is refused
        Sp = reduce_surface(s0, 13)
        with pytest.raises(BadPrime):
            base_locus_oracle(Sp, P0, Q1, R1)


class TestPhiModP:
    @pytest.mark.parametrize("p", [17, 19, 29])
    def test_reduction_compatibility(self, s0, p):
        Sp = reduce_surface(s0, p)
        lhs = phi_modp(Sp, reduce_point(Sp, P0), reduce_point(Sp, Q1))
        assert lhs == reduce_point(Sp, R1)

    def test_on_random_surface(self, random_surfaces):
        from dp2.covers import context_for

        S = random_surfaces[0]
        ctx = context_for(S)
        from dp2.covers import f1

        Q = f1(ctx, (1, 4))
        R = phi(S, ctx.P0, Q)
        hits = 0
        for p in good_primes(S, 5, 60):
            Sp = reduce_surface(S, p)
            try:
                lhs = phi_modp(Sp, reduce_point(Sp, ctx.P0), reduce_point(Sp, Q))
            except Exception:
                continue
            assert lhs == reduce_point(Sp, R)
            hits += 1
            if hits == 3:
                break
        assert hits == 3


class TestClassificationPersistence:
    def test_very_general_persists(self, s0):
        # reduction can create bitangency at small primes; the exception
        # list is explicit and pinned, and the verdict persists at the
        # remaining good primes
        primes = [p for p in good_primes(s0, 5, 60) if 481 % p != 0]
        exceptions = very_general_exceptions(s0, P0, primes)
        assert exceptions == [5, 7, 17, 23, 47]
        assert very_general_exceptions(s0, P0, [11, 19, 29, 31, 41]) == []

    def test_bitangents_mod_p_at_eckardt_image(self, s0):
        # reduction can create but never destroy bitangency
        Sp = reduce_surface(s0, 11)
        assert bitangents_through_modp(Sp, (1, 0, 0)) >= 4


class TestSurjectivity:
    def test_pinned_p11(self, s0):
        rep = phi_surjectivity(reduce_surface(s0, 11))
        assert rep.total == 122
        assert rep.hit == 122
        assert rep.missed == ()
        assert rep.hit + len(rep.missed) == rep.total

    @pytest.mark.parametrize("name, p", [("random2", 11), ("s0", 11), ("s0", 17)])
    def test_matches_eager_reference(self, name, p):
        """Deciding U_0 only for the base points the sweep reaches changes no
        report; s0 mod 17 has no point in U_0 (criterion 8's hit 0)."""
        Sp = reduce_surface(load_surface(SURFACE_DIR / f"{name}.json"), p)
        assert phi_surjectivity(Sp) == phi_surjectivity_eager(Sp)

    def test_u0_decided_only_for_base_points_reached(self, monkeypatch):
        """random2 mod 11: every point is hit from the first three base
        points, so U_0 is decided three times, not for all 111 points."""
        real, calls = fforacle._u0_core, []

        def counting(f, g, B, P4, p):
            calls.append(P4)
            return real(f, g, B, P4, p)

        monkeypatch.setattr(fforacle, "_u0_core", counting)
        rep = phi_surjectivity(reduce_surface(load_surface(SURFACE_DIR / "random2.json"), 11))
        assert rep.hit == rep.total == 111
        assert len(calls) == 3

    def test_large_prime_rejected(self, s0):
        Sp = reduce_surface(s0, 37)
        with pytest.raises(BadPrime):
            phi_surjectivity(Sp)

    def test_report_shape(self):
        rep = SurjectivityReport(p=11, total=3, hit=2, missed=((0, 0, 1, 0),), pairs_tried=5)
        assert rep.coverage == pytest.approx(2 / 3)
        assert SurjectivityReport(p=11, total=0, hit=0, missed=(), pairs_tried=0).coverage == 1.0
