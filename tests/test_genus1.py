"""Genus-1 fibers: pullback models, classification, Weierstrass transport,
and the divisor-class engine lin_comb/neg_wrt."""

from fractions import Fraction

import pytest

from dp2.errors import ReducibleModel
from dp2.exactalg import QQ
from dp2.genus1 import (
    ModelClass,
    classify_model,
    lin_comb,
    make_curve_point,
    neg_wrt,
    pullback_generic,
    to_weierstrass,
)


class TestPullback:
    def test_s0_line_z0(self, s0):
        # (s:t) -> (s:t:0): a = 0, b = s^4 + t^4
        M = pullback_generic(QQ, s0.f_ints, s0.g_ints, (1, 0, 0), (0, 1, 0))
        assert all(c == 0 for c in M.a.c)
        assert M.b.c == [Fraction(1), 0, 0, 0, Fraction(1)]

    def test_sk_line_x0(self, sk):
        # (s:t) -> (0:s:t): a = 0, b = s^3 t
        M = pullback_generic(QQ, sk.f_ints, sk.g_ints, (0, 1, 0), (0, 0, 1))
        assert all(c == 0 for c in M.a.c)
        assert M.b.c == [Fraction(0), Fraction(1), 0, 0, 0]


class TestClassify:
    def test_smooth(self, s0):
        M = pullback_generic(QQ, s0.f_ints, s0.g_ints, (1, 0, 0), (0, 1, 0))
        assert classify_model(M) is ModelClass.Smooth

    def test_singular_fiber(self, sk):
        # b = s^3 t has a double root pattern: q = 4 s^3 t, disc = 0, not square
        M = pullback_generic(QQ, sk.f_ints, sk.g_ints, (0, 1, 0), (0, 0, 1))
        assert classify_model(M) is ModelClass.IrreducibleSingular


class TestWeierstrass:
    def _model(self, s0):
        return pullback_generic(QQ, s0.f_ints, s0.g_ints, (1, 0, 0), (0, 1, 0))

    def test_forward_backward_round_trip(self, s0):
        M = self._model(s0)
        O = M.point(1, 0, 1)
        wd = to_weierstrass(M, O)
        for (s, t, w) in [(1, 0, -1), (0, 1, 1), (0, 1, -1)]:
            P = M.point(s, t, w)
            assert wd.backward(wd.forward(P)) == P

    def test_origin_maps_to_infinity(self, s0):
        M = self._model(s0)
        O = M.point(1, 0, 1)
        wd = to_weierstrass(M, O)
        from dp2.genus1 import INF

        assert wd.forward(O) is INF

    def test_cubic_membership(self, s0):
        M = self._model(s0)
        O = M.point(1, 0, 1)
        wd = to_weierstrass(M, O)
        x, y = wd.forward(M.point(0, 1, 1))
        assert y * y == wd.cubic_rhs(x)


class TestGroupLaw:
    def test_neg_wrt_definition(self, s0):
        # R = neg_wrt(O, Q) satisfies (R) ~ 2(O) - (Q); applying it twice
        # returns Q
        M = pullback_generic(QQ, s0.f_ints, s0.g_ints, (1, 0, 0), (0, 1, 0))
        O = M.point(1, 0, 1)
        Q = M.point(0, 1, 1)
        R = neg_wrt(M, O, Q)
        assert M.contains(R)
        assert neg_wrt(M, O, R) == Q

    def test_neg_wrt_fixes_origin(self, s0):
        M = pullback_generic(QQ, s0.f_ints, s0.g_ints, (1, 0, 0), (0, 1, 0))
        O = M.point(1, 0, 1)
        assert neg_wrt(M, O, O) == O

    def test_lin_comb_origin_independence(self, s0):
        # sum of coefficients 1 => origin does not matter
        M = pullback_generic(QQ, s0.f_ints, s0.g_ints, (1, 0, 0), (0, 1, 0))
        O1 = M.point(1, 0, 1)
        O2 = M.point(1, 0, -1)
        Q = M.point(0, 1, 1)
        terms = [(2, O1), (-1, Q)]
        assert lin_comb(M, O1, terms) == lin_comb(M, O2, terms)

    def test_reducible_rejected(self, s0):
        # construct a reducible model directly: b = (s t)^2 gives
        # w^2 = (st)^2, a product of two components
        from dp2.exactalg import BinForm

        a = BinForm(QQ, 2, [Fraction(0)] * 3)
        b = BinForm(QQ, 4, [Fraction(0), 0, Fraction(1), 0, Fraction(0)])
        from dp2.genus1 import QuarticModel

        M = QuarticModel(a=a, b=b)
        O = M.point(1, 1, 1)
        with pytest.raises(ReducibleModel):
            neg_wrt(M, O, O)


class TestMakeCurvePoint:
    def test_canonical_scaling(self):
        P = make_curve_point(QQ, Fraction(2), Fraction(4), Fraction(8))
        assert (P.s, P.t) == (1, 2)
        assert P.w == Fraction(2)

    def test_sign_normalization(self):
        P = make_curve_point(QQ, Fraction(-1), Fraction(2), Fraction(3))
        assert (P.s, P.t) == (1, -2)
