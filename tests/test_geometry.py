"""Geometry: osculating sections, phi, C_P, classification, bitangent counts.

Frozen values below were first validated by the independent finite-field
base-locus oracle at several good primes, then pinned.
"""

import random

import pytest
import sympy as sp
from conftest import (
    PINNED_P0,
    SURFACE_DIR,
    PolyRing,
    assert_norm_order,
    c_p_point_by_group_law,
    forms_modp,
    phi_core_by_group_law,
    phi_domain_by_classification,
    residual_by_group_law,
    section_at,
    seeded_random_surface,
    square_by_yun,
    tern_substitute_reference,
)
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from dp2 import genus1, geometry
from dp2.covers import context_for, f1, f2, in_u_inv
from dp2.errors import DP2Error, EliminationDegenerate, NotVeryGeneral, SameImage, SingularBranchCurve
from dp2.exactalg import (
    QQ,
    Poly,
    PrimeField,
    TernForm,
    factor,
    modgcd,
    square_conditions,
)
from dp2.exactalg.factor import factor_univariate
from dp2.exactalg.quotient import QuotientField
from dp2.fforacle import (
    _normalize_modp,
    bitangents_through_modp,
    good_prime,
    on_ramification_modp,
    phi_modp,
    reduce_point,
    reduce_surface,
)
from dp2.geometry import (
    _as_field,
    _bitangent_frames,
    _chart_coefficients,
    _chart_lines_over_a4,
    _count_all_bitangents_frame,
    _count_bitangents_core,
    _count_chart_zeros,
    _osculating_core,
    _pencil_basis,
    _pencil_line,
    _phi_core,
    _residual_point,
    _tern_substitute,
    _u0_core,
    c_p_point,
    classify_point,
    complete_unimodular,
    count_all_bitangents,
    count_bitangents_through,
    osculating_section,
    phi,
    phi_domain,
)
from dp2.genus1 import ModelClass, classify_model, pullback_generic
from dp2.surface import PointDP2, PointP2, geiser, load_surface, on_surface

_U, _V = sp.symbols("_u _v")

P0 = PointDP2(20, 15, 12, 481)
Q1 = PointDP2(0, 1, 0, 1)
# validated by base_locus_oracle at p in {7, 17, 19, 23, 29}
PHI_P0_Q1 = PointDP2(288600, 130111, 173160, 90126952321)


class TestOsculatingSection:
    def test_frozen_section_s0(self, s0):
        # lambda, then x^2, y^2, z^2, xy, xz, yz (`_section_row`)
        sec = osculating_section(s0, P0)
        assert sec == (111284641, -149633200, -133387425, -93975984, 108000000, 55296000, 23328000)
        assert all(type(c) is int for c in sec)

    def test_vanishes_to_order_three(self, s0):
        sec = osculating_section(s0, P0)
        assert section_at(sec, P0) == 0

    def test_eckardt_point_degenerate_but_unique(self, s0):
        # the system still has a one-dimensional solution space at the
        # generalized Eckardt point; the section is w - x^2
        sec = osculating_section(s0, PointDP2(1, 0, 0, 1))
        assert sec == (1, -1, 0, 0, 0, 0, 0)

    def test_ramification_rejected(self, sk):
        with pytest.raises(NotVeryGeneral):
            osculating_section(sk, PointDP2(0, 0, 1, 0))


PINNED = ["s0", "s_k", "random2", "random3", "random5"]


class TestSectionRowsByNorm:
    """`_section_condition_rows` restricts to three lines through kappa(P)
    and solves for the branch of w term by term; the norm checks the
    resulting sections on four other lines, with no series at all."""

    @pytest.mark.parametrize("name", PINNED)
    def test_osculating_section_over_q(self, name):
        S = load_surface(SURFACE_DIR / f"{name}.json")
        # the searched P0 of s0 costs seconds; P0 is the very general point of the tests above
        ctx = context_for(S, P0 if name == "s0" else None)
        assert_norm_order(S.f, S.g, ctx.section, ctx.P0.coords(), 3, seed=1)

    @pytest.mark.parametrize("name", ["random2", "s0"])
    def test_osculating_section_at_every_u0_point_mod_11(self, name):
        Sp = reduce_surface(load_surface(SURFACE_DIR / f"{name}.json"), 11)
        checked = 0
        f, g = forms_modp(Sp)
        for P4 in Sp.points():
            vec = _u0_core(Sp.f_ints, Sp.g_ints, Sp.B, P4, Sp.p)
            if vec is not None:
                assert_norm_order(f, g, vec, P4, 3, seed=checked)
                checked += 1
        assert checked > 20

    @pytest.mark.parametrize("name, n_off, n_exceptional", [("random2", 96, 0), ("s0", 110, 6)])
    def test_osculating_core_never_degenerates_off_ramification_mod_11(self, name, n_off, n_exceptional):
        """`_u0_core`'s claim: off the ramification divisor the osculating
        system has a one-dimensional kernel with lambda != 0, on the
        exceptional curves too, so `_osculating_core` never raises there."""
        Sp = reduce_surface(load_surface(SURFACE_DIR / f"{name}.json"), 11)
        off = [P4 for P4 in Sp.points() if not on_ramification_modp(Sp, P4)]
        for P4 in off:
            _osculating_core(Sp.f_ints, Sp.g_ints, P4, Sp.p)
        assert len(off) == n_off
        assert sum(1 for P4 in off if bitangents_through_modp(Sp, P4[:3])) == n_exceptional

    @seed(9)
    @settings(max_examples=8, deadline=None, database=None)
    @given(st.integers(min_value=34, max_value=10**6), st.integers(1, 6), st.integers(1, 6))
    def test_unpinned_surfaces(self, n, u, v):
        """On a drawn surface: the norm at the context's P0, and phi(P0, Q)
        for Q = f1(u:v) reduced mod the first good p in 11..31 that keeps
        kappa(P0) and kappa(Q) apart, against `phi_modp`."""
        try:
            ctx = context_for(seeded_random_surface(n))
        except (SingularBranchCurve, NotVeryGeneral):
            assume(False)
        S = ctx.surface
        assert_norm_order(S.f, S.g, ctx.section, ctx.P0.coords(), 3, seed=n)
        try:
            Q = f1(ctx, (u, v))
            R = phi(S, ctx.P0, Q)
        except DP2Error:
            assume(False)
        for p in range(11, 32):
            if good_prime(S, p):
                Sp = reduce_surface(S, p)
                Pm, Qm = reduce_point(Sp, ctx.P0), reduce_point(Sp, Q)
                if Pm[:3] != Qm[:3]:
                    break
        else:
            assume(False)
        assert phi_modp(Sp, Pm, Qm) == reduce_point(Sp, R)


class TestPhi:
    def test_frozen_value(self, s0):
        assert phi(s0, P0, Q1) == PHI_P0_Q1

    def test_involution_on_u_inv(self, s0):
        assert phi(s0, P0, PHI_P0_Q1) == Q1

    def test_eckardt_base_example(self, s0):
        # phi with non-very-general first argument is still defined on U_phi
        assert phi(s0, PointDP2(1, 0, 0, 1), Q1) == Q1

    def test_same_image_rejected(self, s0):
        with pytest.raises(SameImage):
            phi(s0, P0, geiser(s0, P0))

    def test_result_collinear(self, s0):
        R = phi(s0, P0, Q1)
        m = [list(P0.xyz()), list(Q1.xyz()), list(R.xyz())]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        assert det == 0

    def test_origin_choice_irrelevant(self, s0):
        assert phi(s0, P0, Q1, origin="P") == phi(s0, P0, Q1, origin="Q")


class TestCP:
    def test_agreement_with_section(self, s0):
        sec = osculating_section(s0, P0)
        seen = set()
        for k in range(1, 11):
            R = c_p_point(s0, P0, (1, k))
            assert section_at(sec, R) == 0
            seen.add(R)
        assert len(seen) == 10

    def test_on_surface(self, s0):
        R = c_p_point(s0, P0, (3, 7))
        assert s0.equation_at(R.x, R.y, R.z, R.w)


class TestCompleteUnimodular:
    @pytest.mark.parametrize("v", [(1, 0, 0), (0, 0, 1), (2, 3, 5), (-4, 6, 9), (20, 15, 12)])
    def test_determinant_one(self, v):
        e1, e2 = complete_unimodular(v)
        m = [v, e1, e2]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        assert det in (1, -1)


class TestPencilLine:
    def test_line_param_consistency(self, s0):
        A, B = _pencil_line((1, 0, 0), (2, 4))
        e1, e2 = complete_unimodular((1, 0, 0))
        assert A == (1, 0, 0) and B == tuple(a + 2 * b for a, b in zip(e1, e2))
        assert s0.g.evaluate(*A) == s0.g.restrict_line(A, B).evaluate(1, 0)


PHI_BITANGENT = "the line through kappa(P), kappa(Q) is a bitangent"
PENCIL_BITANGENT = "pencil member is a bitangent line"
CHORD = "chord-tangent arithmetic hit the singular point"
ORIGIN = "origin is the singular point of the fiber"
# pairs of X(F_p) where phi fails on a singular fibre: (surface, p, P, Q,
# the message with origin "P", the message with origin "Q")
SINGULAR_PAIRS = [
    ("random2", 11, (1, 5, 9, 4), (1, 6, 8, 8), CHORD, ORIGIN),
    ("random2", 11, (1, 6, 8, 8), (1, 5, 9, 4), ORIGIN, CHORD),
    ("s0", 11, (1, 5, 9, 2), (1, 9, 2, 0), CHORD, ORIGIN),
    ("s0", 11, (1, 9, 9, 0), (1, 7, 0, 9), ORIGIN, CHORD),
]


def _outcome(fn):
    try:
        return fn()
    except DP2Error as exc:
        return type(exc).__name__, str(exc)


def _phi_mod_p(Sp, P, Q, origin):
    """`_phi_core` on X(F_p) with the forms that `origin` takes."""
    f, g = (Sp.f_ints, Sp.g_ints) if origin == "P" else forms_modp(Sp)
    return _phi_core(f, g, P, Q, Sp.p, origin)


def _residues(R):
    """A point over F_p as ints: residues stay, field elements give theirs."""
    return [v if isinstance(v, int) else v.r for v in R]


def _bitangent_pairs(Sp):
    """The pairs of points of X(F_p) with distinct kappa-images on a line of
    P^2(F_p) whose fibre is reducible."""
    p = Sp.p
    lines = [(1, a, b) for a in range(p) for b in range(p)] + [(0, 1, b) for b in range(p)] + [(0, 0, 1)]
    pairs = []
    for L in lines:
        on = [P for P in Sp.points() if sum(a * x for a, x in zip(L, P)) % p == 0]
        images = sorted({P[:3] for P in on})
        if len(images) >= 2:
            model = pullback_generic(Sp.F, *forms_modp(Sp), images[0], images[1])
            if classify_model(model) is ModelClass.Reducible:
                pairs.extend((P, Q) for P in on for Q in on if P[:3] != Q[:3])
    return pairs


class TestResidualCore:
    """phi and C_P share `_residual_point`; its errors over F_p, where
    reducible fibres and singular hits are common, and those of the group
    law with origin "Q" (`_residual_core`), through `_phi_core`."""

    @pytest.mark.parametrize("name, p", [("random2", 11), ("s0", 7)])
    def test_reducible_fibres(self, name, p):
        Sp = reduce_surface(load_surface(SURFACE_DIR / f"{name}.json"), p)
        pairs = _bitangent_pairs(Sp)
        assert pairs
        for P, Q in pairs:
            bitangent = ("BitangentLine", PHI_BITANGENT)
            assert _outcome(lambda: phi_modp(Sp, P, Q)) == bitangent
            for origin in ("P", "Q"):
                assert _outcome(lambda: _phi_mod_p(Sp, P, Q, origin)) == bitangent
            # the same line as a pencil member through kappa(P), with X = P
            pencil = _outcome(lambda: _residual_point(Sp.f_ints, Sp.g_ints, P[:3], Q[:3], P[3], (1, 0, P[3]),
                                                      PENCIL_BITANGENT, p))
            assert pencil == ("BitangentLine", PENCIL_BITANGENT)

    @pytest.mark.parametrize("name, p, P, Q, at_p, at_q", SINGULAR_PAIRS)
    def test_singular_hits(self, name, p, P, Q, at_p, at_q):
        Sp = reduce_surface(load_surface(SURFACE_DIR / f"{name}.json"), p)
        assert _outcome(lambda: phi_modp(Sp, P, Q)) == ("SingularHit", at_p)
        assert _outcome(lambda: _phi_mod_p(Sp, P, Q, "Q")) == ("SingularHit", at_q)

    def test_bad_origin_before_any_work(self, s0):
        # no surface at all: the origin is checked first
        with pytest.raises(ValueError, match="origin must be 'P' or 'Q'"):
            phi(None, P0, Q1, origin="R")
        with pytest.raises(ValueError, match="origin must be 'P' or 'Q'"):
            phi(s0, P0, Q1, origin="R")

    def test_one_reducibility_test_per_call(self, s0, monkeypatch):
        """Origin "P" tests the fibre by one square test of q = a^2 + 4b
        on ints, and never asks `classify_model`."""
        calls = []

        def counting(real):
            def spy(*args):
                calls.append(args)
                return real(*args)

            return spy

        def refuse(M):
            raise AssertionError("classify_model on origin P")

        monkeypatch.setattr(genus1, "is_square_binform", counting(genus1.is_square_binform))
        monkeypatch.setattr(geometry, "is_square_quartic", counting(geometry.is_square_quartic))
        monkeypatch.setattr(genus1, "classify_model", refuse)
        assert phi(s0, P0, Q1) == PHI_P0_Q1
        assert len(calls) == 1
        calls.clear()
        c_p_point(s0, P0, (3, 7))
        assert len(calls) == 1

    def test_closed_form_builds_no_weierstrass_model(self, s0, monkeypatch):
        """phi and C_P take the closed form on every fibre: smooth, with
        2 w_P + a_0 = 0, or singular; origin "Q" still runs the group law."""
        calls = []
        real = genus1.to_weierstrass

        def counting(M, O):
            calls.append(O)
            return real(M, O)

        monkeypatch.setattr(genus1, "to_weierstrass", counting)
        assert phi(s0, P0, Q1) == PHI_P0_Q1
        c_p_point(s0, P0, (3, 7))
        for name, p, P, Q, at_p, _ in SINGULAR_PAIRS:
            Sp = reduce_surface(load_surface(SURFACE_DIR / f"{name}.json"), p)
            assert _outcome(lambda: phi_modp(Sp, P, Q)) == ("SingularHit", at_p)
        Sp = reduce_surface(load_surface(SURFACE_DIR / "random2.json"), 11)
        for P, Q, R, _ in FIBRE_PINS:
            assert phi_modp(Sp, P, Q) == R
        assert calls == []
        assert phi(s0, P0, Q1, origin="Q") == PHI_P0_Q1
        assert len(calls) == 1

    @seed(10)
    @settings(max_examples=8, deadline=None, database=None)
    @given(st.integers(min_value=34, max_value=10**6), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
    def test_involution_and_origin_on_unpinned_surfaces(self, n, u, v, k):
        """Q = f2((u:v), (1:k)) in U_inv, off C_{P0} (a point of f1 lies on
        C_{P0}, where phi(P0, Q) = P0): phi(P0, Q) does not depend on the
        origin, and phi(P0, phi(P0, Q)) = Q where phi(P0, Q) is in U_inv.
        The Geiser involution maps P0, Q and R = phi(P0, Q) into X and is an
        involution there."""
        try:
            ctx = context_for(seeded_random_surface(n))
            Q = f2(ctx, ((u, v), (1, k)))
        except DP2Error:
            assume(False)
        assume(in_u_inv(ctx, Q))
        S = ctx.surface
        R = phi(S, ctx.P0, Q, origin="P")
        assert phi(S, ctx.P0, Q, origin="Q") == R
        if in_u_inv(ctx, R):
            assert phi(S, ctx.P0, R) == Q
        for T in (ctx.P0, Q, R):
            assert geiser(S, geiser(S, T)) == T
            assert S.equation_at(*geiser(S, T).coords())


def _outcome_any(fn):
    """The value of fn(), or the type and message of any exception."""
    try:
        return fn()
    except Exception as exc:
        return type(exc).__name__, str(exc)


# phi on random2 mod 11 where the closed form leaves the generic case:
# (P, Q, phi(P, Q), the fibre's class)
FIBRE_PINS = [
    ((1, 1, 7, 8), (1, 0, 0, 10), (1, 0, 0, 1), ModelClass.Smooth),  # 2 w_P + a_0 = 0
    ((1, 0, 1, 7), (1, 3, 5, 9), (0, 1, 5, 10), ModelClass.IrreducibleSingular),
]


class TestClosedForm:
    """`_residual_point`'s closed form against the group law it replaced:
    the test-local references in conftest run the group law with origin
    iota(P) on every fibre, as origin "P" did before the closed form."""

    @pytest.mark.parametrize("name, p", [("random2", 11), ("s0", 7)])
    def test_phi_core_against_group_law(self, name, p, monkeypatch):
        Sp = reduce_surface(load_surface(SURFACE_DIR / f"{name}.json"), p)
        F, (fp, gp) = Sp.F, forms_modp(Sp)
        taken = []
        real = geometry._residual_point

        def spy(f, g, A, B, wP, X, bitangent, p):
            R = real(f, g, A, B, wP, X, bitangent, p)
            model = pullback_generic(F, fp, gp, A, B)
            taken.append((F.is_zero(model.a.c[0] + wP + wP), classify_model(model)))
            return R

        monkeypatch.setattr(geometry, "_residual_point", spy)

        def normalized(fn):
            out = _outcome_any(fn)
            return out if isinstance(out[0], str) else _normalize_modp(p, *_residues(out))

        pts = random.Random(13).sample(Sp.points(), 30)
        for P in pts:
            for Q in pts:
                closed = normalized(lambda: _phi_mod_p(Sp, P, Q, "P"))
                assert closed == normalized(lambda: phi_core_by_group_law(F, fp, gp, P, Q)), (P, Q)
                # the other origin raises the same type, with its own message
                # on a singular fibre (see SINGULAR_PAIRS)
                other = normalized(lambda: _phi_mod_p(Sp, P, Q, "Q"))
                assert closed[0] == other[0] and (isinstance(closed[0], str) or closed == other), (P, Q)
        # every returned point comes from the closed form, including some
        # with 2 w_P + a_0 = 0 and, on random2 (s0 mod 7 meets no singular
        # fibre here), some on a singular fibre
        assert len(taken) > 400
        assert any(d_zero for d_zero, _ in taken)
        singular = any(fibre is ModelClass.IrreducibleSingular for _, fibre in taken)
        assert singular == (name == "random2")

    @pytest.mark.parametrize("name", sorted(PINNED_P0))
    def test_c_p_point_against_group_law(self, name):
        S = load_surface(SURFACE_DIR / f"{name}.json")
        P = PointDP2.parse(PINNED_P0[name])
        for u in range(-3, 4):
            for v in range(0, 4):
                if (u, v) != (0, 0):
                    expected = _outcome_any(lambda: c_p_point_by_group_law(S, P, (u, v)))
                    assert _outcome_any(lambda: c_p_point(S, P, (u, v))) == expected, (u, v)

    @pytest.mark.parametrize("P, Q, R, fibre", FIBRE_PINS)
    def test_fallback_on_random2_mod_11(self, P, Q, R, fibre):
        """phi with 2 w_P + a_0 = 0, and on an irreducible singular fibre."""
        Sp = reduce_surface(load_surface(SURFACE_DIR / "random2.json"), 11)
        F, (f, g) = Sp.F, forms_modp(Sp)
        *A, wP = _as_field(F, P)
        *B, wQ = _as_field(F, Q)
        model = pullback_generic(F, f, g, A, B)
        assert classify_model(model) is fibre
        assert F.is_zero(wP + wP + model.a.c[0]) == (fibre is ModelClass.Smooth)
        R_law = phi_core_by_group_law(F, f, g, P, Q)
        assert phi_modp(Sp, P, Q) == R == _normalize_modp(Sp.p, *(v.r for v in R_law))

    def test_fallback_off_the_fibre(self, s0):
        """A point off the fibre raises the group law's ValueError."""
        A, B = P0.xyz(), Q1.xyz()
        outcome = _outcome_any(lambda: _residual_point(s0.f_ints, s0.g_ints, A, B, P0.w, (0, 1, Q1.w + 1), ""))
        assert outcome == ("ValueError", "(0:1:2) not on the quartic model")
        X = (QQ.zero, QQ.one, QQ.from_int(Q1.w + 1))
        assert outcome == _outcome_any(lambda: residual_by_group_law(QQ, s0.f, s0.g, A, B, P0.w, X, ""))


def _assert_core_matches_group_law(S, P, Q, normalize):
    """`_residual_point` on the int terms of S (a surface or its reduction
    mod p) against conftest's group law with origin iota(P), for phi(P, Q)
    (X = Q, through `_phi_core`) and, when kappa(P) and kappa(Q) differ,
    for the member of the pencil through kappa(P) on the same line (X = P):
    the same normalized point, or the same exception type and message.
    Returns the outcomes' kinds."""
    F, ints = S.B.field, (S.f_ints, S.g_ints)
    p, wP = F.char, F.from_int(P[3])
    f, g = forms_modp(S) if p else (S.f, S.g)
    cases = [(lambda: _phi_core(*ints, P, Q, p), lambda: phi_core_by_group_law(F, f, g, P, Q))]
    if P[:3] != Q[:3]:
        cases.append((
            lambda: _residual_point(*ints, P[:3], Q[:3], P[3], (1, 0, P[3]), PENCIL_BITANGENT, p),
            lambda: residual_by_group_law(F, f, g, P[:3], Q[:3], wP, (F.one, F.zero, wP), PENCIL_BITANGENT),
        ))
    kinds = set()
    for core, law in cases:
        outcomes = [_outcome_any(fn) for fn in (core, law)]
        kinds.add(outcomes[0][0] if isinstance(outcomes[0][0], str) else "point")
        outcomes = [out if isinstance(out[0], str) else _outcome_any(lambda: normalize(out)) for out in outcomes]
        assert outcomes[0] == outcomes[1], (P, Q)
    return kinds


class TestIntCoreAgainstGroupLaw:
    """The integer core over Q and mod p against the group law on field
    elements it replaced, on pinned and drawn points over Q and on the
    fibres mod p where the closed form leaves the generic case."""

    @pytest.mark.parametrize("name", sorted(PINNED_P0))
    def test_pinned_p0_over_q(self, name):
        S = load_surface(SURFACE_DIR / f"{name}.json")
        ctx = context_for(S, PointDP2.parse(PINNED_P0[name]))
        pts = [ctx.P0, geiser(S, ctx.P0)]
        for args in [(1, 1), (1, 2), (2, -1), ((1, 1), (1, 2))]:
            try:
                pts.append(f2(ctx, args) if isinstance(args[0], tuple) else f1(ctx, args))
            except DP2Error:
                pass
        kinds = set()
        for P in pts:
            for Q in pts:
                kinds |= _assert_core_matches_group_law(S, P.coords(), Q.coords(), lambda R: on_surface(S, *R))
        assert {"point", "SameImage"} <= kinds

    @seed(14)
    @settings(max_examples=6, deadline=None, database=None)
    @given(st.integers(min_value=34, max_value=10**6), st.integers(-4, 4), st.integers(1, 4), st.integers(1, 4))
    def test_unpinned_surfaces_over_q(self, n, u, v, k):
        try:
            ctx = context_for(seeded_random_surface(n))
            pts = [ctx.P0, f1(ctx, (u, v)), f2(ctx, ((u, v), (1, k)))]
        except DP2Error:
            assume(False)
        S = ctx.surface
        pts.append(geiser(S, pts[-1]))
        for P in pts:
            for Q in pts:
                _assert_core_matches_group_law(S, P.coords(), Q.coords(), lambda R: on_surface(S, *R))

    @pytest.mark.parametrize("name, p, expected", [
        ("random2", 11, {"point", "BitangentLine", "SingularHit", "ValueError"}),
        ("s0", 7, {"BitangentLine", "ValueError"}),
        ("s0", 11, {"point", "SingularHit", "ValueError"}),
    ])
    def test_fibre_pins_singular_pairs_and_reducible_fibres_mod_p(self, name, p, expected):
        """Each pair also with Q's w moved off the fibre, which raises the
        ValueError whose text prints residues as elements of F_p."""
        Sp = reduce_surface(load_surface(SURFACE_DIR / f"{name}.json"), p)
        pairs = [(P, Q) for P, Q, _, _ in FIBRE_PINS if name == "random2"]
        pairs += [(P, Q) for n, q, P, Q, _, _ in SINGULAR_PAIRS if (n, q) == (name, p)]
        pairs += _bitangent_pairs(Sp)
        kinds = set()
        for P, Q in pairs:
            for Q4 in (Q, Q[:3] + ((Q[3] + 1) % p,)):
                kinds |= _assert_core_matches_group_law(Sp, P, Q4, lambda R: _normalize_modp(p, *_residues(R)))
        assert kinds == expected


class TestTernSubstitute:
    """Taylor's formula over `restrict_line` against the monomial-product
    expansion."""

    @seed(12)
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.sampled_from([0, 5, 7, 11, 13]),
        st.integers(0, 4),
        st.lists(st.integers(-9, 9), min_size=15, max_size=15),
        st.lists(st.integers(-5, 5), min_size=9, max_size=9),
        st.booleans(),
    )
    def test_matches_monomial_products(self, p, degree, coeffs, entries, singular):
        F = QQ if p == 0 else PrimeField(p)
        monomials = [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree + 1 - i)]
        form = TernForm(F, degree, {m: F.from_int(c) for m, c in zip(monomials, coeffs)})
        m = [entries[0:3], entries[3:6], entries[0:3] if singular else entries[6:9]]
        assert _tern_substitute(form, m) == tern_substitute_reference(form, m)


class TestClassification:
    def test_eckardt(self, s0):
        cls = classify_point(s0, PointDP2(1, 0, 0, 1))
        assert cls.is_generalized_eckardt
        assert cls.n_exceptional == 4
        assert not cls.is_general and not cls.is_very_general

    def test_very_general(self, s0):
        cls = classify_point(s0, P0)
        assert cls.is_very_general and cls.is_general
        assert cls.n_exceptional == 0
        assert not cls.on_ramification

    def test_ramification_point(self, sk):
        cls = classify_point(sk, PointDP2(0, 0, 1, 0))
        assert cls.on_ramification and not cls.is_general

    def test_count_through_coordinate_point(self, s0):
        assert count_bitangents_through(s0, PointP2(1, 0, 0)) == 4


def _count_by_discriminant(F, Bform, p3):
    """The pencil count before the square conditions: factor the pencil
    discriminant D(t) of B on the line through p3 and e1 + t*e2, then test
    B on that line over F[t]/(d) for each irreducible factor d of D."""
    e1, e2 = _pencil_basis(p3)
    B_ring = Bform.map_coeffs(lambda v: Poly(F, [v]), PolyRing(F))
    pconst = [Poly(F, [F.from_int(v)]) for v in p3]
    moving = [Poly(F, [F.from_int(e1[i]), F.from_int(e2[i])]) for i in range(3)]
    a, b, c, d, e = B_ring.restrict_line(pconst, moving).c
    I = 12 * (a * e) - 3 * (b * d) + c * c
    J = 72 * (a * c * e) + 9 * (b * c * d) - 27 * (a * d * d) - 27 * (e * b * b) - 2 * (c * c * c)
    D = 4 * (I * I * I) - J * J  # 27 times the discriminant
    if D.is_zero():
        raise EliminationDegenerate("pencil discriminant vanishes identically")
    count = 0
    for m, _mult in factor_univariate(D.monic()):
        K = QuotientField(m)
        second = [K.from_base(F.from_int(e1[i])) + K.gen * K.from_base(F.from_int(e2[i])) for i in range(3)]
        BK = Bform.map_coeffs(K.from_base, K)
        if square_by_yun(BK.restrict_line([K.from_base(F.from_int(v)) for v in p3], second)):
            count += m.degree
    if square_by_yun(Bform.restrict_line([F.from_int(v) for v in p3], [F.from_int(v) for v in e2])):
        count += 1
    return count


def _both_counts(F, Bform, p3):
    out = []
    for count in (_count_bitangents_core, _count_by_discriminant):
        try:
            out.append(count(F, Bform, p3))
        except EliminationDegenerate:
            out.append(None)
    return out


PINNED_P2 = {
    "s0": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (20, 15, 12), (288600, 130111, 173160)],
    "s_k": [(0, 0, 1), (1, 0, 0), (1, 1, 1), (1, 2, 3)],
    "random2": [(1, 1, 0), (1, 1, 1), (0, 0, 1), (152506, 262431, 109925)],
}


class TestPencilCount:
    """The count of bitangents through a point from gcds of rad gcd(c1, c2)
    agrees with the discriminant-and-Yun count."""

    @pytest.mark.parametrize("name", sorted(PINNED_P2))
    def test_pinned_points(self, name):
        B = load_surface(SURFACE_DIR / f"{name}.json").B
        counts = set()
        for p3 in PINNED_P2[name]:
            new, old = _both_counts(QQ, B, p3)
            assert new == old, p3
            counts.add(new)
        assert counts >= {0} and (name != "s0" or 4 in counts)

    @pytest.mark.parametrize("name", ["s0", "s_k"])
    @pytest.mark.parametrize("p", [5, 7])
    def test_every_point_of_the_plane_mod_p(self, name, p):
        F = PrimeField(p)
        B = load_surface(SURFACE_DIR / f"{name}.json").B.map_coeffs(F.from_int, F)
        points = [(1, y, z) for y in range(p) for z in range(p)] + [(0, 1, z) for z in range(p)] + [(0, 0, 1)]
        counts, singular = set(), []
        for p3 in points:
            new, old = _both_counts(F, B, p3)
            if old is None:
                # D vanishes identically only at a singular point of B: the
                # Klein quartic s_k has bad reduction at 7, which the oracle
                # rejects before counting
                assert all(F.is_zero(B.deriv(i).evaluate(*_as_field(F, p3))) for i in range(3))
                singular.append(p3)
                continue
            assert new == old, p3
            counts.add(new)
        assert len(singular) == (1 if (name, p) == ("s_k", 7) else 0)
        assert len(counts) > 1


class TestGcdOnlyCounts:
    def test_no_factoring_and_no_number_field(self, s0, sk, monkeypatch):
        """The pencil count (behind classification and the oracle) and the
        chart count's lines over the roots of a4 use gcds only."""

        def refuse(*_args, **_kwargs):
            raise AssertionError("factoring or a number field on a gcd-only path")

        monkeypatch.setattr(factor, "factor_rational", refuse)
        monkeypatch.setattr(factor, "factor_modp", refuse)
        monkeypatch.setattr(QuotientField, "__init__", refuse)
        Sp = reduce_surface(s0, 7)
        verdicts = [classify_point(s0, P).n_exceptional for P in (PointDP2(1, 0, 0, 1), P0, Q1, PHI_P0_Q1)]
        assert verdicts[:2] == [4, 0]
        points = [(1, y, z) for y in range(7) for z in range(7)] + [(0, 1, z) for z in range(7)] + [(0, 0, 1)]
        assert max(bitangents_through_modp(Sp, p3) for p3 in points) >= 4
        assert count_all_bitangents(sk) == 28

    def test_chart_count_factors_nothing(self, s0, sk, random_surfaces, monkeypatch):
        """The chart count eliminates u with gcds over ZZ: no sympy
        factoring, no number field, no gcd over Q(alpha)."""

        def refuse(*_args, **_kwargs):
            raise AssertionError("factoring or a number field in the chart count")

        monkeypatch.setattr(sp.Poly, "factor_list", refuse)
        monkeypatch.setattr(QuotientField, "__init__", refuse)
        monkeypatch.setattr(modgcd, "quotient_gcd", refuse)
        assert [count_all_bitangents(S) for S in (s0, sk, random_surfaces[0])] == [28, 28, 28]


class TestPhiDomain:
    def test_same_image(self, s0):
        v = phi_domain(s0, P0, geiser(s0, P0))
        assert v.failure_reason == "SameImage"
        assert not v.in_U_phi

    def test_first_not_in_u0(self, s0):
        v = phi_domain(s0, PointDP2(1, 0, 0, 1), Q1)
        assert v.in_U_phi and not v.in_U_inv
        assert v.failure_reason == "FirstNotInU0"

    def test_in_u_inv(self, s0):
        v = phi_domain(s0, P0, PHI_P0_Q1)
        assert v.in_U_phi and v.in_U_inv and v.failure_reason is None

    def test_second_on_cp(self, s0):
        Qc = c_p_point(s0, P0, (1, 3))
        v = phi_domain(s0, P0, Qc)
        assert v.in_U_phi and not v.in_U_inv
        assert v.failure_reason == "SecondOnCP"

    @pytest.mark.parametrize("name", sorted(PINNED_P0))
    def test_u_phi_agrees_with_phi(self, name):
        """(P, Q) lies in U_phi exactly when phi returns; otherwise the
        verdict names phi's error.  Every verdict matches the one read off
        `classify_point` and `osculating_section`; s0's Eckardt point
        (1:0:0:1) adds the case FirstNotInU0."""
        S = load_surface(SURFACE_DIR / f"{name}.json")
        ctx = context_for(S, PointDP2.parse(PINNED_P0[name]))
        pts = [ctx.P0, geiser(S, ctx.P0)] + ([PointDP2(1, 0, 0, 1)] if name == "s0" else [])
        for args in [(1, 1), (1, 2), (2, -1), ((1, 1), (1, 2)), ((1, 3), (2, 1))]:
            try:
                pts.append(f2(ctx, args) if isinstance(args[0], tuple) else f1(ctx, args))
            except DP2Error:
                pass
        reason = {"SameImage": "SameImage", "BitangentLine": "BitangentLine", "SingularHit": "NonSmoothEndpoint"}
        seen = set()
        for P in pts:
            for Q in pts:
                verdict = phi_domain(S, P, Q)
                assert verdict == phi_domain_by_classification(S, P, Q), (P, Q)
                outcome = _outcome(lambda: phi(S, P, Q))
                if isinstance(outcome, PointDP2):
                    assert verdict.in_U_phi and verdict.failure_reason in (None, "FirstNotInU0", "SecondOnCP")
                else:
                    assert not verdict.in_U_phi and verdict.failure_reason == reason[outcome[0]], (P, Q)
                seen.add(verdict.failure_reason)
        assert "SameImage" in seen and len(seen) > 2
        assert name != "s0" or "FirstNotInU0" in seen


class TestAllBitangents:
    def test_s0(self, s0):
        assert count_all_bitangents(s0) == 28

    def test_sk(self, sk):
        assert count_all_bitangents(sk) == 28

    @pytest.mark.parametrize("seed", [7, 12, 20, 33])
    def test_seeded_random_surfaces(self, seed):
        assert count_all_bitangents(seeded_random_surface(seed)) == 28

    @seed(7)
    @settings(max_examples=25, deadline=5000, database=None)
    @given(st.integers(min_value=34, max_value=10**6))
    def test_unpinned_random_surfaces(self, n):
        try:
            S = seeded_random_surface(n)
        except SingularBranchCurve:
            assume(False)
        assert count_all_bitangents(S) == 28


FRAME_SURFACES = ["random2", "random3", "random5", "s0", "s_k", 7, 12, 20, 33]


class TestBitangentFrames:
    @pytest.mark.parametrize("name", FRAME_SURFACES)
    def test_each_frame_counts_28_or_raises(self, name):
        if isinstance(name, int):
            S = seeded_random_surface(name)
        else:
            S = load_surface(SURFACE_DIR / f"{name}.json")
        verdicts = []
        for Bf in _bitangent_frames(S.B):
            try:
                verdicts.append(_count_all_bitangents_frame(Bf))
            except EliminationDegenerate:
                verdicts.append(None)
        assert len(verdicts) == 6 and set(verdicts) <= {28, None}
        if name == "s0":
            # frame 0: PRS tail 4, 3, 0; frame 1: a root of r0 on a leading coefficient
            assert verdicts[:3] == [None, None, 28]
        else:
            assert verdicts[0] == 28

    def test_s0_hyperflex_lines_over_a4(self, s0):
        # a4 = B(0, 1, v) vanishes at v^4 = -1, under the lines z = v y
        assert _chart_lines_over_a4(_chart_coefficients(s0.B)) == 4


def _sylvester_subresultant(P, Q, j):
    """S_j(P, Q) in u from the determinants of the j-th Sylvester submatrix."""
    m, n = P.degree(_U), Q.degree(_U)
    rows = [P * _U**k for k in reversed(range(n - j))] + [Q * _U**k for k in reversed(range(m - j))]
    width = m + n - j
    M = [[r.as_expr().coeff(_U, width - 1 - c) for c in range(width)] for r in rows]
    S = 0
    for i in range(j + 1):
        cols = list(range(len(rows) - 1)) + [width - 1 - i]
        S += sp.Matrix([[row[c] for c in cols] for row in M]).det(method="domain-ge") * _U**i
    return sp.expand(S)


def _uv(expr):
    return sp.Poly(expr, _U, _V)


class TestSubresultantCertificate:
    """The j = 1 test of `_count_chart_zeros`: one common zero over each
    root of r0, or EliminationDegenerate."""

    def test_two_common_zeros_over_one_v(self):
        # at v = 0: u^3 - u and u^2 - 1 share u = 1 and u = -1
        with pytest.raises(EliminationDegenerate, match="leading coefficient"):
            _count_chart_zeros(_uv(_U**3 - _U + _V), _uv(_U**2 - 1 + _V * _U), sp.Poly(1, _V))

    def test_leading_coefficient_drop(self):
        # at v = 0, P drops to u^2 - 1 = Q
        with pytest.raises(EliminationDegenerate, match="leading coefficient"):
            _count_chart_zeros(_uv(_V * _U**3 + _U**2 - 1), _uv(_U**2 - 1), sp.Poly(1, _V))

    def test_prs_tail_with_a_gap(self):
        P, Q = _uv(_U**3 + _V), _uv(_U)
        assert [p.degree(_U) for p in sp.resultant(P, Q, includePRS=True)[1]] == [3, 1, 0]
        with pytest.raises(EliminationDegenerate, match="PRS"):
            _count_chart_zeros(P, Q, sp.Poly(1, _V))

    @pytest.mark.parametrize("a4", [1, _V, _V - 1, (_V - 1) ** 2 * (_V + 5)])
    def test_normal_pair_matches_brute_force(self, a4):
        # R = -v^2 (v - 1) (v + 3) (2 v + 1): every root is rational, so the
        # common zeros are the roots in u of the gcd over each root in v
        P, Q = _uv(_U**3 + _V * _U - 2 * _V**2), _uv(_U**2 + (_V - 1) * _U - _V)
        R = sp.resultant(P, Q)
        roots = sp.roots(R.as_expr(), _V)
        assert sum(roots.values()) == R.degree()
        brute = 0
        for v in roots:
            if sp.sympify(a4).subs(_V, v) != 0:
                g = sp.gcd(P.as_expr().subs(_V, v), Q.as_expr().subs(_V, v))
                brute += len(sp.roots(g, _U))
        assert brute >= 3
        # given as (Q, P): the count orders the pair by degree in u itself
        assert _count_chart_zeros(Q, P, sp.Poly(a4, _V)) == brute

    def test_prs_elements_are_sylvester_subresultants(self):
        # a degree gap after P
        P = _uv(_U**5 + _V * _U**3 - 2 * _U**2 + (_V - 1) * _U + 3)
        Q = _uv((_V + 2) * _U**3 + _U**2 - _V * _U + 1)
        _check_prs_against_sylvester(P, Q, [5, 3, 2, 1, 0])

    def test_chart_prs_elements_are_sylvester_subresultants(self, sk):
        # the chart conditions of s_k in frame 0: degrees 4 and 3 in u
        P, Q = sorted(square_conditions(*_chart_coefficients(sk.B)), key=lambda p: -p.degree(_U))
        _check_prs_against_sylvester(P, Q, [4, 3, 2, 1, 0])


def _check_prs_against_sylvester(P, Q, degrees):
    R, prs = sp.resultant(P, Q, includePRS=True)
    assert [p.degree(_U) for p in prs] == degrees
    for j, F in ((2, prs[-3]), (1, prs[-2]), (0, prs[-1])):
        ratio = sp.cancel(_sylvester_subresultant(P, Q, j) / F.as_expr())
        assert ratio.is_Rational and ratio != 0
    assert R.as_expr() == _sylvester_subresultant(P, Q, 0)
