"""Geometry: osculating sections, phi, C_P, classification, bitangent counts.

Frozen values below were first validated by the independent finite-field
base-locus oracle at several good primes, then pinned.
"""

import pytest
import sympy as sp
from conftest import SURFACE_DIR, seeded_random_surface, square_by_yun

from dp2.errors import EliminationDegenerate, NotVeryGeneral, SameImage
from dp2.exactalg import QQ, Poly, PrimeField, QuotientField, factor_univariate
from dp2.geometry import (
    _U,
    _V,
    _chart_conditions,
    _common_roots_by_gcd,
    _count_bitangents_core,
    _f,
    _lc_v,
    _pencil_basis,
    _PolyRing,
    _subresultant_certificate,
    c_p_point,
    classify_point,
    count_all_bitangents,
    count_bitangents_through,
    osculating_section,
    phi,
    phi_domain,
)
from dp2.surface import PointDP2, PointP2, geiser, load_surface

P0 = PointDP2(20, 15, 12, 481)
Q1 = PointDP2(0, 1, 0, 1)
# validated by base_locus_oracle at p in {7, 17, 19, 23, 29}
PHI_P0_Q1 = PointDP2(288600, 130111, 173160, 90126952321)


class TestOsculatingSection:
    def test_frozen_section_s0(self, s0):
        sec = osculating_section(s0, P0)
        assert sec.lam == 111284641
        assert sec.q2.coeff(2, 0, 0) == -149633200
        assert sec.q2.coeff(0, 2, 0) == -133387425
        assert sec.q2.coeff(0, 0, 2) == -93975984
        assert sec.q2.coeff(1, 1, 0) == 108000000
        assert sec.q2.coeff(1, 0, 1) == 55296000
        assert sec.q2.coeff(0, 1, 1) == 23328000

    def test_vanishes_to_order_three(self, s0):
        sec = osculating_section(s0, P0)
        assert sec.evaluate(P0) == 0

    def test_eckardt_point_degenerate_but_unique(self, s0):
        # the system still has a one-dimensional solution space at the
        # generalized Eckardt point; the section is w - x^2
        sec = osculating_section(s0, PointDP2(1, 0, 0, 1))
        assert sec.lam == 1 and sec.q2.coeff(2, 0, 0) == -1

    def test_ramification_rejected(self, sk):
        with pytest.raises(NotVeryGeneral):
            osculating_section(sk, PointDP2(0, 0, 1, 0))


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
            assert sec.evaluate(R) == 0
            seen.add(R)
        assert len(seen) == 10

    def test_on_surface(self, s0):
        R = c_p_point(s0, P0, (3, 7))
        assert s0.equation_at(R.x, R.y, R.z, R.w)


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
        n, cert = count_bitangents_through(s0, PointP2(1, 0, 0))
        assert n == 4
        assert cert


def _count_by_discriminant(F, Bform, p3):
    """The pencil count before the square conditions: factor the pencil
    discriminant D(t) of B on the line through p3 and e1 + t*e2, then test
    B on that line over F[t]/(d) for each irreducible factor d of D."""
    e1, e2 = _pencil_basis(F, p3)
    B_ring = Bform.map_coeffs(lambda v: Poly(F, [v]), _PolyRing(F))
    pconst = [Poly(F, [_f(F, v)]) for v in p3]
    moving = [Poly(F, [_f(F, e1[i]), _f(F, e2[i])]) for i in range(3)]
    a, b, c, d, e = B_ring.restrict_line(pconst, moving).c
    I = 12 * (a * e) - 3 * (b * d) + c * c
    J = 72 * (a * c * e) + 9 * (b * c * d) - 27 * (a * d * d) - 27 * (e * b * b) - 2 * (c * c * c)
    D = 4 * (I * I * I) - J * J  # 27 times the discriminant
    if D.is_zero():
        raise EliminationDegenerate("pencil discriminant vanishes identically")
    count, certificate = 0, []
    for m, _mult in factor_univariate(D.monic()):
        K = QuotientField(m)
        second = [K.from_base(_f(F, e1[i])) + K.gen * K.from_base(_f(F, e2[i])) for i in range(3)]
        BK = Bform.map_coeffs(K.from_base, K)
        if square_by_yun(BK.restrict_line([K.from_base(_f(F, v)) for v in p3], second)):
            count += m.degree
            certificate.append((repr(m), m.degree))
    if square_by_yun(Bform.restrict_line([_f(F, v) for v in p3], [_f(F, v) for v in e2])):
        count += 1
        certificate.append(("t = infinity", 1))
    return count, certificate


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
    """The count of bitangents through a point from gcd(c1, c2) agrees with
    the discriminant-and-Yun count it replaced, certificate included."""

    @pytest.mark.parametrize("name", sorted(PINNED_P2))
    def test_pinned_points(self, name):
        B = load_surface(SURFACE_DIR / f"{name}.json").B
        counts = set()
        for p3 in PINNED_P2[name]:
            new, old = _both_counts(QQ, B, p3)
            assert new == old, p3
            counts.add(new[0])
        assert counts >= {0} and (name != "s0" or 4 in counts)

    @pytest.mark.parametrize("name", ["s0", "s_k"])
    @pytest.mark.parametrize("p", [5, 7])
    def test_every_point_of_the_plane_mod_p(self, name, p):
        F = PrimeField(p)
        B = load_surface(SURFACE_DIR / f"{name}.json").B.map_coeffs(F.from_int, F)
        points = [(1, y, z) for y in range(p) for z in range(p)] + [(0, 1, z) for z in range(p)] + [(0, 0, 1)]
        counts, singular = set(), []
        for p3 in (tuple(F.from_int(v) for v in pt) for pt in points):
            new, old = _both_counts(F, B, p3)
            if old is None:
                # D vanishes identically only at a singular point of B: the
                # Klein quartic s_k has bad reduction at 7, which the oracle
                # rejects before counting
                assert all(F.is_zero(B.deriv(i).evaluate(*p3)) for i in range(3))
                singular.append(p3)
                continue
            assert new == old, p3
            counts.add(new[0])
        assert len(singular) == (1 if (name, p) == ("s_k", 7) else 0)
        assert len(counts) > 1


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


class TestAllBitangents:
    def test_s0(self, s0):
        assert count_all_bitangents(s0) == 28

    def test_sk(self, sk):
        assert count_all_bitangents(sk) == 28

    @pytest.mark.parametrize("seed", [7, 12, 20, 33])
    def test_seeded_random_surfaces(self, seed):
        assert count_all_bitangents(seeded_random_surface(seed)) == 28


def _chart_factors(S):
    """P, Q, their subresultant PRS, lc_v(P) lc_v(Q) and the nonconstant
    irreducible factors of the resultant, as _count_all_bitangents_frame
    computes them in the first frame."""
    _a, P, Q = _chart_conditions(S.B)
    R, prs = sp.resultant(P, Q, includePRS=True)
    factors = [d for d, _mult in R.factor_list()[1] if d.degree() > 0]
    return P, Q, prs, _lc_v(P) * _lc_v(Q), factors


def _sylvester_subresultant(P, Q, j):
    """S_j(P, Q) in v from the determinants of the j-th Sylvester submatrix."""
    m, n = P.degree(), Q.degree()
    rows = [P * _V**k for k in reversed(range(n - j))] + [Q * _V**k for k in reversed(range(m - j))]
    width = m + n - j
    M = [[r.as_expr().coeff(_V, width - 1 - c) for c in range(width)] for r in rows]
    S = 0
    for i in range(j + 1):
        cols = list(range(len(rows) - 1)) + [width - 1 - i]
        S += sp.Matrix([[row[c] for c in cols] for row in M]).det(method="domain-ge") * _V**i
    return sp.expand(S)


class TestSubresultantCertificate:
    """The certified count of common roots over each factor of the
    resultant agrees with the gcd over Q(alpha), and every factor outside
    the certificate's hypotheses is left to that gcd."""

    def test_s0_falls_back_on_every_factor(self, s0):
        P, Q, prs, lc, factors = _chart_factors(s0)
        assert [p.degree() for p in prs][-3:] != [2, 1, 0]
        assert factors
        for d in factors:
            assert _subresultant_certificate(d, lc, prs) is None
            assert _common_roots_by_gcd(d, P, Q) > 0

    def test_sk_certificate_matches_gcd_on_every_factor(self, sk):
        P, Q, prs, lc, factors = _chart_factors(sk)
        branches = set()
        for d in factors:
            cert = _subresultant_certificate(d, lc, prs)
            assert cert is not None
            assert cert[1] == _common_roots_by_gcd(d, P, Q)
            branches.add(cert[0])
        assert branches == {1, 2}

    def test_random2_branches(self, random_surfaces):
        P, Q, prs, lc, factors = _chart_factors(random_surfaces[0])
        by_degree = {d.degree(): d for d in factors}
        assert sorted(by_degree) == [4, 28]
        # the 28 bitangents' Galois orbit: one common root per root of d
        assert _subresultant_certificate(by_degree[28], lc, prs) == (1, 1)
        # the degree-4 factor: gcd of degree 2 with a double root
        assert _subresultant_certificate(by_degree[4], lc, prs) == (2, 1)
        assert _common_roots_by_gcd(by_degree[4], P, Q) == 1

    def test_leading_coefficient_factor_falls_back(self):
        # at u = 0, P drops to v^2 - 1 = Q: two common roots
        P = sp.Poly(_U * _V**3 + _V**2 - 1, _V, _U)
        Q = sp.Poly(_V**2 - 1, _V, _U)
        R, prs = sp.resultant(P, Q, includePRS=True)
        assert [p.degree() for p in prs] == [3, 2, 1, 0]
        (d, _mult), = R.factor_list()[1]
        assert d == sp.Poly(_U, _U)
        assert _subresultant_certificate(d, _lc_v(P) * _lc_v(Q), prs) is None
        assert _common_roots_by_gcd(d, P, Q) == 2

    def test_non_normal_prs_tail_falls_back(self):
        P = sp.Poly(_V**3 + _U, _V, _U)
        Q = sp.Poly(_V, _V, _U)
        R, prs = sp.resultant(P, Q, includePRS=True)
        assert [p.degree() for p in prs] == [3, 1, 0]
        (d, _mult), = R.factor_list()[1]
        assert _subresultant_certificate(d, _lc_v(P) * _lc_v(Q), prs) is None
        assert _common_roots_by_gcd(d, P, Q) == 1

    def test_degree_two_element_after_a_gap_is_not_read_as_s2(self):
        # PRS degrees 4, 2, 1, 0: the element of degree 2 is S_3, not S_2;
        # at u = 0 the gcd is v^2 + 1
        P = sp.Poly((_V**2 + 1) * (_V**2 + _V + 2) + _U * _V**3, _V, _U)
        Q = sp.Poly(_V**2 + 1 + _U * _V, _V, _U)
        R, prs = sp.resultant(P, Q, includePRS=True)
        assert [p.degree() for p in prs] == [4, 2, 1, 0]
        lc = _lc_v(P) * _lc_v(Q)
        certs = {}
        for d, _mult in R.factor_list()[1]:
            certs[d.as_expr()] = (_subresultant_certificate(d, lc, prs), _common_roots_by_gcd(d, P, Q))
        assert certs == {_U: (None, 2), 2 * _U - 5: ((1, 1), 1)}

    def test_prs_elements_are_sylvester_subresultants(self):
        # a degree gap after P, as in the chart conditions (12, 9, 8, ...)
        P = sp.Poly(_V**5 + _U * _V**3 - 2 * _V**2 + (_U - 1) * _V + 3, _V, _U)
        Q = sp.Poly((_U + 2) * _V**3 + _V**2 - _U * _V + 1, _V, _U)
        R, prs = sp.resultant(P, Q, includePRS=True)
        assert [p.degree() for p in prs] == [5, 3, 2, 1, 0]
        for j, F in ((2, prs[-3]), (1, prs[-2]), (0, prs[-1])):
            ratio = sp.cancel(_sylvester_subresultant(P, Q, j) / F.as_expr())
            assert ratio.is_Rational and ratio != 0
        assert R.as_expr() == _sylvester_subresultant(P, Q, 0)
