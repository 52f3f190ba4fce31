"""Covers f1, f2, f3, f6 and the seeded generation engine."""

import random
from pathlib import Path

import pytest
from conftest import PINNED_P0, SURFACE_DIR, domain_matrix, int_matrices, section_at
from hypothesis import given, seed, settings

from dp2 import covers
from dp2.cli import main
from dp2.covers import (
    CoverContext,
    ParamTuple,
    context_for,
    evaluate_cover,
    f1,
    f2,
    f3,
    f6,
    find_very_general_point,
    generate_points,
    generate_points_with_stats,
    in_u_inv,
    point_height,
    rank_minus2K,
    rank_minusK,
)
from dp2.errors import BadParameter, BitangentLine, DP2Error, NotVeryGeneral, SameImage
from dp2.exactalg.poly import _row_echelon
from dp2.geometry import _u0_core, classify_point, osculating_section, phi
from dp2.surface import PointDP2, kappa, load_surface


@pytest.fixture(scope="module")
def ctx0(s0):
    return context_for(s0, PointDP2(1, 0, 0, 1))


@pytest.fixture(scope="module")
def ctx_r(random_surfaces):
    return context_for(random_surfaces[0])


class TestContext:
    def test_eckardt_seed_triggers_search(self, ctx0):
        # (1:0:0:1) is generalized Eckardt, so the bounded search takes over
        assert ctx0.P0 != PointDP2(1, 0, 0, 1)
        assert classify_point(ctx0.surface, ctx0.P0).is_very_general

    def test_very_general_p0_is_classified_once(self, s0, random_surfaces, monkeypatch):
        calls, u0_calls = [], []
        real, real_u0 = covers.classify_point, covers._u0_core

        def classify_point(S, P):
            calls.append(P)
            return real(S, P)

        def _u0_core(f, g, B, P4):
            u0_calls.append(P4)
            return real_u0(f, g, B, P4)

        monkeypatch.setattr(covers, "classify_point", classify_point)
        monkeypatch.setattr(covers, "_u0_core", _u0_core)
        # a given very general P0 is decided by one `_u0_core` call
        P0 = PointDP2(20, 15, 12, 481)
        assert context_for(s0, P0).P0 == P0
        assert u0_calls == [P0.coords()] and calls == []
        u0_calls.clear()
        # a searched P0 is classified by the search alone
        ctx = context_for(random_surfaces[0])
        assert calls[-1] == ctx.P0 and calls.count(ctx.P0) == 1
        assert u0_calls == []

    @pytest.mark.parametrize("name", sorted(PINNED_P0))
    def test_section_paths_agree(self, name):
        """The section of a given P0 is `osculating_section`'s and
        `_u0_core`'s primitive vector: 7 ints, lambda > 0."""
        S = load_surface(SURFACE_DIR / f"{name}.json")
        P0 = PointDP2.parse(PINNED_P0[name])
        vec = _u0_core(S.f_ints, S.g_ints, S.B, P0.coords())
        section = context_for(S, P0).section
        assert section == osculating_section(S, P0) == vec
        assert len(section) == 7 and section[0] > 0 and all(type(c) is int for c in section)

    @pytest.mark.parametrize("name", sorted(PINNED_P0))
    def test_search_classifies_each_point_of_p2_once(self, name, monkeypatch):
        """P and iota(P) share their classification, so the search
        classifies one lift per point of P^2, and finds the same P0."""
        images = []
        real = covers.classify_point

        def classify_point(S, P):
            images.append(kappa(P))
            return real(S, P)

        monkeypatch.setattr(covers, "classify_point", classify_point)
        P0 = find_very_general_point(load_surface(SURFACE_DIR / f"{name}.json"))
        assert str(P0) == PINNED_P0[name]
        assert len(set(images)) == len(images) and images[-1] == kappa(P0)

    def test_search_failure_is_hard_error(self, s0):
        with pytest.raises(NotVeryGeneral):
            find_very_general_point(s0, height_bound=2)


class TestParamTuple:
    def test_normalization(self):
        pt = ParamTuple.make([(2, 4), (-1, -3)])
        assert pt.components == ((1, 2), (1, 3))

    def test_zero_rejected(self):
        with pytest.raises(BadParameter):
            ParamTuple.make([(0, 0)])


class TestF1:
    def test_on_surface_and_section(self, ctx_r):
        P = f1(ctx_r, (1, 4))
        assert ctx_r.surface.equation_at(P.x, P.y, P.z, P.w)
        assert section_at(ctx_r.section, P) == 0

    def test_distinct_parameters_distinct_points(self, ctx_r):
        assert f1(ctx_r, (1, 4)) != f1(ctx_r, (1, 5))

    def test_success_rate(self, ctx0):
        ok = 0
        for k in range(1, 51):
            for param in ((1, k), (k, k + 1)):
                try:
                    f1(ctx0, param)
                    ok += 1
                except BadParameter:
                    pass
        assert ok >= 95

    def test_bad_parameter_taxonomy(self, ctx_r):
        # every failure surfaces as BadParameter, never a raw group-law error
        for k in range(1, 40):
            try:
                f1(ctx_r, (k, 40 - k))
            except DP2Error as exc:
                assert isinstance(exc, BadParameter)


class TestF1Memo:
    @pytest.fixture
    def counted(self, ctx_r, monkeypatch):
        """A fresh context over ctx_r's data, and the pencil parameters of
        the c_p_point calls made from covers; the member 1:7 is made a
        bitangent line."""
        calls = []
        real = covers.c_p_point

        def c_p_point(S, P, param):
            calls.append(param)
            if param == (1, 7):
                raise BitangentLine("pencil member is a bitangent line")
            return real(S, P, param)

        monkeypatch.setattr(covers, "c_p_point", c_p_point)
        return CoverContext(surface=ctx_r.surface, P0=ctx_r.P0, section=ctx_r.section), calls

    def test_repeat_is_one_c_p_point_call(self, counted):
        ctx, calls = counted
        assert f1(ctx, (1, 4)) == f1(ctx, (1, 4))
        assert calls == [(1, 4)]

    def test_normalised_parameters_share_an_entry(self, counted):
        ctx, calls = counted
        assert f1(ctx, (2, 4)) == f1(ctx, (-1, -2))
        assert calls == [(1, 2)] and list(ctx.members) == [(1, 2)]

    def test_bad_member_raises_the_same_text_again(self, counted):
        ctx, calls = counted
        texts = []
        for pair in [(1, 7), (-2, -14)]:
            with pytest.raises(BadParameter) as info:
                f1(ctx, pair)
            texts.append(str(info.value))
        assert texts[0] == texts[1] == "bad pencil member 1:7: pencil member is a bitangent line"
        assert calls == [(1, 7)]


class TestCompositions:
    def test_f2_on_surface_and_collinear(self, ctx_r):
        a, b = (1, 4), (2, 1)
        R = f2(ctx_r, (a, b))
        S = ctx_r.surface
        assert S.equation_at(R.x, R.y, R.z, R.w)
        p, q, r = kappa(f1(ctx_r, a)), kappa(f1(ctx_r, b)), kappa(R)
        m = [list(p.coords()), list(q.coords()), list(r.coords())]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        assert det == 0

    def test_f3_definitional_identity(self, ctx_r):
        triple = ((1, 4), (2, 1), (1, 5))
        lhs = f3(ctx_r, triple)
        rhs = phi(ctx_r.surface, f1(ctx_r, triple[0]), f2(ctx_r, triple[1:]))
        assert lhs == rhs

    def test_f6_equal_halves_same_image(self, ctx_r):
        half = ((1, 4), (2, 1), (1, 5))
        with pytest.raises(SameImage):
            f6(ctx_r, half + half)

    def test_f3_success_rate_positive(self, ctx_r):
        rng = random.Random(11)
        ok = 0
        for _ in range(30):
            pairs = tuple((rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(3))
            try:
                f3(ctx_r, pairs)
                ok += 1
            except DP2Error:
                pass
        assert ok > 0


class TestGenerate:
    def test_determinism(self, ctx_r):
        a = generate_points(ctx_r, "f2", 60, 10**500, 3)
        b = generate_points(ctx_r, "f2", 60, 10**500, 3)
        assert a == b

    def test_all_on_surface_and_sorted(self, ctx_r):
        pts = generate_points(ctx_r, "f2", 60, 10**500, 3)
        S = ctx_r.surface
        assert len(pts) > 5
        for gp in pts:
            assert S.equation_at(gp.point.x, gp.point.y, gp.point.z, gp.point.w)
            assert gp.height == point_height(gp.point)
        keys = [(gp.height, gp.point.coords()) for gp in pts]
        assert keys == sorted(keys)

    def test_height_filter_sound(self, ctx_r):
        bound = 10**20
        pts, stats = generate_points_with_stats(ctx_r, "f2", 60, bound, 3)
        assert all(gp.height <= bound for gp in pts)
        assert stats.attempted == 60
        assert stats.succeeded + stats.failed == 60

    def test_each_distinct_tuple_is_evaluated_once(self, capsys, monkeypatch):
        """The golden f2 run on random2 (budget 50, seed 1) draws repeated
        parameter tuples: each distinct one is evaluated once, and the
        output is still the golden transcript's."""
        calls = []
        real = covers.evaluate_cover

        def evaluate_cover(ctx, cover, params):
            calls.append(params)
            return real(ctx, cover, params)

        monkeypatch.setattr(covers, "evaluate_cover", evaluate_cover)
        line = "generate --surface surfaces/random2.json --cover f2 --budget 50 --seed 1"
        argv = [str(SURFACE_DIR.parent / a) if a.startswith("surfaces/") else a for a in line.split()]
        assert main(argv) == 0
        drawn = covers._sample_params(random.Random(1), 50, 2)
        assert len(calls) == len(set(calls)) == len(set(drawn)) < 50
        golden = (Path(__file__).parent / "golden_cli.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden.split(f"$ dp2 {line}\n")[1].split("exit ")[0]

    def test_bad_arguments(self, ctx_r):
        with pytest.raises(BadParameter):
            generate_points(ctx_r, "f2", 0, 10, 1)
        with pytest.raises(BadParameter):
            evaluate_cover(ctx_r, "f2", ParamTuple.make([(1, 1)]))
        with pytest.raises(BadParameter):
            generate_points(ctx_r, "f9", 10, 10, 1)


class TestRankProxies:
    def test_ranks(self, ctx_r):
        pts = [gp.point for gp in generate_points(ctx_r, "f2", 60, 10**500, 3)[:30]]
        assert rank_minus2K(pts) == 7
        assert rank_minusK(pts) == 3

    def test_rank_deficient_on_curve_points(self, ctx_r):
        # points of C_{P0} all satisfy one |-2K| section, so rank <= 6
        pts = []
        for k in range(1, 12):
            try:
                pts.append(f1(ctx_r, (1, k)))
            except BadParameter:
                pass
        assert rank_minus2K(pts) <= 6


def _rank(rows) -> int:
    return len(_row_echelon(rows)[1])


class TestBareissRank:
    """The rank over Q of the rank proxies, against sympy's DomainMatrix."""

    @seed(21)
    @settings(max_examples=150, deadline=None, database=None)
    @given(int_matrices())
    def test_matches_fraction_elimination(self, matrix):
        rows, ncols = matrix
        assert _rank(rows) == domain_matrix(rows, ncols).rank()

    def test_rank_deficient_examples(self):
        assert _rank([[2, 4, 6], [1, 2, 3], [0, 0, 0]]) == 1
        assert _rank([[0, 0, 1], [0, 0, 2], [0, 3, 0]]) == 2
        assert _rank([[6, 9], [4, 6]]) == 1
        assert _rank([]) == 0


class TestUInv:
    def test_membership_matches_phi_domain(self, ctx_r, random_surfaces):
        from dp2.geometry import phi_domain

        S = ctx_r.surface
        qs = [gp.point for gp in generate_points(ctx_r, "f2", 30, 10**500, 9)]
        for Q in qs[:10]:
            assert in_u_inv(ctx_r, Q) == phi_domain(S, ctx_r.P0, Q).in_U_inv
