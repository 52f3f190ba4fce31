"""Shared fixtures: the reference surfaces and seeded random surfaces."""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from dp2.exactalg import (
    QQ,
    BinForm,
    Poly,
    PrimeField,
    TernForm,
    poly_gcd,
    squarefree_factor,
)
from dp2.exactalg.factor import factor_univariate
from dp2.exactalg.quotient import QuotientField
from dp2.errors import (
    BitangentLine,
    DP2Error,
    NotVeryGeneral,
    ReducibleModel,
    SameImage,
    SingularHit,
    SingularOrigin,
)
from dp2.fforacle import SurjectivityReport, bitangents_through_modp, on_ramification_modp, phi_modp
from dp2.genus1 import neg_wrt, pullback_generic
from dp2.geometry import (
    SEC_MONOMIALS,
    PhiDomainVerdict,
    _det3,
    _osculating_core,
    _pencil_basis,
    _pencil_line,
    _random_unimodular,
    _section_value,
    _u_phi_failure,
    classify_point,
    osculating_section,
)
from dp2.surface import SurfaceDP2, on_surface, validate_surface

SURFACE_DIR = Path(__file__).resolve().parent.parent / "surfaces"

# the very general base point that `covers.find_very_general_point` finds on
# each surface file
PINNED_P0 = {
    "random2": "1:1:0:-1",
    "random3": "1:0:-1:-4",
    "random5": "1:-1:-1:-5",
    "s0": "20:15:-12:-481",
    "s_k": "1:1:0:-1",
}

# seeds pinned so that (a) the branch quartic is smooth, (b) the surface has
# the rational point (1:1:1:1), and (c) a small very general point exists
RANDOM_SEEDS = (2, 3, 5)


def fermat_surface() -> SurfaceDP2:
    """S0: w^2 = x^4 + y^4 + z^4."""
    g = TernForm(QQ, 4, {(4, 0, 0): Fraction(1), (0, 4, 0): Fraction(1), (0, 0, 4): Fraction(1)})
    return validate_surface(TernForm(QQ, 2, {}), g)


def klein_surface() -> SurfaceDP2:
    """S_K: w^2 = x^3 y + y^3 z + z^3 x."""
    g = TernForm(QQ, 4, {(3, 1, 0): Fraction(1), (0, 3, 1): Fraction(1), (1, 0, 3): Fraction(1)})
    return validate_surface(TernForm(QQ, 2, {}), g)


def seeded_random_surface(seed: int) -> SurfaceDP2:
    """Random small-coefficient surface adjusted to pass through (1:1:1:1)."""
    rng = random.Random(seed)
    mon2 = [(i, j, k) for i in range(3) for j in range(3) for k in range(3) if i + j + k == 2]
    mon4 = [(i, j, k) for i in range(5) for j in range(5) for k in range(5) if i + j + k == 4]
    f = {m: Fraction(rng.randint(-2, 2)) for m in mon2}
    g = {m: Fraction(rng.randint(-3, 3)) for m in mon4}
    s_f = sum(f.values())
    s_g = sum(v for k, v in g.items() if k != (0, 0, 4))
    g[(0, 0, 4)] = Fraction(1) + s_f - s_g
    f = {k: v for k, v in f.items() if v}
    g = {k: v for k, v in g.items() if v}
    return validate_surface(TernForm(QQ, 2, f), TernForm(QQ, 4, g))


def _fibre_points(model, wP, X):
    """iota(P) at (1:0) for P = (A, wP), and the point X = (s, t, w), on the
    model of the fibre over the line (s:t) -> sA + tB."""
    F = model.field
    return model.point(F.one, F.zero, -model.a.c[0] - wP), model.point(*X)


def residual_by_group_law(F, f, g, A, B, wP, X, bitangent: str):
    """Reference for `geometry._residual_point`: the point
    R ~ 2(iota(P)) - (X) by the group law with origin iota(P) on every
    fibre, as the core computed it before its closed form.  f, g are the
    surface's int terms and A, B int triples (residues mod p); wP and X are
    in F."""
    model = pullback_generic(F, f, g, A, B)
    iota_P, Xc = _fibre_points(model, wP, X)
    try:
        R = neg_wrt(model, iota_P, Xc)
    except ReducibleModel as exc:
        raise BitangentLine(bitangent) from exc
    except SingularOrigin as exc:
        raise SingularHit(str(exc)) from exc
    return tuple(R.s * A[i] + R.t * B[i] for i in range(3)) + (R.w,)


def _as_field(F, values):
    return tuple(F.from_int(v) if isinstance(v, int) else v for v in values)


def phi_core_by_group_law(F, f, g, P4, Q4):
    """Reference for `geometry._phi_core` with origin "P", on int terms and
    int points (residues mod p)."""
    (*A, wP), (*B, wQ) = P4, Q4
    cross = (A[1] * B[2] - A[2] * B[1], A[2] * B[0] - A[0] * B[2], A[0] * B[1] - A[1] * B[0])
    if all(F.is_zero(F.from_int(v)) for v in cross):
        raise SameImage("kappa(P) = kappa(Q)")
    return residual_by_group_law(F, f, g, A, B, F.from_int(wP), (F.zero, F.one, F.from_int(wQ)),
                                 "the line through kappa(P), kappa(Q) is a bitangent")


def c_p_point_by_group_law(S: SurfaceDP2, P, param):
    """Reference for `geometry.c_p_point`."""
    A, B = _pencil_line(P.xyz(), param)
    wP = Fraction(P.w)
    R = residual_by_group_law(QQ, S.f_ints, S.g_ints, A, B, wP, (QQ.one, QQ.zero, wP),
                              "pencil member is a bitangent line")
    return on_surface(S, *R)


def forms_modp(Sp) -> tuple[TernForm, TernForm]:
    """f and g of the reduction Sp as `TernForm`s over F_p, for the
    references that run on field elements."""
    F = PrimeField(Sp.p)
    return tuple(TernForm(F, d, {e: F.from_int(c) for e, c in h})
                 for d, h in ((2, Sp.f_ints), (4, Sp.g_ints)))


def phi_surjectivity_eager(Sp) -> SurjectivityReport:
    """Reference for `fforacle.phi_surjectivity`: U_0 decided first for
    every point of X(F_p), by the oracle's own test (ramification, then the
    bitangents through kappa(P), then the osculating system), and the
    sweep run over the points found in U_0, in order."""
    pts = Sp.points()
    sections = {}
    for P4 in pts:
        if on_ramification_modp(Sp, P4) or bitangents_through_modp(Sp, P4[:3]) != 0:
            continue
        try:
            sections[P4] = _osculating_core(Sp.f_ints, Sp.g_ints, P4, Sp.p)
        except NotVeryGeneral:
            continue
    remaining = set(pts)
    pairs_tried = 0
    for P4, sec in sections.items():
        if not remaining:
            break
        for Q4 in pts:
            if not remaining:
                break
            if Q4[:3] == P4[:3]:
                continue
            if _section_value(sec, Q4) % Sp.p:
                pairs_tried += 1
                try:
                    remaining.discard(phi_modp(Sp, P4, Q4))
                except DP2Error:
                    continue
    missed = tuple(sorted(remaining))
    return SurjectivityReport(p=Sp.p, total=len(pts), hit=len(pts) - len(missed), missed=missed,
                              pairs_tried=pairs_tried)


def phi_domain_by_classification(S: SurfaceDP2, P, Q) -> PhiDomainVerdict:
    """Reference for `geometry.phi_domain`: U_0 read off `classify_point`,
    the curve C_P off the primitive `osculating_section`."""
    reason = _u_phi_failure(S, P, Q)
    if reason is not None:
        return PhiDomainVerdict(False, False, reason)
    if not classify_point(S, P).is_very_general:
        return PhiDomainVerdict(True, False, "FirstNotInU0")
    if section_at(osculating_section(S, P), Q) == 0:
        return PhiDomainVerdict(True, False, "SecondOnCP")
    return PhiDomainVerdict(True, True, None)


def section_at(section, P):
    """The value at the point P of X of a section given by its integer
    vector in the basis of `_section_row` (`osculating_section`)."""
    return _section_value(section, P.coords())


class PolyRing:
    """Minimal ring adapter so TernForm/BinForm machinery can carry
    polynomial (in t) coefficients, as when B is restricted to a pencil."""

    def __init__(self, F):
        self.F = F
        self.zero = Poly.zero(F)
        self.one = Poly.one(F)

    def from_int(self, n):
        return Poly(self.F, [self.F.from_int(n)])

    @staticmethod
    def is_zero(p) -> bool:
        return p.is_zero()


def square_by_yun(q) -> bool:
    """Reference square test for a binary form q: split off the root at
    infinity (t^k, from the leading zero coefficients), then require every
    multiplicity of the squarefree decomposition to be even."""
    F = q.field
    if q.is_zero():
        return True
    k = next(i for i, a in enumerate(q.c) if not F.is_zero(a))
    finite = Poly(F, list(reversed(q.c[k:])))
    return k % 2 == 0 and all(mult % 2 == 0 for _, mult in squarefree_factor(finite))


def _has_common_projective_root_binary(F, forms) -> bool:
    """Whether nonzero binary forms share a root in P^1 over the closure."""
    forms = [f for f in forms if not f.is_zero()]
    if not forms:
        return True
    if all(F.is_zero(f.c[0]) for f in forms):
        return True
    g = Poly(F, forms[0].c[::-1])  # t = 1
    for f in forms[1:]:
        g = poly_gcd(g, Poly(F, f.c[::-1]))
        if g.degree == 0:
            return False
    return g.degree > 0


def _poly2_resultant_x(F, a, b):
    """Resultant in x of {(i, j): coeff} polynomials in x, y, as a Poly in
    y: the Sylvester determinant over F[y] by Bareiss elimination."""
    ax = max((i for (i, _) in a), default=0)
    bx = max((i for (i, _) in b), default=0)

    def x_coeff(d, i):
        ymax = max((j for (ii, j) in d if ii == i), default=-1)
        return Poly(F, [d.get((i, j), F.zero) for j in range(ymax + 1)])

    arow = [x_coeff(a, i) for i in range(ax, -1, -1)]
    brow = [x_coeff(b, i) for i in range(bx, -1, -1)]
    n = ax + bx
    if n == 0:
        return Poly.one(F)
    zero = Poly.zero(F)
    mat = [[zero] * k + arow + [zero] * (bx - 1 - k) for k in range(bx)]
    mat += [[zero] * k + brow + [zero] * (ax - 1 - k) for k in range(ax)]
    prev, sign = Poly.one(F), 1
    for k in range(n - 1):
        if mat[k][k].is_zero():
            r = next((r for r in range(k + 1, n) if not mat[r][k].is_zero()), None)
            if r is None:
                return zero
            mat[k], mat[r] = mat[r], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = zero
        prev = mat[k][k]
    return mat[n - 1][n - 1] if sign > 0 else -mat[n - 1][n - 1]


def _smooth_in_frame(F, form):
    """True/False when decidable in this coordinate frame, None to retry."""
    partials = [partial_derivative(form, var) for var in range(3)]
    if all(not p.c for p in partials):
        return False
    if _has_common_projective_root_binary(F, [restrict_line_reference(p, (1, 0, 0), (0, 1, 0)) for p in partials]):
        return False  # a common zero on the line z = 0
    nz = [p for p in partials if p.c]
    if len(nz) < 2:
        return False
    dicts = []
    for p in nz:
        d = {}
        for (i, j, _k), val in p.c.items():
            d[(i, j)] = d.get((i, j), F.zero) + val
        dicts.append(d)
    h = Poly.zero(F)
    for other in dicts[1:]:
        r = _poly2_resultant_x(F, dicts[0], other)
        h = poly_gcd(h, r) if not h.is_zero() else r
        if not h.is_zero() and h.degree == 0:
            return True
    if h.is_zero():
        return None
    for factor, _mult in factor_univariate(h.monic()):
        if factor.degree == 0:
            continue
        K = QuotientField(factor)
        g = None
        for d in dicts:
            xmax = max(i for (i, _) in d)
            coeffs = [K.zero] * (xmax + 1)
            for (i, j), val in d.items():
                coeffs[i] = coeffs[i] + K.from_base(val) * K.gen**j
            p = Poly(K, coeffs)
            g = p if g is None else poly_gcd(g, p)
            if g.degree == 0:
                break
        if g.degree != 0:
            return False  # a common zero, or all partials vanish on y = beta
    return True


def partial_derivative(form, var: int):
    """The derivative of the ternary form `form` in its variable `var`."""
    out = {}
    for e, val in form.c.items():
        if e[var]:
            out[e[:var] + (e[var] - 1,) + e[var + 1:]] = val * form.field.from_int(e[var])
    return TernForm(form.field, max(form.degree - 1, 0), out)


def is_smooth_by_elimination(B) -> bool:
    """Reference smoothness test for a plane quartic `TernForm` over Q or
    F_p: the partials' common zeros on z = 0 by gcds of binary forms, then
    in the chart z = 1 by two resultants in x, each root beta of their gcd
    checked by a gcd over Q(beta) or F_p(beta); a frame where the
    resultants vanish identically is left for a seeded random unimodular
    one (`tern_substitute_reference`)."""
    rng = random.Random(11)
    form = B
    for attempt in range(6):
        if attempt > 0:
            form = tern_substitute_reference(B, _random_unimodular(rng))
        verdict = _smooth_in_frame(B.field, form)
        if verdict is not None:
            return verdict
    raise AssertionError("smoothness reference degenerate in all frames")


def _bin_mul_reference(F, a, b):
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _power_table_reference(F, lin, n):
    pw = [[F.one]]
    for _ in range(n):
        pw.append(_bin_mul_reference(F, pw[-1], lin))
    return pw


def _in_field(F, v):
    return F.from_int(v) if isinstance(v, int) else v


def restrict_line_reference(form, p1, p2):
    """Reference B(s*p1 + t*p2) for a ternary form over any field adapter:
    the power-table expansion run on the field's own elements."""
    F, n = form.field, form.degree
    pows = [_power_table_reference(F, [_in_field(F, a), _in_field(F, b)], n) for a, b in zip(p1, p2)]
    out = [F.zero] * (n + 1)
    for (i, j, k), val in form.c.items():
        term = _bin_mul_reference(F, _bin_mul_reference(F, pows[0][i], pows[1][j]), pows[2][k])
        for idx, v in enumerate(term):
            out[idx] = out[idx] + val * v
    return BinForm(F, n, out)


def substitute_reference(q, m):
    """Reference pullback of a binary form along (s,t) -> (m00 s + m01 t,
    m10 s + m11 t), on the field's own elements."""
    F, n = q.field, q.degree
    pow_u = _power_table_reference(F, [_in_field(F, m[0][0]), _in_field(F, m[0][1])], n)
    pow_v = _power_table_reference(F, [_in_field(F, m[1][0]), _in_field(F, m[1][1])], n)
    out = [F.zero] * (n + 1)
    for i, coeff in enumerate(q.c):
        for k, val in enumerate(_bin_mul_reference(F, pow_u[n - i], pow_v[i])):
            out[k] = out[k] + coeff * val
    return BinForm(F, n, out)


def tern_substitute_reference(form, m):
    """Reference pullback of a ternary form along (x, y, z) -> M (x, y, z):
    each monomial expanded by repeated `TernForm` products of the linear
    forms given by the rows of M."""
    F = form.field
    basis = [TernForm(F, 1, {(1, 0, 0): F.from_int(row[0]), (0, 1, 0): F.from_int(row[1]),
                             (0, 0, 1): F.from_int(row[2])}) for row in m]
    out = TernForm(F, form.degree, {})
    for (i, j, k), val in form.c.items():
        term = TernForm(F, 0, {(0, 0, 0): val})
        for lin, e in zip(basis, (i, j, k)):
            for _ in range(e):
                term = term * lin
        out = out + term
    return out


def section_norm_on_line(f, g, vec, P3, D) -> Poly:
    """N(t) = q2^2 - lam f q2 - lam^2 g on the line P3 + t D, for the section
    vec = (lam, q2 in SEC_MONOMIALS) of |-2K_X|.  It is the product of
    lam*w + q2 over the two branches w, w' = -f - w of X over the line, so
    it vanishes at t = 0 to at least the section's order at P; no series
    and no square root enter."""
    F = f.field
    q2 = TernForm(F, 2, dict(zip(SEC_MONOMIALS, vec[1:])))
    fL, gL, qL = (Poly(F, restrict_line_reference(h, P3, D).c) for h in (f, g, q2))
    lam = vec[0]
    return qL * qL - (fL * qL).scale(lam) - gL.scale(lam * lam)


def seeded_directions(F, P3, seed: int, count: int = 4) -> list:
    """`count` seeded integer directions D, each off the planes through P3
    and e1, e2, e1 + e2 (`_pencil_basis`): none restricts the section to a
    line `_section_condition_rows` uses."""
    e1, e2 = _pencil_basis(P3)
    used = (e1, e2, tuple(a + b for a, b in zip(e1, e2)))
    P3 = [_in_field(F, v) for v in P3]
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        D = tuple(rng.randint(-5, 5) for _ in range(3))
        if all(not F.is_zero(_det3([D, e, P3])) for e in used):
            out.append(D)
    return out


def assert_norm_order(f, g, vec, P4, order: int, seed: int) -> None:
    """The section with int vector vec, mapped into the field of the forms
    f and g, vanishes to order >= `order` at P4: its norm on each of four
    `seeded_directions` lines has no term below t^order."""
    vec = [f.field.from_int(v) for v in vec]
    for D in seeded_directions(f.field, P4[:3], seed):
        N = section_norm_on_line(f, g, vec, P4[:3], D)
        low = next((i for i, c in enumerate(N.c) if not f.field.is_zero(c)), math.inf)
        assert low >= order, (P4, D)


@st.composite
def int_matrices(draw):
    """Integer matrices of up to 9 x 8, rank-deficient as the product of an
    r x k and a k x c factor with k below both, or drawn entry by entry."""
    r, c = draw(st.integers(0, 9)), draw(st.integers(1, 8))
    big = st.integers(-(10**20), 10**20) | st.integers(-3, 3)
    if draw(st.booleans()):
        k = draw(st.integers(0, max(min(r, c) - 1, 0)))
        left = draw(st.lists(st.lists(big, min_size=k, max_size=k), min_size=r, max_size=r))
        right = draw(st.lists(st.lists(big, min_size=c, max_size=c), min_size=k, max_size=k))
        return [[sum(a * right[i][j] for i, a in enumerate(row)) for j in range(c)] for row in left], c
    return draw(st.lists(st.lists(big, min_size=c, max_size=c), min_size=r, max_size=r)), c


def domain_matrix(rows, ncols: int, p: int = 0) -> DomainMatrix:
    """The int matrix `rows` as sympy's DomainMatrix over QQ, or GF(p) for
    p > 0: the reference elimination, independent of dp2."""
    K = sympy.GF(p) if p else sympy.QQ
    return DomainMatrix([[K(v) for v in row] for row in rows], (len(rows), ncols), K)


@pytest.fixture(scope="session")
def s0() -> SurfaceDP2:
    return fermat_surface()


@pytest.fixture(scope="session")
def sk() -> SurfaceDP2:
    return klein_surface()


@pytest.fixture(scope="session")
def random_surfaces() -> list[SurfaceDP2]:
    return [seeded_random_surface(seed) for seed in RANDOM_SEEDS]
