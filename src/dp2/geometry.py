"""The paper's two procedures on X -- point propagation phi and the rational
curve C_P -- plus exact point classification (ramification, exceptional
curves, generalized Eckardt) and the U_phi / U_inv membership tests.

All cores are generic over a field adapter so the finite-field oracle can run
the identical procedures mod p; the public API wraps them for Q.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import sympy as sp

from .errors import (
    BitangentLine,
    EliminationDegenerate,
    NotVeryGeneral,
    SameImage,
    SingularHit,
    SingularOrigin,
)
from .exactalg import (
    QQ,
    Poly,
    QuotientField,
    RationalField,
    TernForm,
    content_primitive_ints,
    factor_univariate,
    is_square_binform,
    poly_gcd,
    square_conditions,
)
from .exactalg.factor import from_sympy_coeffs
from .exactalg.modgcd import quotient_gcd
from .genus1 import (
    LineParam,
    ModelClass,
    classify_model,
    complete_unimodular,
    lin_comb,
    neg_wrt,
    pullback_generic,
    pullback_line,
)
from .surface import PointDP2, PointP2, SurfaceDP2, geiser, kappa, on_ramification, on_surface

# fixed ordering of the |-2K_X| section basis: w, then the degree-2 monomials
SEC_MONOMIALS = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]


# ---------------------------------------------------------------------------
# truncated bivariate jets (exact Taylor expansions at a point)


class _Jet:
    """Truncated power series in two local variables, total degree <= N."""

    __slots__ = ("F", "N", "c")

    def __init__(self, F, N, coeffs=None):
        self.F = F
        self.N = N
        self.c = {}
        if coeffs:
            for k, v in coeffs.items():
                if not F.is_zero(v):
                    self.c[k] = v

    @classmethod
    def const(cls, F, N, v):
        return cls(F, N, {(0, 0): v})

    @classmethod
    def var(cls, F, N, v0, which: int):
        key = (1, 0) if which == 0 else (0, 1)
        return cls(F, N, {(0, 0): v0, key: F.one})

    def coeff(self, i, j):
        return self.c.get((i, j), self.F.zero)

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, self.F.zero) + v
        return _Jet(self.F, self.N, out)

    def __sub__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, self.F.zero) - v
        return _Jet(self.F, self.N, out)

    def __mul__(self, other):
        F = self.F
        out = {}
        for (i1, j1), v1 in self.c.items():
            for (i2, j2), v2 in other.c.items():
                i, j = i1 + i2, j1 + j2
                if i + j > self.N:
                    continue
                out[(i, j)] = out.get((i, j), F.zero) + v1 * v2
        return _Jet(F, self.N, out)

    def scale(self, k):
        return _Jet(self.F, self.N, {key: v * k for key, v in self.c.items()})

    def inverse(self):
        F = self.F
        c0 = self.coeff(0, 0)
        if F.is_zero(c0):
            raise ZeroDivisionError("jet with zero constant term")
        inv0 = F.one / c0
        # geometric series in (1 - self/c0)
        u = _Jet.const(F, self.N, F.one) - self.scale(inv0)
        acc = _Jet.const(F, self.N, F.one)
        term = _Jet.const(F, self.N, F.one)
        for _ in range(self.N):
            term = term * u
            acc = acc + term
        return acc.scale(inv0)

    def sqrt(self, root0):
        """Square root with prescribed constant term root0 (a unit)."""
        F = self.F
        if root0 * root0 != self.coeff(0, 0):
            raise ValueError("root0^2 must match the constant term")
        x = _Jet.const(F, self.N, root0)
        half = F.one / F.from_int(2)
        for _ in range(self.N + 1):
            x = (x + self * x.inverse()).scale(half)
        return x


def _tern_jet(F, form: TernForm, vars_jets) -> _Jet:
    """Expand a ternary form at a point given jets for the coordinates."""
    N = vars_jets[0].N
    acc = _Jet(F, N)
    for (i, j, k), val in form.c.items():
        term = _Jet.const(F, N, val)
        for _ in range(i):
            term = term * vars_jets[0]
        for _ in range(j):
            term = term * vars_jets[1]
        for _ in range(k):
            term = term * vars_jets[2]
        acc = acc + term
    return acc


def _chart_index(F, xyz) -> int:
    """Affine chart at a point: largest coordinate over Q, else first nonzero."""
    if isinstance(F, RationalField):
        absvals = [abs(Fraction(v)) for v in xyz]
        return max(range(3), key=lambda i: (absvals[i], -i))
    for i in range(3):
        if not F.is_zero(xyz[i]):
            return i
    raise ValueError("zero coordinate triple")


def _section_condition_rows(F, f: TernForm, g: TernForm, P4, order: int):
    """Rows of the linear system 'lambda*w + q2 vanishes to order >= `order`
    at P on X', in the basis (lambda, SEC_MONOMIALS).  order = 2 gives 3 rows,
    order = 3 gives 6 rows.  Requires P off the ramification divisor."""
    N = order - 1
    x, y, z, w = P4
    c = _chart_index(F, (x, y, z))
    coord = [x, y, z]
    cc = coord[c]
    if isinstance(cc, int):
        coord = [F.from_int(v) for v in coord]
        w = F.from_int(w)
        cc = coord[c]
    inv = F.one / cc
    aff = [v * inv for v in coord]
    w_aff = w * inv * inv
    others = [i for i in range(3) if i != c]
    jets = [None, None, None]
    jets[c] = _Jet.const(F, N, F.one)
    jets[others[0]] = _Jet.var(F, N, aff[others[0]], 0)
    jets[others[1]] = _Jet.var(F, N, aff[others[1]], 1)
    f_jet = _tern_jet(F, f, jets)
    g_jet = _tern_jet(F, g, jets)
    q_jet = f_jet * f_jet + g_jet.scale(F.from_int(4))
    v0 = w_aff + w_aff + f_jet.coeff(0, 0)
    if F.is_zero(v0):
        raise ZeroDivisionError("point on the ramification divisor")
    v_jet = q_jet.sqrt(v0)
    half = F.one / F.from_int(2)
    w_jet = (v_jet - f_jet).scale(half)
    basis_jets = [w_jet]
    for (i, j, k) in SEC_MONOMIALS:
        mono = TernForm(F, 2, {(i, j, k): F.one})
        basis_jets.append(_tern_jet(F, mono, jets))
    rows = []
    for deg in range(N + 1):
        for i in range(deg, -1, -1):
            j = deg - i
            rows.append([bj.coeff(i, j) for bj in basis_jets])
    return rows


def _kernel(F, rows, ncols):
    """Basis of the kernel of the matrix (list of rows) over F."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    pivots = []
    r = 0
    for col in range(ncols):
        pr = None
        for i in range(r, nrows):
            if not F.is_zero(mat[i][col]):
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = F.one / mat[r][col]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and not F.is_zero(mat[i][col]):
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [F.zero] * ncols
        vec[fc] = F.one
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -mat[prow][fc]
        basis.append(vec)
    return basis


def _matrix_rank(F, rows, ncols) -> int:
    return ncols - len(_kernel(F, rows, ncols))


# ---------------------------------------------------------------------------
# sections of |-2K_X|


@dataclass(frozen=True)
class SectionMinus2K:
    """The section lambda*w + q2(x, y, z) of |-2K_X|."""

    lam: int
    q2: TernForm  # degree 2, integer coefficients over Q

    def evaluate(self, P: PointDP2) -> Fraction:
        return Fraction(self.lam) * P.w + self.q2.evaluate(
            Fraction(P.x), Fraction(P.y), Fraction(P.z)
        )

    def vector(self) -> list[Fraction]:
        return [Fraction(self.lam)] + [self.q2.coeff(*m) for m in SEC_MONOMIALS]

    def __str__(self):
        return f"{self.lam}*w + {self.q2.c}"


def _osculating_core(F, f: TernForm, g: TernForm, P4):
    """Primitive generator of the sections vanishing to order >= 3 at P."""
    try:
        rows = _section_condition_rows(F, f, g, P4, order=3)
    except ZeroDivisionError:
        raise NotVeryGeneral("point lies on the ramification divisor")
    ker = _kernel(F, rows, 7)
    if len(ker) != 1:
        raise NotVeryGeneral(f"osculation system has solution dimension {len(ker)}")
    vec = ker[0]
    if F.is_zero(vec[0]):
        raise NotVeryGeneral("osculating section degenerates (lambda = 0)")
    return vec


def osculating_section(S: SurfaceDP2, P: PointDP2) -> SectionMinus2K:
    """The unique (up to scalar) section of |-2K_X| vanishing to order >= 3
    at a very general P; its zero locus on X is the rational curve C_P."""
    vec = _osculating_core(QQ, S.f, S.g, P.coords())
    ints, _ = content_primitive_ints([Fraction(v) for v in vec])
    if ints[0] < 0:
        ints = [-n for n in ints]
    q2 = TernForm(QQ, 2, {m: Fraction(ints[1 + i]) for i, m in enumerate(SEC_MONOMIALS)})
    return SectionMinus2K(lam=ints[0], q2=q2)


# ---------------------------------------------------------------------------
# phi


def _phi_core(F, f: TernForm, g: TernForm, P4, Q4, origin: str = "P"):
    """phi on coordinate tuples; returns an unnormalized 4-tuple over F.

    `origin` picks the group-law origin on E_{P,Q}: "P" uses iota(P), "Q"
    uses iota(Q); the divisor class 2(iota(P)) - (Q) has degree 1, so the
    result is origin-independent."""
    A = P4[:3]
    B = Q4[:3]
    cross = (
        A[1] * B[2] - A[2] * B[1],
        A[2] * B[0] - A[0] * B[2],
        A[0] * B[1] - A[1] * B[0],
    )
    zero = lambda v: v == 0 if isinstance(v, int) else F.is_zero(v)
    if all(zero(v) for v in cross):
        raise SameImage("kappa(P) = kappa(Q)")
    model = pullback_generic(F, f, g, A, B)
    if classify_model(model) is ModelClass.Reducible:
        raise BitangentLine("the line through kappa(P), kappa(Q) is a bitangent")
    fP = f.evaluate(*_as_field(F, A))
    fQ = f.evaluate(*_as_field(F, B))
    wP = F.from_int(P4[3]) if isinstance(P4[3], int) else P4[3]
    wQ = F.from_int(Q4[3]) if isinstance(Q4[3], int) else Q4[3]
    iota_P = model.point(F.one, F.zero, -fP - wP)   # iota(P) at (s:t) = (1:0)
    Qc = model.point(F.zero, F.one, wQ)             # Q at (s:t) = (0:1)
    try:
        if origin == "P":
            R = neg_wrt(model, iota_P, Qc)
        elif origin == "Q":
            iota_Q = model.point(F.zero, F.one, -fQ - wQ)
            R = lin_comb(model, iota_Q, [(2, iota_P), (-1, Qc)])
        else:
            raise ValueError(f"origin must be 'P' or 'Q', got {origin!r}")
    except SingularOrigin as exc:
        raise SingularHit(str(exc)) from exc
    xyz = tuple(R.s * _f(F, A[i]) + R.t * _f(F, B[i]) for i in range(3))
    return xyz + (R.w,)


def _f(F, v):
    return F.from_int(v) if isinstance(v, int) else v


def _as_field(F, triple):
    return tuple(_f(F, v) for v in triple)


def phi(S: SurfaceDP2, P: PointDP2, Q: PointDP2, origin: str = "P") -> PointDP2:
    """The unique point R of E_{P,Q} with (R) ~ 2(iota(P)) - (Q)."""
    x, y, z, w = _phi_core(QQ, S.f, S.g, P.coords(), Q.coords(), origin=origin)
    return on_surface(S, x, y, z, w)


# ---------------------------------------------------------------------------
# C_P via the pencil


def c_p_point(S: SurfaceDP2, P: PointDP2, param: tuple[int, int]) -> PointDP2:
    """The residual point of |-2K - 2 iota(P) ... | on the pencil member:
    R = neg_wrt(E_L, iota(P), P) for the line L through kappa(P) selected by
    `param`.  For very general P these points sweep out C_P."""
    L = LineParam.pencil_member(P.xyz(), param)
    model = pullback_line(S, L)
    if classify_model(model) is ModelClass.Reducible:
        raise BitangentLine("pencil member is a bitangent line")
    iota_P = geiser(S, P)
    O = model.point(QQ.one, QQ.zero, Fraction(iota_P.w))
    Pc = model.point(QQ.one, QQ.zero, Fraction(P.w))
    try:
        R = lin_comb(model, O, [(-1, Pc)])
    except SingularOrigin as exc:
        raise SingularHit(str(exc)) from exc
    A, B = L.spanning()
    x = R.s * A[0] + R.t * B[0]
    y = R.s * A[1] + R.t * B[1]
    z = R.s * A[2] + R.t * B[2]
    return on_surface(S, x, y, z, R.w)


# ---------------------------------------------------------------------------
# bitangent counting through a point


class _PolyRing:
    """Minimal ring adapter so TernForm/BinForm machinery can carry
    polynomial (in t) coefficients when B is restricted to the pencil."""

    def __init__(self, F):
        self.F = F
        self.zero = Poly.zero(F)
        self.one = Poly.one(F)

    def from_int(self, n):
        return Poly(self.F, [self.F.from_int(n)])

    @staticmethod
    def is_zero(p) -> bool:
        return p.is_zero()


def _pencil_basis(F, p3):
    """Two directions spanning the pencil of lines through p3."""
    if isinstance(F, RationalField):
        e1, e2 = complete_unimodular(tuple(int(v) for v in p3))
        return e1, e2
    # over a finite field: pick two standard vectors making the frame invertible
    idx = _chart_index(F, p3)
    others = [i for i in range(3) if i != idx]
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return e[others[0]], e[others[1]]


def _count_bitangents_core(F, Bform: TernForm, p3):
    """Number of distinct lines through p3 (over the algebraic closure) whose
    restriction of B is a square up to scalar; with a certificate listing the
    passing irreducible pencil parameters.

    The members are the line through p3 and e1 + t*e2, plus the one through
    p3 and e2 (t = infinity), tested on its own.  B restricted to the first
    is sum a_i(t) s^(4-i) r^i; let c1, c2 be its `square_conditions`, and
    G = gcd(c1, c2) over F.

    1. Every square member is a root of G: with a4(t) != 0, c1 = c2 = 0 is
       the square test itself; with a4(t) = 0, c1 = a3^3 and c2 = -a3^4,
       and a square member has a3(t) = 0.
    2. At a root t of G with a4(t) = 0, a3(t) = 0 follows from c1 = 0, so
       the member is a square exactly when a1^2 - 4 a0 a2 vanishes at t.
       For an irreducible factor d of G, a4 vanishes at all roots of d or
       at none, as d | a4 or not; likewise for a1^2 - 4 a0 a2.  So all
       roots of d pass, unless d | a4 and d does not divide a1^2 - 4 a0 a2,
       when none does.
    3. F is Q or F_p, so an irreducible d is separable: its deg d roots are
       distinct, as are the lines they give, and factors share no root."""
    e1, e2 = _pencil_basis(F, p3)
    B_ring = Bform.map_coeffs(lambda v: Poly(F, [v]), _PolyRing(F))
    pconst = [Poly(F, [_f(F, v)]) for v in p3]
    moving = [Poly(F, [_f(F, e1[i]), _f(F, e2[i])]) for i in range(3)]
    a0, a1, a2, a3, a4 = B_ring.restrict_line(pconst, moving).c
    G = poly_gcd(*square_conditions(a0, a1, a2, a3, a4))
    if G.is_zero():
        raise EliminationDegenerate("square conditions vanish along the pencil")
    disc2 = a1 * a1 - 4 * a0 * a2
    count = 0
    certificate = []
    for d, _mult in factor_univariate(G):
        if (a4 % d).is_zero() and not (disc2 % d).is_zero():
            continue
        count += d.degree
        certificate.append((repr(d), d.degree))
    q_inf = Bform.restrict_line(_as_field(F, p3), _as_field(F, e2))
    if is_square_binform(q_inf):
        count += 1
        certificate.append(("t = infinity", 1))
    return count, certificate


def count_bitangents_through(S: SurfaceDP2, p: PointP2):
    """Number of bitangents of B through p, with a certificate."""
    return _count_bitangents_core(QQ, S.B, p.coords())


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class PointClassification:
    on_ramification: bool
    n_exceptional: int
    is_general: bool
    is_very_general: bool
    is_generalized_eckardt: bool

    def as_dict(self):
        return {
            "on_ramification": self.on_ramification,
            "n_exceptional": self.n_exceptional,
            "is_general": self.is_general,
            "is_very_general": self.is_very_general,
            "is_generalized_eckardt": self.is_generalized_eckardt,
        }


def classify_point(S: SurfaceDP2, P: PointDP2) -> PointClassification:
    on_ram = on_ramification(S, P)
    n_exc, _cert = count_bitangents_through(S, kappa(P))
    eckardt = n_exc == 4
    return PointClassification(
        on_ramification=on_ram,
        n_exceptional=n_exc,
        is_general=(not on_ram) and (not eckardt),
        is_very_general=(not on_ram) and n_exc == 0,
        is_generalized_eckardt=eckardt,
    )


# ---------------------------------------------------------------------------
# phi domain verdicts


@dataclass(frozen=True)
class PhiDomainVerdict:
    in_U_phi: bool
    in_U_inv: bool
    failure_reason: str | None  # SameImage | BitangentLine | NonSmoothEndpoint
    #                           | FirstNotInU0 | SecondOnCP

    def as_dict(self):
        return {
            "in_U_phi": self.in_U_phi,
            "in_U_inv": self.in_U_inv,
            "failure_reason": self.failure_reason,
        }


def _u_phi_failure(S: SurfaceDP2, P: PointDP2, Q: PointDP2) -> str | None:
    """Why (P, Q) lies outside U_phi -- "SameImage", "BitangentLine" or
    "NonSmoothEndpoint" -- or None when it lies in U_phi.  U_inv is the part
    of U_phi with P in U_0 and Q off C_P."""
    if kappa(P) == kappa(Q):
        return "SameImage"
    model = pullback_generic(QQ, S.f, S.g, P.xyz(), Q.xyz())
    if classify_model(model) is ModelClass.Reducible:
        return "BitangentLine"
    iota_P = geiser(S, P)
    O = model.point(QQ.one, QQ.zero, Fraction(iota_P.w))
    Qc = model.point(QQ.zero, QQ.one, Fraction(Q.w))
    if not (model.is_smooth_at(O) and model.is_smooth_at(Qc)):
        return "NonSmoothEndpoint"
    return None


def phi_domain(S: SurfaceDP2, P: PointDP2, Q: PointDP2) -> PhiDomainVerdict:
    reason = _u_phi_failure(S, P, Q)
    if reason is not None:
        return PhiDomainVerdict(False, False, reason)
    cls = classify_point(S, P)
    if not cls.is_very_general:
        return PhiDomainVerdict(True, False, "FirstNotInU0")
    section = osculating_section(S, P)
    if section.evaluate(Q) == 0:
        return PhiDomainVerdict(True, False, "SecondOnCP")
    return PhiDomainVerdict(True, True, None)


# ---------------------------------------------------------------------------
# all 28 bitangents

_U, _V = sp.symbols("_u _v")


_BITANGENT_FRAMES = 6  # coordinate frames tried before giving up


def count_all_bitangents(S: SurfaceDP2) -> int:
    """Total number of bitangent lines of B over the algebraic closure,
    computed by elimination in the chart of lines z = u x + v y plus the
    pencil through (0:0:1); must equal 28 for smooth B."""
    rng = random.Random(1729)
    last_exc = None
    for attempt in range(_BITANGENT_FRAMES):
        if attempt == 0:
            Bf = S.B
        else:
            from .surface import _random_unimodular, _tern_substitute
            Bf = _tern_substitute(S.B, _random_unimodular(rng))
        try:
            return _count_all_bitangents_frame(Bf)
        except EliminationDegenerate as exc:
            last_exc = exc
    raise EliminationDegenerate(f"all frames degenerate: {last_exc}")


def _count_all_bitangents_frame(Bf: TernForm) -> int:
    """Bitangents of B in one frame: the common zeros (u, v) of the chart
    conditions c1, c2 (lines z = u x + v y), corrected for spurious zeros
    with a4 = a3 = 0, plus the bitangents through (0:0:1).

    The common zeros are counted over each irreducible factor d of
    R = Res_v(P, Q), where P, Q are c1, c2 with deg_v P >= deg_v Q: d adds
    deg d times the number of distinct common roots v of P(alpha, v) and
    Q(alpha, v) at one root alpha of d (all roots of d are conjugate).  That
    number is read from the subresultant PRS of P, Q whenever the certificate
    below applies, else from the gcd over Q(alpha) (`_common_roots_by_gcd`).

    Soundness of the certificate.  Write S_j for the j-th subresultant of P
    and Q in v (the determinant polynomial of the j-th Sylvester submatrix)
    and psc_j for its coefficient of v^j; psc_0 = S_0 = R.

    1. Specialisation.  If d is coprime to lc_v(P) * lc_v(Q), then at every
       root alpha of d both leading coefficients are nonzero, so P(alpha, v)
       and Q(alpha, v) keep their degrees, every Sylvester submatrix keeps
       its shape, and S_j(alpha, v) = S_j(P(alpha, v), Q(alpha, v)).
    2. Gcd.  Over the field Q(alpha), the gcd of two polynomials has degree
       the least j with psc_j(alpha) != 0, and S_j(alpha, v) is that gcd.
       As d is irreducible, psc_j(alpha) = 0 exactly when d | psc_j; d | R,
       so j >= 1.  In sympy's subresultant PRS P, Q, F_3, ... each F_i, and
       Q too if deg_v P = deg_v Q + 1, is S_(k-1) up to a nonzero rational
       factor, k the degree of the element before it (the tests check this
       against Sylvester determinants).  So an element of degree 1 after
       one of degree 2 is S_1, and one of degree 2 after one of degree 3 is
       S_2: psc_1, psc_2 are their leading coefficients in v.  If d does not
       divide psc_1, then j = 1: the gcd is linear, one common root.
    3. j = 2: the gcd is the quadratic S_2(alpha, v) with leading
       coefficient psc_2(alpha) != 0.  It has one double root when
       disc_v(S_2)(alpha) = 0, i.e. when d | disc_v(S_2), and two distinct
       roots otherwise.

    Every other case (a PRS that does not end in degrees 2, 1, 0, or in
    3, 2, 1, 0 for j = 2; d | lc_v(P) lc_v(Q); or j > 2) takes the gcd over
    Q(alpha)."""
    a, P, Q = _chart_conditions(Bf)
    R, prs = sp.resultant(P, Q, includePRS=True)
    if R.is_zero:
        raise EliminationDegenerate("resultant in the dual chart vanishes")
    lc_PQ = _lc_v(P) * _lc_v(Q)
    count = 0
    for d, _mult in R.factor_list()[1]:
        if d.degree() == 0:
            continue
        cert = _subresultant_certificate(d, lc_PQ, prs)
        roots = cert[1] if cert is not None else _common_roots_by_gcd(d, P, Q)
        count += d.degree() * roots
    # correction: spurious solutions with a4 = a3 = 0 but the residual
    # quadratic a0 x^2 + a1 x y + a2 y^2 not a perfect square
    if a[4].is_zero:
        raise EliminationDegenerate("a4 vanishes identically")
    # a4 = B(0, 1, v) involves v only
    a4p = sp.Poly.from_dict({(i,): c for (i, _j), c in a[4].terms()}, _V, domain=sp.QQ)
    disc2 = a[1] ** 2 - 4 * a[0] * a[2]
    for e_expr, _mult in a4p.factor_list()[1]:
        if e_expr.degree() == 0:
            continue
        eQ = from_sympy_coeffs(e_expr.all_coeffs(), QQ).monic()
        Ke = QuotientField(eQ)
        a3K = _bivar_eval(Ke, a[3], _V)
        if a3K.is_zero():
            raise EliminationDegenerate("a3 vanishes along a root of a4")
        if a3K.degree == 0:
            continue
        rad3 = a3K.monic() // poly_gcd(a3K, a3K.derivative())
        d2K = _bivar_eval(Ke, disc2, _V)
        s_common = poly_gcd(rad3, d2K) if not d2K.is_zero() else rad3
        count -= eQ.degree * (rad3.degree - s_common.degree)
    n_e3, _cert = _count_bitangents_core(QQ, Bf, (0, 0, 1))
    return count + n_e3


def _chart_conditions(Bf: TernForm):
    """The coefficients a0..a4 of B(x, y, u x + v y) = sum a_i x^(4-i) y^i
    as polynomials in (v, u) over QQ, and the conditions c1, c2 for that
    quartic to be a square up to scalar (given a4 != 0), as (P, Q): c1 and
    c2 with integer coefficients, ordered so that deg_v P >= deg_v Q."""
    a = [{} for _ in range(5)]
    for (i, j, k), val in Bf.c.items():
        # x^i y^j (u x + v y)^k contributes C(k, l) u^(k-l) v^l to a_(j+l)
        c = sp.QQ(val.numerator, val.denominator)
        for l in range(k + 1):
            key = (l, k - l)
            a[j + l][key] = a[j + l].get(key, sp.QQ.zero) + c * comb(k, l)
    a = [sp.Poly.from_dict(t, _V, _U, domain=sp.QQ) for t in a]
    c1, c2 = square_conditions(*a)
    if c1.is_zero or c2.is_zero:
        raise EliminationDegenerate("chart conditions vanish identically")
    P, Q = sorted((c1, c2), key=lambda p: p.degree(), reverse=True)
    return a, P.clear_denoms(convert=True)[1], Q.clear_denoms(convert=True)[1]


def _coeff_v(p: sp.Poly, n: int) -> sp.Poly:
    """Coefficient of v^n in p, a polynomial in (v, u), as a polynomial in u."""
    return sp.Poly.from_dict({(j,): c for (i, j), c in p.terms() if i == n}, _U, domain=p.domain)


def _lc_v(p: sp.Poly) -> sp.Poly:
    return _coeff_v(p, p.degree())


def _divides(d: sp.Poly, X: sp.Poly) -> bool:
    """d | X for d irreducible over Q."""
    return d.gcd(X).degree() > 0


def _subresultant_certificate(d: sp.Poly, lc_PQ: sp.Poly, prs) -> tuple[int, int] | None:
    """(j, r): at a root alpha of d, gcd(P(alpha, v), Q(alpha, v)) is
    S_j(alpha, v) and has r distinct roots; None where the certificate does
    not apply.  `prs` is the subresultant PRS of P, Q in v and lc_PQ the
    product of their leading coefficients in v; see
    `_count_all_bitangents_frame` for the argument."""
    degs = [p.degree() for p in prs]
    if degs[-3:] != [2, 1, 0] or _divides(d, lc_PQ):
        return None
    if not _divides(d, _lc_v(prs[-2])):
        return 1, 1
    if degs[-4:] != [3, 2, 1, 0]:
        return None
    s2, s1, s0 = (_coeff_v(prs[-3], n) for n in (2, 1, 0))
    if _divides(d, s2):
        return None
    return 2, 1 if _divides(d, s1**2 - 4 * s2 * s0) else 2


def _common_roots_by_gcd(d: sp.Poly, P: sp.Poly, Q: sp.Poly) -> int:
    """Distinct common roots v of P(alpha, v), Q(alpha, v) at a root alpha
    of the irreducible d, from their gcd over K = Q(alpha)."""
    K = QuotientField(from_sympy_coeffs(d.all_coeffs(), QQ).monic())
    gK = quotient_gcd(_bivar_eval(K, P, _U), _bivar_eval(K, Q, _U))
    if gK.degree <= 0:
        return 0
    return (gK // quotient_gcd(gK, gK.derivative())).degree


def _bivar_eval(K: QuotientField, p: sp.Poly, var) -> Poly:
    """p(var = generator of K, other) as a Poly in the other generator of
    the bivariate p, over K = Q[var]/(m).  Each coefficient, a polynomial in
    var, is evaluated at the generator by one reduction mod m."""
    spec = p.gens.index(var)
    rows: dict[int, dict[int, Fraction]] = {}
    for monom, c in p.terms():
        rows.setdefault(monom[1 - spec], {})[monom[spec]] = Fraction(int(c.numerator), int(c.denominator))
    out = [K.zero] * (max(rows) + 1)
    for e, row in rows.items():
        out[e] = K.from_poly(Poly(QQ, [row.get(i, QQ.zero) for i in range(max(row) + 1)]))
    return Poly(K, out)
