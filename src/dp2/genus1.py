"""Genus-1 quartic fibers E_L = kappa^{-1}(L) and their group-law engine:
the reference behind `phi(..., origin="Q")`, the independent check of the
closed form in `geometry`, which imports this module only there.

A fiber is modeled as w^2 + a(s,t) w = b(s,t) in the weighted plane P(1,1,2)
over the parametrized line L.  Completing the square (v = 2w + a) gives
v^2 = q := a^2 + 4b, a binary quartic.  The engine converts the quartic to a
long Weierstrass cubic with a chosen smooth origin, runs chord-tangent
arithmetic there, and transports divisor-class computations back.  Everything
is generic over a field adapter (Q or F_p).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import ReducibleModel, SingularHit
from .exactalg import (
    BinForm,
    RationalField,
    content_primitive_ints,
    disc_binary_quartic,
    is_square_binform,
)
from .exactalg.poly import _expand_linear


class ModelClass(enum.Enum):
    Smooth = "Smooth"
    IrreducibleSingular = "IrreducibleSingular"
    Reducible = "Reducible"


@dataclass(frozen=True)
class CurvePoint:
    """A point (s : t : w) on a quartic model, canonically normalized."""

    s: object
    t: object
    w: object

    def __str__(self):
        return f"({self.s}:{self.t}:{self.w})"


def make_curve_point(F, s, t, w) -> CurvePoint:
    """Canonical representative under (s, t, w) ~ (ls, lt, l^2 w)."""
    if isinstance(F, RationalField):
        (si, ti), scale = content_primitive_ints((s, t))
        if not scale:
            raise ValueError("(0, 0) is not a parameter point")
        return CurvePoint(Fraction(si), Fraction(ti), w / (scale * scale))
    if not F.is_zero(t):
        inv = F.one / t
        return CurvePoint(s * inv, F.one, w * inv * inv)
    inv = F.one / s
    return CurvePoint(F.one, F.zero, w * inv * inv)


@dataclass(frozen=True)
class QuarticModel:
    """w^2 + a(s,t) w = b(s,t) over the (s:t)-line."""

    a: BinForm  # degree 2
    b: BinForm  # degree 4

    @property
    def field(self):
        return self.a.field

    def q(self) -> BinForm:
        return self.a * self.a + self.b.scale(self.a.field.from_int(4))

    def contains(self, P: CurvePoint) -> bool:
        av = self.a.evaluate(P.s, P.t)
        bv = self.b.evaluate(P.s, P.t)
        return self.field.is_zero(P.w * P.w + av * P.w - bv)

    def point(self, s, t, w) -> CurvePoint:
        P = make_curve_point(self.field, s, t, w)
        if not self.contains(P):
            raise ValueError(f"({s}:{t}:{w}) not on the quartic model")
        return P

    def is_smooth_at(self, P: CurvePoint) -> bool:
        """Smoothness of the (weighted) plane curve at P."""
        F = self.field
        v = 2 * P.w + self.a.evaluate(P.s, P.t)
        if not F.is_zero(v):
            return True
        qf = self.q()
        ds = qf.deriv_s().evaluate(P.s, P.t)
        dt = qf.deriv_t().evaluate(P.s, P.t)
        return not (F.is_zero(ds) and F.is_zero(dt))


def pullback_generic(F, f, g, A, B) -> QuarticModel:
    """Restrict the surface to the line parametrized by (s:t) |-> sA + tB:
    f, g are its int terms (e, c) and A, B int triples, ints over Q and
    residues mod p, restricted by `_expand_linear` on ints; each coefficient
    is then mapped into F once."""
    lins = list(zip(A, B))
    a, b = (BinForm.from_ints(F, n, _expand_linear(h, lins, n, 0)) for h, n in ((f, 2), (g, 4)))
    return QuarticModel(a=a, b=b)


def classify_model(M: QuarticModel) -> ModelClass:
    """Smooth / irreducible-singular / geometrically-reducible trichotomy."""
    q = M.q()
    if not M.field.is_zero(disc_binary_quartic(q)):
        return ModelClass.Smooth  # a square has discriminant 0
    return ModelClass.Reducible if is_square_binform(q) else ModelClass.IrreducibleSingular


# ---------------------------------------------------------------------------
# quartic -> Weierstrass


def _mat2_apply(m, s, t):
    return m[0][0] * s + m[0][1] * t, m[1][0] * s + m[1][1] * t


def _mat2_inv(F, m):
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    inv = F.one / det
    return [[m[1][1] * inv, -m[0][1] * inv], [-m[1][0] * inv, m[0][0] * inv]]


INF = None  # the Weierstrass point at infinity


@dataclass(frozen=True)
class WeierstrassData:
    """Birational model y^2 = x^3 + a2 x^2 + a4 x + a6 with chosen origin."""

    model: QuarticModel
    origin: CurvePoint
    case: str  # "zero" (origin over a root of q) or "gen"
    m: list  # 2x2 reparametrization, columns in the field
    a_t: BinForm  # transformed a
    qc: tuple  # q4, q3, q2, q1, q0 of the transformed quartic (in u = s/t)
    a2: object
    a4: object
    a6: object
    extra: dict = dc_field(default_factory=dict)

    @property
    def field(self):
        return self.model.field

    def cubic_rhs(self, x):
        return ((x + self.a2) * x + self.a4) * x + self.a6

    def is_singular_xy(self, pt) -> bool:
        if pt is INF:
            return False
        x, y = pt
        F = self.field
        if not F.is_zero(y):
            return False
        d = (3 * x + 2 * self.a2) * x + self.a4
        return F.is_zero(d)

    # -- forward / backward maps -------------------------------------------

    def forward(self, P: CurvePoint):
        F = self.field
        minv = self.extra["minv"]
        sp, tp = _mat2_apply(minv, P.s, P.t)
        q4, q3, q2, q1, q0 = self.qc
        if self.case == "zero":
            if F.is_zero(tp):
                inv = F.one / sp
                vinf = 2 * P.w * inv * inv + self.a_t.evaluate(F.one, F.zero)
                return (F.zero, q1 * vinf)
            inv = F.one / tp
            u = sp * inv
            if F.is_zero(u):
                return INF  # the origin is the unique point over u = 0
            v = 2 * P.w * inv * inv + self.a_t.evaluate(u, F.one)
            return (q1 / u, q1 * v / (u * u))
        A = self.extra["A"]
        cp = self.extra["cp"]
        r1, r2 = self.extra["r1"], self.extra["r2"]
        if F.is_zero(tp):
            inv = F.one / sp
            vinf = 2 * P.w * inv * inv + self.a_t.evaluate(F.one, F.zero)
            if vinf == A:
                return INF
            return (-4 * r2, 8 * A * r1 + 8 * cp * r2)
        inv = F.one / tp
        u = sp * inv
        v = 2 * P.w * inv * inv + self.a_t.evaluate(u, F.one)
        p = v + A * u * u - cp * u
        x = 8 * A * p
        z = -2 * (2 * A * p + r2) * u + (2 * cp * p - r1)
        return (x, 8 * A * z)

    def backward(self, pt) -> CurvePoint:
        F = self.field
        if pt is INF:
            return self.origin
        x, y = pt
        q4, q3, q2, q1, q0 = self.qc
        if self.case == "zero":
            if F.is_zero(x):
                vinf = y / q1
                w = (vinf - self.a_t.evaluate(F.one, F.zero)) / F.from_int(2)
                s, t = _mat2_apply(self.m, F.one, F.zero)
                return make_curve_point(F, s, t, w)
            u = q1 / x
            v = y * q1 / (x * x)
            w = (v - self.a_t.evaluate(u, F.one)) / F.from_int(2)
            s, t = _mat2_apply(self.m, u, F.one)
            return make_curve_point(F, s, t, w)
        A = self.extra["A"]
        cp = self.extra["cp"]
        r0, r1, r2 = self.extra["r0"], self.extra["r1"], self.extra["r2"]
        eight_a = F.from_int(8) * A
        p = x / eight_a
        z = y / eight_a
        alpha = -(2 * A * p + r2)
        beta = 2 * cp * p - r1
        if F.is_zero(alpha):
            gamma = p * p - r0
            if (F.is_zero(beta) and not F.is_zero(gamma)) or (not F.is_zero(beta) and z == -beta):
                # the only preimage is the second point over u = infinity
                w = (-A - self.a_t.evaluate(F.one, F.zero)) / F.from_int(2)
                s, t = _mat2_apply(self.m, F.one, F.zero)
                return make_curve_point(F, s, t, w)
            if F.is_zero(beta):
                raise SingularHit("degenerate fiber point in backward map")
            u = -gamma / beta
        else:
            u = (-beta + z) / (2 * alpha)
        v = p - A * u * u + cp * u
        w = (v - self.a_t.evaluate(u, F.one)) / F.from_int(2)
        s, t = _mat2_apply(self.m, u, F.one)
        return make_curve_point(F, s, t, w)


def to_weierstrass(M: QuarticModel, O: CurvePoint) -> WeierstrassData:
    """Birational map to a Weierstrass cubic sending the smooth point O to
    infinity.  Two classical cases: the origin lies over a root of
    q = a^2 + 4b (complete cube directly), or over a nonroot (subtract the
    square-root branch at infinity and eliminate the parameter)."""
    F = M.field
    if not M.contains(O):
        raise ValueError("origin not on the model")
    if not M.is_smooth_at(O):
        raise SingularHit("origin is the singular point of the fiber")
    v0 = 2 * O.w + M.a.evaluate(O.s, O.t)
    two = F.from_int(2)
    if F.is_zero(v0):
        # reparametrize so O sits at (s:t) = (0:1)
        if not F.is_zero(O.t):
            sigma = O.s / O.t
            m = [[F.one, sigma], [F.zero, F.one]]
        else:
            m = [[F.zero, F.one], [F.one, F.zero]]
        a_t = M.a.substitute(m)
        b_t = M.b.substitute(m)
        qf = a_t * a_t + b_t.scale(F.from_int(4))
        q4, q3, q2, q1, q0 = qf.c[0], qf.c[1], qf.c[2], qf.c[3], qf.c[4]
        if not F.is_zero(q0):
            raise AssertionError("q(0) must vanish at a ramified origin")
        if F.is_zero(q1):
            raise SingularHit("origin is the singular point of the fiber")
        a2 = q2
        a4 = q1 * q3
        a6 = q1 * q1 * q4
        minv = _mat2_inv(F, m)
        return WeierstrassData(
            model=M, origin=O, case="zero", m=m, a_t=a_t,
            qc=(q4, q3, q2, q1, q0), a2=a2, a4=a4, a6=a6,
            extra={"minv": minv},
        )
    # reparametrize so O sits at (s:t) = (1:0); then q4 = v0^2
    if not F.is_zero(O.t):
        sigma = O.s / O.t
        m = [[sigma, F.one], [F.one, F.zero]]
        scale = O.t
    else:
        m = [[F.one, F.zero], [F.zero, F.one]]
        scale = O.s
    # O's exact coordinates are m*(1,0) scaled by `scale`; v0 in the new
    # normalization (s', t') = (1, 0):
    A = v0 / (scale * scale)
    a_t = M.a.substitute(m)
    b_t = M.b.substitute(m)
    qf = a_t * a_t + b_t.scale(F.from_int(4))
    q4, q3, q2, q1, q0 = qf.c[0], qf.c[1], qf.c[2], qf.c[3], qf.c[4]
    if q4 != A * A:
        raise AssertionError("leading coefficient must equal v0^2")
    cp = -q3 / (two * A)
    r2 = q2 - cp * cp
    r1 = q1
    r0 = q0
    d2 = 4 * cp * cp + 4 * r2
    d1 = -4 * cp * r1 - 8 * A * r0
    d0 = r1 * r1 - 4 * r2 * r0
    a2 = d2
    a4 = 8 * A * d1
    a6 = F.from_int(64) * A * A * d0
    minv = _mat2_inv(F, m)
    return WeierstrassData(
        model=M, origin=O, case="gen", m=m, a_t=a_t,
        qc=(q4, q3, q2, q1, q0), a2=a2, a4=a4, a6=a6,
        extra={"minv": minv, "A": A, "cp": cp, "r0": r0, "r1": r1, "r2": r2},
    )


# ---------------------------------------------------------------------------
# chord-tangent arithmetic


def _check_usable(wd: WeierstrassData, pt):
    if wd.is_singular_xy(pt):
        raise SingularHit("chord-tangent arithmetic hit the singular point")


def _xy_neg(wd, pt):
    if pt is INF:
        return INF
    x, y = pt
    return (x, -y)


def _xy_add(wd: WeierstrassData, p1, p2):
    F = wd.field
    if p1 is INF:
        return p2
    if p2 is INF:
        return p1
    _check_usable(wd, p1)
    _check_usable(wd, p2)
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if y1 == -y2:
            return INF
        lam = ((3 * x1 + 2 * wd.a2) * x1 + wd.a4) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - wd.a2 - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return (x3, y3)


def _xy_mul(wd: WeierstrassData, n: int, pt):
    if n < 0:
        return _xy_mul(wd, -n, _xy_neg(wd, pt))
    acc = INF
    add = pt
    while n:
        if n & 1:
            acc = _xy_add(wd, acc, add)
        n >>= 1
        if n:
            add = _xy_add(wd, add, add)
    return acc


def lin_comb(M: QuarticModel, O: CurvePoint, terms) -> CurvePoint:
    """The unique smooth point R with (R) ~ sum n_i (P_i) + (1 - sum n_i)(O).

    Computed as the group sum of n_i * P_i on the Weierstrass model with
    origin O; the answer is independent of O whenever sum n_i = 1.
    """
    if classify_model(M) is ModelClass.Reducible:
        raise ReducibleModel("no group-law engine on a reducible fiber")
    wd = to_weierstrass(M, O)
    acc = INF
    for n, P in terms:
        img = wd.forward(M.point(P.s, P.t, P.w))
        _check_usable(wd, img)
        acc = _xy_add(wd, acc, _xy_mul(wd, n, img))
    _check_usable(wd, acc)
    return wd.backward(acc)


def neg_wrt(M: QuarticModel, O: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """The unique R with (R) ~ 2(O) - (Q)."""
    return lin_comb(M, O, [(-1, Q)])
