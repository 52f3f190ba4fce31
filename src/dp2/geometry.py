"""The paper's two procedures on X -- point propagation phi and the rational
curve C_P -- plus exact point classification (ramification, exceptional
curves, generalized Eckardt) and the U_phi / U_inv membership tests.

phi, C_P, the sections of |-2K_X| and the count of bitangents through a point
run on int terms with a modulus p (0 for Q), which the finite-field oracle
calls on residues; only origin "Q" runs its group law on a field adapter,
from the same int terms.  The count of all 28 bitangents eliminates in
Z[u, v], on lists in u of int lists in v.  The public API wraps them for Q.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, gcd

from .errors import (
    BadParameter,
    BitangentLine,
    EliminationDegenerate,
    NotVeryGeneral,
    ReducibleModel,
    SameImage,
    SingularHit,
)
from .exactalg import QQ, PrimeField, primitive_ints, square_conditions
from .exactalg.poly import (_bin_mul, _divmod_ints, _expand_linear, _gcd_ints, _nullspace, _prs, _radical,
                             _sum_of_products, _tern_mul, _trim, is_square_quartic)
from .surface import PointDP2, PointP2, SurfaceDP2, _int_value, kappa, on_ramification, on_surface

# fixed ordering of the |-2K_X| section basis: w, then the degree-2 monomials
SEC_MONOMIALS = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]


def _section_row(x, y, z, w) -> list:
    """The section basis (w, then SEC_MONOMIALS) at a point: a section's
    value there is the dot product of its vector with this row."""
    return [w, x * x, y * y, z * z, x * y, x * z, y * z]


def _section_value(vec, P4):
    """The section with int vector `vec` at the int point P4 (mod p: residues)."""
    return sum(a * b for a, b in zip(vec, _section_row(*P4)))


def _section_condition_rows(f, g, P4, order: int, p: int = 0):
    """Int rows of the linear system 'lambda*w + q2 vanishes to order
    >= `order` at P on X', in the basis of `_section_row`, for order 2 or 3
    and P off the ramification divisor (else `NotVeryGeneral`); f, g are
    the surface's int terms (e, c), and they and P4 are ints over Q for
    p = 0 and residues mod p otherwise.

    With e1, e2 = `_pencil_basis` of P, the section is restricted to the
    lines P + t D, D in (e1, e2, e1 + e2)[:order]: f and g by
    `_expand_linear`, w by the branch w0 + w1 t + w2 t^2 of
    w^2 + f w = g through P, solved term by term.  With u = 2 w0 + f(P),
    w1 = W1 / u and w2 = W2 / u^3 for W1 = g1 - f1 w0 and
    W2 = u^2 (g2 - f2 w0) - u f1 W1 - W1^2.  The rows are the section's t^0
    coefficient, once, then its t^k coefficients, 0 < k < order, on each
    line, times u^(2k - 1) so that no division is left: 3 rows at order 2,
    7 at order 3.  This is sound because kappa is etale at P, so the branch
    of X through P maps isomorphically onto each line near kappa(P); the
    degree-k part (k < 3) of a section's jet at P is a binary form of
    degree k, zero once it vanishes on k + 1 pairwise independent
    directions; and e1, e2, e1 + e2 are pairwise independent modulo P in
    every characteristic."""
    *P3, w0 = P4
    unit = w0 + w0 + _int_value(f, *P3)
    if (unit % p if p else unit) == 0:
        raise NotVeryGeneral("point lies on the ramification divisor")
    e1, e2 = _pencil_basis(P3)
    rows = [_section_row(*P3, w0)]
    for D in (e1, e2, tuple(a + b for a, b in zip(e1, e2)))[:order]:
        lins = list(zip(P3, D))
        _, f1, f2 = _expand_linear(f, lins, 2, 0)
        _, g1, g2, _, _ = _expand_linear(g, lins, 4, 0)
        W1 = g1 - f1 * w0
        # the monomials' coefficients of t, q(P + D) - q(P) - q(D), and of t^2, q(D)
        qD = _section_row(*D, 0)
        qPD = _section_row(*(a + b for a, b in zip(P3, D)), 0)
        rows.append([W1] + [unit * (c - a - b) for c, a, b in zip(qPD[1:], rows[0][1:], qD[1:])])
        if order == 3:
            W2 = unit * unit * (g2 - f2 * w0) - unit * f1 * W1 - W1 * W1
            rows.append([W2] + [unit**3 * v for v in qD[1:]])
    return rows


# ---------------------------------------------------------------------------
# sections of |-2K_X|


def _osculating_core(f, g, P4, p: int = 0):
    """Generator of the sections vanishing to order >= 3 at P, for f, g and
    P4 as in `_section_condition_rows`: a `primitive_ints` vector over Q,
    residues mod p."""
    ker = _nullspace(_section_condition_rows(f, g, P4, 3, p), p)
    if len(ker) != 1:
        raise NotVeryGeneral(f"osculation system has solution dimension {len(ker)}")
    vec = ker[0]
    if vec[0] == 0:
        raise NotVeryGeneral("osculating section degenerates (lambda = 0)")
    return vec


def _u0_core(f, g, B, P4, p: int = 0):
    """The osculating vector of `_osculating_core` at P when P lies in U_0,
    else None; f, g and B are the int terms of the surface and its branch
    quartic, and they and P4 are ints over Q, residues mod p > 0.  P lies
    in U_0 when it is off the ramification divisor 2w + f = 0 and on none
    of the 56 exceptional curves, i.e. no bitangent of B passes through
    kappa(P).

    Off the ramification divisor the osculating system cannot degenerate
    (char F != 2).  There kappa is etale at P, so a conic q2 pulled back
    to X vanishes at P to its order at kappa(P), at most 2 unless q2 = 0.
    A nonzero section of order >= 3 at P therefore has lambda != 0, and
    the kernel has dimension exactly 1: two independent solutions would
    combine to one with lambda = 0.  The kernel is never zero: the 7 rows
    are combinations of the 6 coefficients of the section's 2-jet at P."""
    *P3, w = P4
    ram = w + w + _int_value(f, *P3)
    if (ram % p if p else ram) == 0:
        return None
    if _count_bitangents_core(B, P3, p):
        return None
    return _osculating_core(f, g, P4, p)


def osculating_section(S: SurfaceDP2, P: PointDP2) -> tuple[int, ...]:
    """The unique (up to scalar) section of |-2K_X| vanishing to order >= 3
    at a very general P, whose zero locus on X is the rational curve C_P:
    its `primitive_ints` vector in the basis of `_section_row`, lambda > 0."""
    return _osculating_core(S.f_ints, S.g_ints, P.coords())


# ---------------------------------------------------------------------------
# phi


def _residual_point(f, g, A, B, wP, X, bitangent: str, p: int = 0):
    """The point R of the fibre w^2 + a w = b over the line (s:t) -> sA + tB
    with (R) ~ 2(iota(P)) - (X), P = (A, wP) at (1:0) and X = (s, t, w) either
    Q = (0 : 1 : w_Q) or P = (1 : 0 : w_P), as an unnormalized int 4-tuple:
    phi(P, Q) is R for X = Q, and C_P is swept by R for X = P on the lines
    through kappa(P).  f, g are the surface's int terms (e, c); they, A, B,
    wP and X are ints over Q for p = 0 and residues mod p otherwise.

    The group law with origin iota(P) raises, in this order, ValueError for
    iota(P), then X, off the fibre; `BitangentLine(bitangent)` for a square
    q = a^2 + 4b; `SingularHit` for a singular iota(P), then X.  At
    (1 : 0 : w), w^2 + a_0 w = b_0 gives q_0 = v^2 with v = 2w + a_0, and the
    point is singular where v and q_1 vanish; at (0 : 1 : w) likewise with
    a_2, b_4, q_3.  Past these R has a closed form.  D_inf ~ (P) + (iota P)
    ~ (X) + (iota X) is the fibre class.  With d = 2 w_P + a_0 = 0,
    P = iota(P) is a ramification point, so 2 (iota P) - X ~ D_inf - X ~
    iota(X).  Otherwise the branch through P is unramified.  For a binary
    quadratic c, w - c(s, t) is a section of 2 D_inf whose zeros lie over
    the roots of e = c^2 + a c - b = (c - w)(c - w'), w' = -a - w the other
    branch, each with the root's multiplicity: where the branches differ,
    c - w' is a unit at a zero of c - w; where they meet, iota swaps the two
    factors.  The branch through P has slope w_1 = (b_1 - a_1 w_P) / d at P
    and next coefficient w_2 = (b_2 - a_2 w_P - a_1 w_1 - w_1^2) / d.
    - X = Q: c = w_P s^2 + w_1 s t + w_Q t^2 meets P twice and Q, so
      e = s t^2 (e_2 s + e_3 t), R = (e_3 : -e_2), and
      2P + Q + R ~ 2 D_inf gives R ~ 2 iota(P) - Q.
    - X = P: c = w_P s^2 + w_1 s t + w_2 t^2 meets P three times, so
      e = t^3 (e_3 s + e_4 t), R = (e_4 : -e_3), and 3P + R ~ 2 D_inf.
    e_0 and (for X = Q) e_4 vanish as P and Q lie on the fibre, e_1 and e_2
    by the choice of w_1, w_2.  The linear factor left is nonzero: e = 0
    would make q = (2c + a)^2 a square.  The formula also holds on an
    irreducible singular fibre: R is never its singular point, where q has
    a double root and the branches meet, since c = w there would make that
    a double root of e = (c + a/2)^2 - q/4.  That point lies over neither
    (1:0), where q = d^2 != 0, nor X's parameter, X being smooth; so e would
    have five roots counted with multiplicity, which forces e = 0.
    To avoid division c is taken times m (m = d for X = Q, m = d^3 for
    X = P), e times m^2, and R is returned as (m s, m t, m^2 w)."""
    zero = (lambda v: v % p == 0) if p else (lambda v: v == 0)
    lins = list(zip(A, B))
    a, b = _expand_linear(f, lins, 2, 0), _expand_linear(g, lins, 4, 0)
    a, b = ([v % p for v in h] if p else h for h in (a, b))
    q = [u + 4 * v for u, v in zip(_bin_mul(0, a, a), b)]
    singular = []
    for pt in ((1, 0, -a[0] - wP), X):
        _, t, w = pt
        i = 0 if zero(t) else 2
        if not zero(w * w + a[i] * w - b[i + i]):
            coords = (f"{v % p} (mod {p})" for v in pt) if p else pt
            raise ValueError("({}:{}:{}) not on the quartic model".format(*coords))
        singular.append(zero(w + w + a[i]) and zero(q[i + 1]))
    if is_square_quartic(q, zero):
        raise BitangentLine(bitangent)
    if singular[0]:
        raise SingularHit("origin is the singular point of the fiber")
    if singular[1]:
        raise SingularHit("chord-tangent arithmetic hit the singular point")
    s, t, w = X
    d = wP + wP + a[0]
    if zero(d):
        w = -(a[0] * s * s + a[1] * s * t + a[2] * t * t) - w
    else:
        dw1 = b[1] - a[1] * wP  # d w_1
        if zero(t):  # X = P
            dd, m = d * d, d * d * d
            c = [m * wP, dd * dw1, dd * (b[2] - a[2] * wP) - d * a[1] * dw1 - dw1 * dw1]
            i, j = 4, 3
        else:  # X = Q
            m = d
            c = [d * wP, dw1, d * w]
            i, j = 3, 2
        e, mm = _bin_mul(0, [u + m * v for u, v in zip(c, a)], c), m * m
        rs, rt = e[i] - mm * b[i], mm * b[j] - e[j]
        s, t, w = m * rs, m * rt, m * (c[0] * rs * rs + c[1] * rs * rt + c[2] * rt * rt)
    return tuple(s * A[k] + t * B[k] for k in range(3)) + (w,)


def _residual_core(f, g, A, B, wP, X, bitangent: str, p: int = 0):
    """`_residual_point` on the same inputs by the group law of `genus1`,
    imported only here, in Q or F_p with origin iota(X): the same R (the
    class has degree 1) and errors, but for a singular hit's message."""
    from .genus1 import lin_comb, pullback_generic

    F = PrimeField(p) if p else QQ
    model = pullback_generic(F, f, g, A, B)
    s, t, w = map(F.from_int, X)
    iota_P, Xc = model.point(F.one, F.zero, -model.a.c[0] - wP), model.point(s, t, w)
    iota_X = model.point(s, t, -model.a.evaluate(s, t) - w)
    try:
        Rc = lin_comb(model, iota_X, [(2, iota_P), (-1, Xc)])
    except ReducibleModel as exc:
        raise BitangentLine(bitangent) from exc
    return tuple(Rc.s * A[i] + Rc.t * B[i] for i in range(3)) + (Rc.w,)


def _phi_core(f, g, P4, Q4, p: int = 0, origin: str = "P"):
    """phi on int 4-tuples by `_residual_point` (origin "P") or `_residual_core`."""
    (*A, wP), (*B, wQ) = P4, Q4
    cross = (A[1] * B[2] - A[2] * B[1], A[2] * B[0] - A[0] * B[2], A[0] * B[1] - A[1] * B[0])
    if not any(v % p if p else v for v in cross):
        raise SameImage("kappa(P) = kappa(Q)")
    core = _residual_point if origin == "P" else _residual_core
    return core(f, g, A, B, wP, (0, 1, wQ), "the line through kappa(P), kappa(Q) is a bitangent", p)


def phi(S: SurfaceDP2, P: PointDP2, Q: PointDP2, origin: str = "P") -> PointDP2:
    """The unique point R of E_{P,Q} with (R) ~ 2(iota(P)) - (Q)."""
    if origin not in ("P", "Q"):
        raise ValueError(f"origin must be 'P' or 'Q', got {origin!r}")
    return on_surface(S, *_phi_core(S.f_ints, S.g_ints, P.coords(), Q.coords(), origin=origin))


# ---------------------------------------------------------------------------
# C_P via the pencil


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _det3(m) -> int:
    """Determinant of a 3x3 matrix given as a list of rows."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def complete_unimodular(v: tuple[int, int, int]) -> tuple[tuple, tuple]:
    """Two integer vectors e1, e2 with det[v, e1, e2] = 1 (v primitive)."""
    x, y, z = v
    if gcd(x, y, z) != 1:
        raise ValueError("vector must be primitive")
    g1, a, b = _ext_gcd(x, y)
    if g1 == 0:
        # x = y = 0, z = +-1
        return (1, 0, 0), (0, 1, 0)
    _, c, d = _ext_gcd(g1, z)
    e1 = (-b, a, 0)
    e2 = (-d * x // g1, -d * y // g1, c)
    det = _det3([[x, e1[0], e2[0]], [y, e1[1], e2[1]], [z, e1[2], e2[2]]])
    if det not in (1, -1):
        raise AssertionError(f"completion not unimodular: det = {det}")
    return e1, e2


def _pencil_param(pair) -> tuple[int, int]:
    """The `primitive_ints` representative (u, v) of a point of P^1."""
    uv, g = primitive_ints((int(pair[0]), int(pair[1])))
    if not g:
        raise BadParameter("parameter (0:0) is not a point of P^1")
    return uv


def _pencil_line(base: tuple[int, int, int], param) -> tuple[tuple, tuple]:
    """The member of the pencil of lines through `base` selected by `param`,
    parametrized as (s:t) |-> s*A + t*B with A = base and B = u*e1 + v*e2,
    where e1, e2 complete `base` to a unimodular basis of Z^3 and (u:v) is
    `param` normalized."""
    e1, e2 = complete_unimodular(base)
    u, v = _pencil_param(param)
    return base, tuple(u * c1 + v * c2 for c1, c2 in zip(e1, e2))


def c_p_point(S: SurfaceDP2, P: PointDP2, param: tuple[int, int]) -> PointDP2:
    """The residual point R ~ 2(iota(P)) - (P) on the pencil member: the
    line L through kappa(P) selected by `param`.  For very general P these
    points sweep out C_P."""
    A, B = _pencil_line(P.xyz(), param)
    R = _residual_point(S.f_ints, S.g_ints, A, B, P.w, (1, 0, P.w), "pencil member is a bitangent line")
    return on_surface(S, *R)


# ---------------------------------------------------------------------------
# bitangent counting through a point


def _pullback(terms, m, p: int = 0) -> list:
    """The int terms (e, c) of the form with int terms `terms` pulled back
    along (x, y, z) -> M (x, y, z), M a 3x3 int matrix: x_i becomes the
    linear form with row i of M, and each monomial the product of their
    powers; residues mod p > 0, zero terms dropped."""
    pows = []
    for i, row in enumerate(m):
        lin = {e: v for e, v in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), row) if v}
        pw = [{(0, 0, 0): 1}]
        for _ in range(max((e[i] for e, _ in terms), default=0)):
            pw.append(_tern_mul(pw[-1], lin))
        pows.append(pw)
    out = {}
    for (i, j, k), c in terms:
        for e, v in _tern_mul(_tern_mul(pows[0][i], pows[1][j]), pows[2][k]).items():
            out[e] = out.get(e, 0) + c * v
    return [(e, v % p if p else v) for e, v in out.items() if (v % p if p else v)]


def _pencil_basis(p3):
    """The two unit vectors off the first nonzero coordinate of p3, a
    triple of ints (residues over F_p); with p3 they span the whole space."""
    idx = next(i for i, v in enumerate(p3) if v != 0)
    return [tuple(int(i == j) for j in range(3)) for i in range(3) if i != idx]


def _count_bitangents_core(B, p3, p: int = 0) -> int:
    """Number of distinct lines through p3 (over the algebraic closure) whose
    restriction of B is a square up to scalar; B is a quartic's int terms
    and p3 a triple of ints over Q (p = 0), residues mod p otherwise.

    The members are the line through p3 and e1 + t*e2, plus the one through
    p3 and e2 (t = infinity), tested on its own.  With C(s, r, u) the
    pullback of B along (s, r, u) -> s p3 + r e1 + u e2, B on the first is
    C(s, r, t r) = sum a_i(t) s^(4-i) r^i, a_i collecting the coefficients
    of s^(4-i) r^(i-k) u^k at t^k, and B on the second is C(s, 0, u), whose
    coefficient of s^(4-i) u^i is that of t^i in a_i.  Let c1, c2 be the
    `square_conditions` of the a_i, and G = gcd(c1, c2).

    1. Every square member is a root of G: with a4(t) != 0, c1 = c2 = 0 is
       the square test itself; with a4(t) = 0, c1 = a3^3 and c2 = -a3^4,
       and a square member has a3(t) = 0.
    2. At a root t of G with a4(t) = 0, a3(t) = 0 follows from c1 = 0, so
       the member is a square exactly when a1^2 - 4 a0 a2 vanishes at t.
       So the square members are the roots of G, less those of a4 where
       a1^2 - 4 a0 a2 does not vanish.
    3. Distinct roots t give distinct lines.  H = rad G has each root of G
       once, A = gcd(H, a4) the roots of G on a4, C = gcd(A, a1^2 - 4 a0 a2)
       those of A where the member is a square; all three are squarefree,
       so the count is deg H - deg A + deg C.  `_radical` is exact mod p
       too, roots of multiplicity divisible by p included."""
    e1, e2 = _pencil_basis(p3)
    a = [[0] * (i + 1) for i in range(5)]
    for (_i, j, k), v in _pullback(B, [(p3[i], e1[i], e2[i]) for i in range(3)], p):
        a[j + k][k] = v
    a0, a1, a2, a3, a4 = a
    G = _gcd_ints(*square_conditions(*a), p)
    if not G:
        raise EliminationDegenerate("square conditions vanish along the pencil")
    H = _radical(G, p)
    A = _gcd_ints(H, a4, p)
    C = _gcd_ints(A, _sum_of_products((1, a1, a1), (-4, a0, a2)), p)
    q_inf = [a[i][i] for i in range(5)]  # B on the member t = infinity
    return len(H) - len(A) + len(C) - 1 + is_square_quartic(q_inf, lambda v: not (v % p if p else v))


def count_bitangents_through(S: SurfaceDP2, p: PointP2) -> int:
    """Number of bitangents of B through p."""
    return _count_bitangents_core(S.B_ints, p.coords())


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class PointClassification:
    on_ramification: bool
    n_exceptional: int
    is_general: bool
    is_very_general: bool
    is_generalized_eckardt: bool


def classify_point(S: SurfaceDP2, P: PointDP2) -> PointClassification:
    on_ram = on_ramification(S, P)
    n_exc = count_bitangents_through(S, kappa(P))
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


def _u_phi_failure(S: SurfaceDP2, P: PointDP2, Q: PointDP2) -> str | None:
    """Why (P, Q) lies outside U_phi -- "SameImage", "BitangentLine" or
    "NonSmoothEndpoint", from the error phi raises -- or None when it lies
    in U_phi.  U_inv is the part of U_phi with P in U_0 and Q off C_P."""
    try:
        _phi_core(S.f_ints, S.g_ints, P.coords(), Q.coords())
    except (SameImage, BitangentLine) as exc:
        return type(exc).__name__
    except SingularHit:
        return "NonSmoothEndpoint"
    return None


def phi_domain(S: SurfaceDP2, P: PointDP2, Q: PointDP2) -> PhiDomainVerdict:
    reason = _u_phi_failure(S, P, Q)
    if reason is not None:
        return PhiDomainVerdict(False, False, reason)
    vec = _u0_core(S.f_ints, S.g_ints, S.B_ints, P.coords())
    if vec is None:
        return PhiDomainVerdict(True, False, "FirstNotInU0")
    if _section_value(vec, Q.coords()) == 0:
        return PhiDomainVerdict(True, False, "SecondOnCP")
    return PhiDomainVerdict(True, True, None)


# ---------------------------------------------------------------------------
# all 28 bitangents

_BITANGENT_FRAMES = 6  # coordinate frames tried before giving up
_V_SPAN = 17  # `_packed` puts u = t^17, v = t


def count_all_bitangents(S: SurfaceDP2) -> int:
    """Total number of bitangent lines of B over the algebraic closure,
    computed by elimination in the chart of lines z = u x + v y plus the
    pencil through (0:0:1); must equal 28 for smooth B."""
    last_exc = None
    for Bf in _bitangent_frames(S.B_ints):
        try:
            return _count_all_bitangents_frame(Bf)
        except EliminationDegenerate as exc:
            last_exc = exc
    raise EliminationDegenerate(f"all frames degenerate: {last_exc}")


def _bitangent_frames(B):
    """The int terms B, then B in _BITANGENT_FRAMES - 1 seeded random
    unimodular frames."""
    yield B
    rng = random.Random(1729)
    for _ in range(_BITANGENT_FRAMES - 1):
        yield _pullback(B, _random_unimodular(rng))


def _random_unimodular(rng) -> list[list[int]]:
    while True:
        m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if _det3(m) in (1, -1):
            return m


def _count_all_bitangents_frame(Bf) -> int:
    """Bitangents of B, with int terms Bf in one frame: the lines z = u x + v y, plus those
    through (0:0:1).  With B(x, y, u x + v y) = sum a_i x^(4-i) y^i, a line
    with a4 = B(0, 1, v) != 0 is a bitangent exactly when c1 = c2 = 0
    (`square_conditions`, on the a_i packed by `_packed`); `_count_chart_zeros`
    counts those lines, and `_chart_lines_over_a4` the bitangents over the
    roots of a4."""
    a = _chart_coefficients(Bf)
    c1, c2 = (_unpacked(c) for c in square_conditions(*map(_packed, a)))
    if not c1 or not c2:
        raise EliminationDegenerate("chart conditions vanish identically")
    chart = _count_chart_zeros(c1, c2, a[4][0] if a[4] else []) + _chart_lines_over_a4(a)
    return chart + _count_bitangents_core(Bf, (0, 0, 1))


def _count_chart_zeros(P, Q, a4) -> int:
    """Common zeros (u, v) of P, Q in Z[u, v], lists in u of int lists in v,
    with a4(v) != 0, a4 an int list, or `EliminationDegenerate` where the
    certificate below does not apply.

    Order P, Q so that deg_u P >= deg_u Q; let R = Res_u(P, Q), S_j the
    j-th subresultant in u, psc_j its coefficient of u^j, and r0 the
    squarefree part of R with the roots of a4 divided out.  If the PRS ends
    in degrees 2, 1, 0 and r0 is coprime to lc_u(P) lc_u(Q) psc_1, the
    count is deg r0:

    1. R(v) = 0 under every common zero (u, v), also where a leading
       coefficient vanishes at v.
    2. At a root v of r0 both leading coefficients are nonzero, so S_j(u, v)
       is the j-th subresultant of P(u, v), Q(u, v), whose gcd has degree
       the least j with psc_j(v) != 0.  R(v) = 0 and psc_1(v) != 0 make the
       gcd linear: exactly one common zero over v.
    3. In the subresultant PRS P, Q, F_3, ... of `_prs` each F_i is +-S_j,
       j one less than the degree of the element before it (the tests check
       this against Sylvester determinants).  So the element of degree 1
       after one of degree 2 is +-S_1, and psc_1 is its leading coefficient
       in u, and the last element, of degree 0 after it, is +-R.

    For P, Q = c1, c2, c1 = a3^3 and c2 = -a3^4 over a root of a4, so psc_1
    vanishes there: that is why those roots are divided out."""
    P, Q = sorted((P, Q), key=len, reverse=True)
    prs = _prs(P, Q)
    if len(prs[-1]) > 1:
        raise EliminationDegenerate("resultant in the dual chart vanishes")
    if [len(F) - 1 for F in prs[-3:]] != [2, 1, 0]:
        raise EliminationDegenerate("subresultant PRS does not end in degrees 2, 1, 0")
    r = _radical(prs[-1][0])
    r0 = _divmod_ints(r, _gcd_ints(r, a4))[0]
    if len(_gcd_ints(r0, _sum_of_products((1, P[-1], Q[-1], prs[-2][1])))) > 1:
        raise EliminationDegenerate("a root of the resultant is a root of a leading coefficient")
    return len(r0) - 1


def _chart_lines_over_a4(a) -> int:
    """The bitangents z = u x + v y with a4(v) = 0, for the a_i of
    `_chart_coefficients`: a3 = 0 there, and a1^2 - 4 a0 a2 vanishes (the
    residual quadratic is a square).  a3 = alpha(v) u + beta(v).  At a root
    v of r = rad a4, a3 has the one root u = -beta/alpha if alpha(v) != 0,
    none if only alpha(v) = 0, and vanishes if beta(v) = 0 too (raised).  So
    the candidates lie over the roots of r1 = r / gcd(r, alpha), one each.
    With a1^2 - 4 a0 a2 = sum d_k u^k of degree m in u, N = sum d_k
    (-beta)^k alpha^(m-k) is alpha^m times its value there, so
    deg gcd(r1, N) of them are bitangents."""
    if not a[4]:
        raise EliminationDegenerate("a4 vanishes identically")
    r = _radical(a[4][0])
    beta, alpha = (a[3] + [[], []])[:2]
    if len(_gcd_ints(_gcd_ints(r, alpha), beta)) > 1:
        raise EliminationDegenerate("a3 vanishes along a root of a4")
    r1 = _divmod_ints(r, _gcd_ints(r, alpha))[0]
    a0, a1, a2 = map(_packed, a[:3])
    N, alpha_pow = [], [1]
    for d in reversed(_unpacked(_sum_of_products((1, a1, a1), (-4, a0, a2)))):
        N = _sum_of_products((-1, N, beta), (1, d, alpha_pow))
        alpha_pow = _bin_mul(0, alpha_pow, alpha)
    return len(_gcd_ints(r1, N)) - 1


def _chart_coefficients(Bf) -> list:
    """The coefficients a0..a4 of B(x, y, u x + v y) = sum a_i x^(4-i) y^i
    for B's int terms Bf, as polynomials in (u, v) over Z: lists in u of
    int lists in v, trimmed."""
    a = [[[0] * 5 for _ in range(5)] for _ in range(5)]
    for (i, j, k), val in Bf:
        # x^i y^j (u x + v y)^k contributes C(k, l) u^(k-l) v^l to a_(j+l)
        for l in range(k + 1):
            a[j + l][k - l][l] += val * comb(k, l)
    return [_trim([_trim(c) for c in ai]) for ai in a]


def _packed(P) -> list[int]:
    """P(t^17, t) as an int list: products pack while of degree <= 16 in v,
    as c1, c2 and a1^2 - 4 a0 a2 are (the a_i have degree <= 4 in v)."""
    return [v for c in P for v in c + [0] * (_V_SPAN - len(c))]


def _unpacked(c) -> list:
    """The polynomial in (u, v) that `_packed` maps to c."""
    return _trim([_trim(c[i:i + _V_SPAN]) for i in range(0, len(c), _V_SPAN)])
