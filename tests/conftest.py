"""Shared fixtures: the reference surfaces and seeded random surfaces."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from dp2.exactalg import QQ, BinForm, Poly, TernForm, squarefree_factor
from dp2.surface import SurfaceDP2, validate_surface

SURFACE_DIR = Path(__file__).resolve().parent.parent / "surfaces"

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


@pytest.fixture(scope="session")
def s0() -> SurfaceDP2:
    return fermat_surface()


@pytest.fixture(scope="session")
def sk() -> SurfaceDP2:
    return klein_surface()


@pytest.fixture(scope="session")
def random_surfaces() -> list[SurfaceDP2]:
    return [seeded_random_surface(seed) for seed in RANDOM_SEEDS]
