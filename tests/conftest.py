"""Shared fixtures: the reference surfaces and seeded random surfaces."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from dp2.exactalg import QQ, Poly, TernForm, squarefree_factor
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


def square_by_yun(q) -> bool:
    """Reference square test for a binary form q: split off the root at
    infinity (t^k, from the leading zero coefficients), then require every
    multiplicity of Yun's squarefree decomposition to be even.  Valid when
    every multiplicity is below the characteristic."""
    F = q.field
    if q.is_zero():
        return True
    k = next(i for i, a in enumerate(q.c) if not F.is_zero(a))
    finite = Poly(F, list(reversed(q.c[k:])))
    return k % 2 == 0 and all(mult % 2 == 0 for _, mult in squarefree_factor(finite))


@pytest.fixture(scope="session")
def s0() -> SurfaceDP2:
    return fermat_surface()


@pytest.fixture(scope="session")
def sk() -> SurfaceDP2:
    return klein_surface()


@pytest.fixture(scope="session")
def random_surfaces() -> list[SurfaceDP2]:
    return [seeded_random_surface(seed) for seed in RANDOM_SEEDS]
