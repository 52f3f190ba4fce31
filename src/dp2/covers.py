"""Unirationality covers f1, f2, f3, f6 and a seeded point-generation engine.

f1 parametrizes the rational curve C_{P0} through a very general base point
P0; f2, f3, f6 compose f1 with the point procedure phi.  generate_points
samples parameter tuples with a named PRNG (random.Random, Mersenne Twister),
evaluates a cover, and returns deduplicated points sorted by height.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import BadParameter, BitangentLine, DP2Error, NotVeryGeneral, SingularHit
from .exactalg.poly import _row_echelon
from .geometry import (
    _osculating_core,
    _pencil_param,
    _section_row,
    _section_value,
    _u0_core,
    _u_phi_failure,
    c_p_point,
    classify_point,
    phi,
)
from .surface import PointDP2, PointP2, SurfaceDP2, lift

_RNG_NAME = "python-random-mt19937"
_SEARCH_HEIGHT = 24  # height bound of the search for a very general base point


@dataclass(frozen=True)
class ParamTuple:
    """A point of Z_n = (P^1)^n with coprime sign-normalized coordinates."""

    components: tuple[tuple[int, int], ...]

    @classmethod
    def make(cls, pairs) -> "ParamTuple":
        return cls(tuple(_pencil_param(p) for p in pairs))

    @property
    def n(self) -> int:
        return len(self.components)

    def __str__(self):
        return ";".join(f"{u}:{v}" for u, v in self.components)


@dataclass(frozen=True)
class GeneratedPoint:
    point: PointDP2
    height: int
    cover: str
    params: ParamTuple


@dataclass(frozen=True)
class CoverContext:
    """A surface with a very general base point and its cached C_{P0} data."""

    surface: SurfaceDP2
    P0: PointDP2
    section: tuple[int, ...]  # `osculating_section` at P0, cutting out C_{P0}
    # f1's outcome per normalised pencil parameter: the point, or the
    # BadParameter message of a bitangent or singular member
    members: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def find_very_general_point(S: SurfaceDP2, height_bound: int = _SEARCH_HEIGHT) -> PointDP2:
    """Bounded search for a very general rational point via small-height
    lifts; the very-general hypothesis is an input requirement, so failure
    is a hard error.  Each point of P^2 is tried once, and only its first
    lift is classified: `classify_point` reads kappa(P) and whether 2w + f
    vanishes, and iota preserves both."""
    seen = set()
    for h in range(1, height_bound + 1):
        for x in range(-h, h + 1):
            for y in range(-h, h + 1):
                for z in range(0, h + 1):
                    if max(abs(x), abs(y), z) != h:
                        continue
                    p2 = PointP2.make(x, y, z)
                    if p2 in seen:
                        continue
                    seen.add(p2)
                    lifts = lift(S, p2)
                    if lifts and classify_point(S, lifts[0]).is_very_general:
                        return lifts[0]
    raise NotVeryGeneral(f"no very general point of height <= {height_bound} found")


def context_for(S: SurfaceDP2, P0: PointDP2 | None = None) -> CoverContext:
    """Context at P0 if very general (one `_u0_core` call decides it and
    gives the section), else at the first very general point found by
    bounded search, which classifies each candidate once."""
    vec = None if P0 is None else _u0_core(S.f_ints, S.g_ints, S.B_ints, P0.coords())
    if vec is None:
        P0 = find_very_general_point(S)
        vec = _osculating_core(S.f_ints, S.g_ints, P0.coords())
    return CoverContext(surface=S, P0=P0, section=vec)


# ---------------------------------------------------------------------------
# the covers


def f1(ctx: CoverContext, pair: tuple[int, int]) -> PointDP2:
    """P^1 -> C_{P0}: the residual negation point on the selected pencil
    member (pointwise model of the desingularization).  Computed once per
    member and context; a bad member raises the same BadParameter again."""
    pair = _pencil_param(pair)
    hit = ctx.members.get(pair)
    if hit is None:
        try:
            hit = ctx.members[pair] = c_p_point(ctx.surface, ctx.P0, pair)
        except (BitangentLine, SingularHit) as exc:
            hit = ctx.members[pair] = f"bad pencil member {pair[0]}:{pair[1]}: {exc}"
            raise BadParameter(hit) from exc
    if isinstance(hit, str):
        raise BadParameter(hit)
    return hit


def f2(ctx: CoverContext, pairs) -> PointDP2:
    a, b = pairs
    return phi(ctx.surface, f1(ctx, a), f1(ctx, b))


def f3(ctx: CoverContext, triple) -> PointDP2:
    a, rest = triple[0], triple[1:]
    return phi(ctx.surface, f1(ctx, a), f2(ctx, rest))


def f6(ctx: CoverContext, sextuple) -> PointDP2:
    return phi(ctx.surface, f3(ctx, sextuple[:3]), f3(ctx, sextuple[3:]))


_COVERS = {"f1": (f1, 1), "f2": (f2, 2), "f3": (f3, 3), "f6": (f6, 6)}


def cover_arity(cover: str) -> int:
    if cover not in _COVERS:
        raise BadParameter(f"unknown cover {cover!r}; expected one of {sorted(_COVERS)}")
    return _COVERS[cover][1]


def evaluate_cover(ctx: CoverContext, cover: str, params: ParamTuple) -> PointDP2:
    fn, arity = _COVERS[cover]
    if params.n != arity:
        raise BadParameter(f"{cover} needs {arity} parameters, got {params.n}")
    if arity == 1:
        return fn(ctx, params.components[0])
    return fn(ctx, params.components)


def point_height(P: PointDP2) -> int:
    """Height of the kappa-image of the canonical representative."""
    return max(abs(P.x), abs(P.y), abs(P.z))


def in_u_inv(ctx: CoverContext, Q: PointDP2) -> bool:
    """Whether (P0, Q) lies in U_inv: phi_domain's verdict, with P0 known to
    be very general and its cached osculating section."""
    if _u_phi_failure(ctx.surface, ctx.P0, Q) is not None:
        return False
    return _section_value(ctx.section, Q.coords()) != 0


# ---------------------------------------------------------------------------
# seeded generation


@dataclass(frozen=True)
class GenerationStats:
    attempted: int
    succeeded: int
    failed: int
    distinct: int
    filtered: int
    rng: str = _RNG_NAME


def _sample_params(rng: random.Random, budget: int, arity: int) -> list[ParamTuple]:
    """Deterministic parameter stream; the coordinate box [-H, H] grows as the
    budget is consumed."""
    out = []
    for i in range(budget):
        H = 2 + i // 64
        pairs = []
        for _ in range(arity):
            u, v = 0, 0
            while u == 0 and v == 0:
                u = rng.randint(-H, H)
                v = rng.randint(-H, H)
            pairs.append((u, v))
        out.append(ParamTuple.make(pairs))
    return out


def generate_points_with_stats(
    ctx: CoverContext,
    cover: str,
    budget: int,
    height_bound: int,
    seed: int,
) -> tuple[list[GeneratedPoint], GenerationStats]:
    if budget <= 0 or height_bound <= 0 or seed <= 0:
        raise BadParameter("budget, height_bound and seed must be positive")
    arity = cover_arity(cover)
    params = _sample_params(random.Random(seed), budget, arity)

    # each distinct tuple is evaluated once (None for a DP2Error); a repeat
    # still counts in succeeded, failed and filtered
    values: dict[ParamTuple, PointDP2 | None] = {}
    seen: dict[PointDP2, GeneratedPoint] = {}
    succeeded = filtered = 0
    for pt in params:
        if pt not in values:
            try:
                values[pt] = evaluate_cover(ctx, cover, pt)
            except DP2Error:
                values[pt] = None
        P = values[pt]
        if P is None:
            continue
        succeeded += 1
        if P in seen:
            continue
        h = point_height(P)
        if h > height_bound:
            filtered += 1
            continue
        seen[P] = GeneratedPoint(point=P, height=h, cover=cover, params=pt)
    out = sorted(seen.values(), key=lambda gp: (gp.height, gp.point.coords()))
    stats = GenerationStats(
        attempted=budget,
        succeeded=succeeded,
        failed=budget - succeeded,
        distinct=len(out),
        filtered=filtered,
    )
    return out, stats


def generate_points(
    ctx: CoverContext,
    cover: str,
    budget: int,
    height_bound: int,
    seed: int,
) -> list[GeneratedPoint]:
    """Deterministic function of (ctx, cover, budget, height_bound, seed)."""
    return generate_points_with_stats(ctx, cover, budget, height_bound, seed)[0]


# ---------------------------------------------------------------------------
# dominance proxies


def rank_minus2K(points) -> int:
    """Rank of the evaluation matrix of the 7 monomial sections of |-2K_X|
    (six degree-2 monomials and w); rank 7 means the points lie on no single
    curve of that linear system."""
    return len(_row_echelon([_section_row(P.x, P.y, P.z, P.w) for P in points])[1])


def rank_minusK(points) -> int:
    """Rank of the evaluation matrix of the |-K_X| sections x, y, z on the
    kappa-images."""
    return len(_row_echelon([P.xyz() for P in points])[1])
