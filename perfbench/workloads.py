"""The four workloads: seeded inputs, operations and answer checks.

An operation is one CLI command run in-process through ``dp2.cli.main``
with stdout captured, or one library call where the CLI has no command
(``count_all_bitangents``).  A workload's operations, run once each in order,
are its fixed work (one pass).

Answers are checked on every execution.  An operation whose label appears in
pinned.json must reproduce the pinned answer exactly; every label of the
default seed is pinned.  Other labels are checked against invariants: 28
bitangents, consistent classification flags, generated points on the
surface with ``succeeded + failed == attempted`` and rank proxies 7 and 3,
and oracle records inside the Weil band with ``hit + missed == total``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import inputs

HERE = Path(__file__).resolve().parent
PINNED_FILE = HERE / "pinned.json"

WORKLOADS = ("bitangents", "classify", "generate", "oracle")

# the size of each workload's pass
SIZES = {
    "classify": {"surfaces": 4, "bits": (34, 38)},
    "generate": {"surfaces": 2, "f2_budget": 50, "f3_budget": 20},
    "oracle": {"surfaces": 1},
}

# pencil parameters tried, in a seeded order, for the classify points f1((u, v))
PARAMS = [(u, v) for u in range(1, 9) for v in range(-8, 9) if math.gcd(u, v) == 1]


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]  # raises CheckFailed


@dataclass
class Workload:
    name: str
    surfaces: list  # inputs.SurfaceInput, written to the work directory
    ops: list


def run_cli(argv: list[str]) -> tuple[int, str]:
    from dp2 import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _records(output) -> list[dict]:
    code, text = output
    _require(code == 0, f"exit code {code}")
    return [json.loads(line) for line in text.splitlines()]


# ---------------------------------------------------------------------------
# answers: what pinned.json stores for each operation


def answer(workload: str, output):
    if workload == "bitangents":
        return output
    if workload == "classify":
        return _records(output)[0]["classification"]
    if workload == "generate":
        return hashlib.sha256(output[1].encode()).hexdigest()
    recs = _records(output)
    return [
        {k: r.get(k) for k in ("p", "N_p", "base_locus_confirms_phi")}
        | {"hit": r["surjectivity"]["hit"], "missed": r["surjectivity"]["missed"]}
        for r in recs if "p" in r
    ]


def load_pinned() -> dict:
    return json.loads(PINNED_FILE.read_text(encoding="utf-8")) if PINNED_FILE.exists() else {}


# ---------------------------------------------------------------------------
# invariants


def _on_surface(surface_doc: dict, point: str) -> bool:
    """w^2 + f w = g at the point, evaluated independently of dp2."""
    x, y, z, w = (int(t) for t in point.split(":"))

    def form(entries):
        return sum(Fraction(v) * x**i * y**j * z**k for i, j, k, v in entries)

    return w * w + form(surface_doc["f"]) * w == form(surface_doc["g"])


def check_bitangents(output) -> None:
    _require(output == 28, f"{output} bitangents, expected 28")


def check_classify(point: str, output) -> None:
    rec = _records(output)[0]
    _require(rec["point"] == point, "classified another point")
    c = rec["classification"]
    n, ram = c["n_exceptional"], c["on_ramification"]
    _require(0 <= n <= 28, "n_exceptional out of range")
    _require(c["is_generalized_eckardt"] == (n == 4), "Eckardt flag inconsistent")
    _require(c["is_general"] == (not ram and n != 4), "general flag inconsistent")
    _require(c["is_very_general"] == (not ram and n == 0), "very-general flag inconsistent")


def check_generate(surface_doc: dict, budget: int, output) -> None:
    recs = _records(output)
    summary = recs[-1]["summary"]
    points = recs[:-1]
    _require(summary["attempted"] == budget, "attempted != budget")
    _require(summary["succeeded"] + summary["failed"] == summary["attempted"], "succeeded + failed != attempted")
    _require(summary["distinct"] == len(points), "distinct != number of points")
    _require(summary["rank_minus2K_first30"] == 7, "rank proxy for -2K is not 7")
    _require(summary["rank_minusK_first30"] == 3, "rank proxy for -K is not 3")
    _require(all(_on_surface(surface_doc, r["point"]) for r in points), "generated point off the surface")


def check_oracle(primes: list[int], output) -> None:
    recs = [r for r in _records(output) if "p" in r]
    _require([r["p"] for r in recs] == primes, "wrong primes")
    for r in recs:
        p, N = r["p"], r["N_p"]
        _require(r["good"], f"{p} reported bad")
        _require(abs(N - p * p - 1) <= 8 * p and r["weil_band_ok"], f"N_p outside the Weil band at {p}")
        s = r["surjectivity"]
        _require(s["total"] == N and s["hit"] + len(s["missed"]) == s["total"], f"hit + missed != total at {p}")


def checked(workload: str, label: str, pinned: dict, invariant: Callable[[object], None]):
    """Check against the pin when there is one, else against the invariant."""
    pin = pinned.get(workload, {}).get(label)

    def check(output) -> None:
        if pin is not None:
            got = answer(workload, output)
            _require(json.loads(json.dumps(got)) == pin, f"answer differs from pin: {got!r}")
        else:
            invariant(output)

    return check


# ---------------------------------------------------------------------------
# builders


def _random_surfaces(seed: int, count: int, kind: str = "primes"):
    return [(f"r{s}", inputs.recipe_surface(s)) for s in inputs.pool_seeds(seed, count, kind)]


def build(name: str, seed: int, workdir: Path, pinned: dict) -> Workload:
    """Generate the workload's inputs from the seed (before timing)."""
    rng = random.Random(f"{name}:{seed}")
    if name == "bitangents":
        return _bitangents(seed, pinned)
    if name == "classify":
        return _classify(seed, rng, workdir, pinned)
    if name == "generate":
        return _generate(seed, rng, workdir, pinned)
    if name == "oracle":
        return _oracle(seed, workdir, pinned)
    raise ValueError(f"unknown workload {name!r}")


def _bitangents(seed: int, pinned: dict) -> Workload:
    from dp2 import geometry, surface

    pool = inputs.BITANGENT_POOL
    recipe_seed = pool[(seed - inputs.DEFAULT_SEED) % len(pool)]
    named = [(f"r{recipe_seed}", inputs.recipe_surface(recipe_seed))]
    named += [(n, inputs.fixed_surface(n)) for n in ("s0", "s_k")]
    surfaces = [inputs.surface_input(n, S) for n, S in named]
    ops = []
    for si in surfaces:
        def run(text=si.text):
            return geometry.count_all_bitangents(surface.parse_surface(text))
        label = f"count_all_bitangents {si.name}"
        ops.append(Op(label, run, checked("bitangents", label, pinned, check_bitangents)))
    return Workload("bitangents", surfaces, ops)


def point_bits(P) -> int:
    """Total bit length of the point's x, y and z coordinates."""
    return sum(abs(c).bit_length() for c in (P.x, P.y, P.z))


def _classify(seed: int, rng: random.Random, workdir: Path, pinned: dict) -> Workload:
    """One point f1((u, v)) per pool surface, the first in a seeded order of
    small parameters whose x, y, z take a total number of bits in the size
    band.  Classification time grows about linearly with that total (about
    0.06 s per bit on a two-vCPU Xeon guest), so the band keeps the points
    of different seeds at comparable cost."""
    from dp2 import covers
    from dp2.errors import DP2Error

    size = SIZES["classify"]
    lo, hi = size["bits"]
    surfaces, points = [], []
    for n, S in _random_surfaces(seed, size["surfaces"]):
        si = inputs.surface_input(n, S)
        surfaces.append(si)
        ctx = covers.context_for(S)
        for u, v in rng.sample(PARAMS, len(PARAMS)):
            try:
                P = covers.f1(ctx, (u, v))
            except DP2Error:
                continue
            if lo <= point_bits(P) <= hi:
                points.append((si, str(P), f"f1({u},{v})"))
                break
        else:
            raise ValueError(f"no point of {lo}-{hi} bits on {n}")
    s0 = inputs.surface_input("s0", inputs.fixed_surface("s0"))
    surfaces.append(s0)
    points += [(s0, p, p) for p in inputs.S0_POINTS]
    ops = []
    for si, point, tag in points:
        argv = ["classify", "--surface", str(si.path(workdir)), "--point", point]
        label = f"classify {si.name} {tag}"
        inv = lambda out, point=point: check_classify(point, out)  # noqa: E731
        ops.append(Op(label, lambda argv=argv: run_cli(argv), checked("classify", label, pinned, inv)))
    return Workload("classify", surfaces, ops)


def _generate(seed: int, rng: random.Random, workdir: Path, pinned: dict) -> Workload:
    size = SIZES["generate"]
    surfaces = [inputs.surface_input(n, S) for n, S in _random_surfaces(seed, size["surfaces"], "points")]
    ops = []
    for si in surfaces:
        doc = json.loads(si.text)
        for cover, budget in (("f2", size["f2_budget"]), ("f3", size["f3_budget"])):
            cover_seed = rng.randint(1, 10**6)
            argv = ["generate", "--surface", str(si.path(workdir)), "--cover", cover,
                    "--budget", str(budget), "--seed", str(cover_seed)]
            label = f"generate {si.name} {cover} budget={budget} seed={cover_seed}"
            inv = lambda out, doc=doc, budget=budget: check_generate(doc, budget, out)  # noqa: E731
            ops.append(Op(label, lambda argv=argv: run_cli(argv), checked("generate", label, pinned, inv)))
    return Workload("generate", surfaces, ops)


def _oracle(seed: int, workdir: Path, pinned: dict) -> Workload:
    from dp2.fforacle import good_primes

    named = _random_surfaces(seed, SIZES["oracle"]["surfaces"], "points")
    surfaces = [inputs.surface_input(n, S) for n, S in named]
    ops = []
    for si, (_n, S) in zip(surfaces, named):
        primes = good_primes(S, 11, 60, 1)
        argv = ["oracle", "--surface", str(si.path(workdir)), "--primes", ",".join(map(str, primes))]
        label = f"oracle {si.name} p={','.join(map(str, primes))}"
        inv = lambda out, primes=primes: check_oracle(primes, out)  # noqa: E731
        ops.append(Op(label, lambda argv=argv: run_cli(argv), checked("oracle", label, pinned, inv)))
    return Workload("oracle", surfaces, ops)
