"""Screen recipe seeds for the benchmark's surface pool.

    python3 perfbench/screen.py heights --first 1 --last 240
    python3 perfbench/screen.py primes
    python3 perfbench/screen.py points

Run from the repository root.  ``heights`` records, for each recipe seed,
whether the surface validates, the degrees and coefficient height of the
factors of the dual-chart bitangent resultant, and the first good primes
>= 11, and rewrites perfbench/pool.json.  ``primes`` counts the bitangents of
every surface inside inputs.HEIGHT_BAND and records how many CRT primes
``count_all_bitangents`` drew (the calls to ``sympy.prevprime``), which sets
its cost; it saves after each seed, so it can be stopped and resumed.
``points`` records, for every surface inside inputs.HEIGHT_BAND, its number
of points mod 11, which sets the cost of the oracle at 11.
inputs.load_pool selects the pool from these records.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import spans  # noqa: E402


def resultant_height(S) -> tuple[list[int], int]:
    """Degrees of the irreducible factors of the dual-chart bitangent
    resultant Res_v(c1, c2) in the frame count_all_bitangents tries first,
    and the largest coefficient bit length among them."""
    import sympy as sp

    u, v, xs, ys = sp.symbols("_u _v _x _y")
    expr = sp.Integer(0)
    for (i, j, k), val in S.B.c.items():
        expr += sp.Rational(val) * xs**i * ys**j * (u * xs + v * ys) ** k
    poly = sp.Poly(sp.expand(expr), xs, ys)
    a = [sp.expand(poly.coeff_monomial(xs ** (4 - i) * ys**i)) for i in range(5)]
    c1 = sp.expand(8 * a[4] ** 2 * a[1] - 4 * a[4] * a[2] * a[3] + a[3] ** 3)
    c2 = sp.expand(64 * a[4] ** 3 * a[0] - (4 * a[4] * a[2] - a[3] ** 2) ** 2)
    R = sp.Poly(sp.resultant(sp.Poly(c1, v), sp.Poly(c2, v)), u)
    factors = [fac for fac, _mult in R.factor_list()[1] if fac.degree() > 0]
    height = max(abs(int(c)).bit_length() for fac in factors for c in fac.all_coeffs())
    return sorted(fac.degree() for fac in factors), height


def screen_height(seed: int) -> dict:
    from dp2.errors import DP2Error
    from dp2.fforacle import good_primes

    try:
        S = inputs.recipe_surface(seed)
    except DP2Error as exc:
        return {"seed": seed, "invalid": type(exc).__name__}
    degrees, height = resultant_height(S)
    return {"seed": seed, "degrees": degrees, "height": height, "good_primes": good_primes(S, 11, 60, 2)}


def count_primes(seed: int) -> int:
    from dp2 import geometry

    tracer = spans.Tracer()
    tracer.install()
    try:
        n = geometry.count_all_bitangents(inputs.recipe_surface(seed))
    finally:
        tracer.uninstall()
    if n != 28:
        raise SystemExit(f"recipe seed {seed}: {n} bitangents")
    return sum(1 for s in tracer.spans if s[spans.NAME] == "sympy.prevprime")


def save(doc: dict) -> None:
    inputs.POOL_FILE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("stage", choices=["heights", "primes", "points"])
    ap.add_argument("--first", type=int, default=1)
    ap.add_argument("--last", type=int, default=240)
    args = ap.parse_args(argv)
    if args.stage == "heights":
        rows = [screen_height(seed) for seed in range(args.first, args.last + 1)]
        save({"recipe": "tests/conftest.py::seeded_random_surface", "screened": rows})
        return 0
    doc = json.loads(inputs.POOL_FILE.read_text(encoding="utf-8"))
    if args.stage == "points":
        from dp2.fforacle import enumerate_points

        for row in doc["screened"]:
            if inputs.in_height_band(row):
                row["points_mod_11"] = len(enumerate_points(inputs.recipe_surface(row["seed"]), 11))
        save(doc)
        return 0
    for row in doc["screened"]:
        if inputs.in_height_band(row) and "crt_primes" not in row:
            row["crt_primes"] = count_primes(row["seed"])
            print(json.dumps(row), flush=True)
            save(doc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
