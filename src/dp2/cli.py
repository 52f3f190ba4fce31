"""Batch command-line interface.

Commands: classify, phi, curve, generate, oracle, verify.  Output is
JSON-lines by default (`--format pretty` switches to an indented document).
Exit codes: 0 success, 1 usage/parse error, 2 domain/hypothesis failure,
3 internal degeneracy.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import covers
from .errors import (
    BadParameter,
    BadPrime,
    DP2Error,
    EliminationDegenerate,
    UnexpectedDimension,
)
from .geometry import (
    SEC_MONOMIALS,
    _section_value,
    classify_point,
    c_p_point,
    osculating_section,
    phi,
    phi_domain,
)
from .surface import PointDP2, SurfaceDP2, on_surface, parse_surface

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_DEGENERATE = 3

# `oracle` enumerates all p^2 + p + 1 points of P^2(F_p), 3-5 us each on a two-vCPU
# Xeon guest (the command: 0.4 s at p = 211, 9 s at p = 997); a larger prime is a usage error
MAX_ORACLE_PRIME = 1000

# `generate` tries one cover parameter per unit of budget, 0.5 ms each for f2
# and 4.3 ms for f6 on random2 on the same guest (budget 400): under a minute
# at the cap, which keeps the parameter list small
MAX_GENERATE_BUDGET = 10_000

_DEGENERATE = (EliminationDegenerate, UnexpectedDimension)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(prog="dp2", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--surface", required=True, help="surface JSON file")
        p.add_argument("--format", choices=["jsonl", "pretty"], default="jsonl")

    p = sub.add_parser("classify", help="classify a rational point")
    common(p)
    p.add_argument("--point", required=True, help="point as x:y:z:w")

    p = sub.add_parser("phi", help="evaluate the point procedure phi(P, Q)")
    common(p)
    p.add_argument("--point", action="append", required=True, help="give twice: P then Q")

    p = sub.add_parser("curve", help="osculating section and a point of C_P")
    common(p)
    p.add_argument("--point", required=True, help="very general base point P")
    p.add_argument("--param", default="1:2", help="pencil parameter u:v")

    p = sub.add_parser("generate", help="seeded point generation through a cover")
    common(p)
    p.add_argument("--point", default=None, help="base point P0 (searched if omitted or unsuitable)")
    p.add_argument("--cover", choices=["f1", "f2", "f3", "f6"], default="f2")
    p.add_argument("--budget", type=int, default=100,
                   help=f"cover parameters to try, at most {MAX_GENERATE_BUDGET}")
    p.add_argument("--height-bound", type=int, default=10**1000)
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("oracle", help="finite-field oracles per prime")
    common(p)
    p.add_argument("--primes", default="5,7,11,13",
                   help=f"comma-separated primes, each at most {MAX_ORACLE_PRIME}")

    p = sub.add_parser("verify", help="run the seeded invariant suite")
    common(p)
    p.add_argument("--seed", type=int, default=1)
    return parser


def _emit(records, fmt):
    if fmt == "pretty":
        print(json.dumps(records if len(records) != 1 else records[0], indent=2))
    else:
        for rec in records:
            print(json.dumps(rec, separators=(",", ":")))


def _parse_point(text: str) -> PointDP2:
    try:
        return PointDP2.parse(text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


class _UsageError(Exception):
    pass


def _load_surface(path: str) -> SurfaceDP2:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read surface file: {exc}") from exc
    try:
        return parse_surface(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"surface file is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise _UsageError(f"bad surface file: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def cmd_classify(args) -> int:
    S = _load_surface(args.surface)
    P = on_surface(S, *_parse_point(args.point).coords())
    cls = classify_point(S, P)
    _emit([{"command": "classify", "point": str(P), "classification": asdict(cls)}], args.format)
    return EXIT_OK


def cmd_phi(args) -> int:
    S = _load_surface(args.surface)
    if len(args.point) != 2:
        raise _UsageError("phi needs exactly two --point arguments")
    P = on_surface(S, *_parse_point(args.point[0]).coords())
    Q = on_surface(S, *_parse_point(args.point[1]).coords())
    sys.set_int_max_str_digits(0)  # inputs parsed: no digit cap for output
    verdict = phi_domain(S, P, Q)
    rec = {"command": "phi", "P": str(P), "Q": str(Q), "domain": asdict(verdict)}
    try:
        R = phi(S, P, Q)
    except DP2Error as exc:
        rec["error"] = {"type": type(exc).__name__, "message": str(exc)}
        _emit([rec], args.format)
        return EXIT_DEGENERATE if isinstance(exc, _DEGENERATE) else EXIT_DOMAIN
    rec["result"] = str(R)
    _emit([rec], args.format)
    return EXIT_OK


def _parse_param(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise _UsageError(f"parameter must be u:v, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def cmd_curve(args) -> int:
    S = _load_surface(args.surface)
    P = on_surface(S, *_parse_point(args.point).coords())
    param = _parse_param(args.param)
    sys.set_int_max_str_digits(0)
    section = osculating_section(S, P)
    R = c_p_point(S, P, param)
    rec = {
        "command": "curve",
        "P": str(P),
        "param": f"{param[0]}:{param[1]}",
        "section": {
            "lambda": section[0],
            "q2": [[*m, str(c)] for m, c in zip(SEC_MONOMIALS, section[1:])],
        },
        "point": str(R),
        "section_vanishes_at_point": _section_value(section, R.coords()) == 0,
    }
    _emit([rec], args.format)
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.budget > MAX_GENERATE_BUDGET:
        raise _UsageError(f"budget above MAX_GENERATE_BUDGET = {MAX_GENERATE_BUDGET}: {args.budget}")
    S = _load_surface(args.surface)
    P0 = on_surface(S, *_parse_point(args.point).coords()) if args.point else None
    sys.set_int_max_str_digits(0)
    ctx = covers.context_for(S, P0)
    points, stats = covers.generate_points_with_stats(
        ctx, args.cover, args.budget, args.height_bound, args.seed
    )
    records = [
        {
            "point": str(gp.point),
            "height": gp.height,
            "cover": gp.cover,
            "params": str(gp.params),
        }
        for gp in points
    ]
    sample = [gp.point for gp in points[:30]]
    summary = {
        "summary": {
            "P0": str(ctx.P0),
            "cover": args.cover,
            "budget": args.budget,
            "seed": args.seed,
            "rng": stats.rng,
            "attempted": stats.attempted,
            "succeeded": stats.succeeded,
            "failed": stats.failed,
            "distinct": stats.distinct,
            "filtered": stats.filtered,
            "rank_minus2K_first30": covers.rank_minus2K(sample) if sample else 0,
            "rank_minusK_first30": covers.rank_minusK(sample) if sample else 0,
        }
    }
    _emit(records + [summary], args.format)
    return EXIT_OK


def _oracle_instance(S: SurfaceDP2):
    """A deterministic exact phi computation used for the base-locus check."""
    ctx = covers.context_for(S)
    last = None
    for param in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3)]:
        try:
            Q = covers.f1(ctx, param)
            R = phi(S, ctx.P0, Q)
            return ctx.P0, Q, R
        except DP2Error as exc:
            last = exc
    raise BadParameter(f"no usable phi instance found: {last}")


def cmd_oracle(args) -> int:
    from . import fforacle  # only `oracle` uses it, so `import dp2.cli` does not compile it

    S = _load_surface(args.surface)
    try:
        primes = [int(t) for t in args.primes.split(",") if t.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad prime list: {exc}") from exc
    too_large = [p for p in primes if p > MAX_ORACLE_PRIME]
    if too_large:
        raise _UsageError(f"primes above MAX_ORACLE_PRIME = {MAX_ORACLE_PRIME}: {too_large}")
    reduced = []
    for p in primes:
        try:
            reduced.append((p, fforacle.reduce_surface(S, p)))
        except BadPrime as exc:
            reduced.append((p, exc))
    P = Q = R = None
    instance = {"error": "no good prime"}
    if not all(isinstance(Sp, BadPrime) for _p, Sp in reduced):
        try:
            P, Q, R = _oracle_instance(S)
            instance = {"P": str(P), "Q": str(Q), "R": str(R)}
        except DP2Error as exc:
            instance = {"error": str(exc)}
    records = []
    for p, Sp in reduced:
        rec = {"p": p}
        if isinstance(Sp, BadPrime):
            rec.update({"good": False, "error": str(Sp)})
            records.append(rec)
            continue
        N = len(Sp.points())
        rec.update({
            "good": True,
            "N_p": N,
            "weil_band_ok": abs(N - p * p - 1) <= 8 * p,
        })
        if P is not None:
            try:
                rec["base_locus_confirms_phi"] = fforacle.base_locus_oracle(Sp, P, Q, R)
            except (BadPrime, UnexpectedDimension) as exc:
                rec["base_locus_confirms_phi"] = None
                rec["base_locus_note"] = str(exc)
        if p <= fforacle._SWEEP_CAP:
            try:
                rep = fforacle.phi_surjectivity(Sp)
                rec["surjectivity"] = {**asdict(rep), "coverage": rep.coverage}
            except BadPrime as exc:
                rec["surjectivity_note"] = str(exc)
        records.append(rec)
    records.append({"instance": instance})
    _emit(records, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .surface import geiser

    S = _load_surface(args.surface)
    ctx = covers.context_for(S)
    results = []

    def prop(name, samples, passed):
        results.append({"property": name, "samples": samples, "passed": passed, "ok": samples == passed})

    # Geiser involution on generated points
    pts = [gp.point for gp in covers.generate_points(ctx, "f1", 60, 10**1000, args.seed)]
    pts.append(ctx.P0)
    ok = sum(1 for P in pts if geiser(S, geiser(S, P)) == P)
    prop("geiser_involution", len(pts), ok)

    # phi involution on U_inv pairs (P0, Q) with Q from f2
    qs = [gp.point for gp in covers.generate_points(ctx, "f2", 40, 10**1000, args.seed)]
    pairs = [(ctx.P0, Q) for Q in qs if covers.in_u_inv(ctx, Q)][:20]
    ok = 0
    for P, Q in pairs:
        try:
            R = phi(S, P, Q)
            if covers.in_u_inv(ctx, R) and phi(S, P, R) == Q:
                ok += 1
        except DP2Error:
            pass
    prop("phi_involution", len(pairs), ok)

    # origin independence
    ok = 0
    for P, Q in pairs:
        try:
            if phi(S, P, Q, origin="P") == phi(S, P, Q, origin="Q"):
                ok += 1
        except DP2Error:
            pass
    prop("origin_independence", len(pairs), ok)

    # C_P cross-construction agreement
    params = [(1, k) for k in range(1, 11)] + [(k, 1) for k in range(2, 12)]
    ok = n = 0
    for param in params:
        try:
            R = covers.f1(ctx, param)
        except DP2Error:
            continue
        n += 1
        if _section_value(ctx.section, R.coords()) == 0:
            ok += 1
    prop("cp_section_agreement", n, ok)

    # dominance rank proxy
    sample = [gp.point for gp in covers.generate_points(ctx, "f2", 60, 10**1000, args.seed)[:30]]
    r7 = covers.rank_minus2K(sample) if len(sample) >= 7 else 0
    r3 = covers.rank_minusK(sample) if len(sample) >= 3 else 0
    prop("rank_minus2K_is_7", 1, 1 if r7 == 7 else 0)
    prop("rank_minusK_is_3", 1, 1 if r3 == 3 else 0)

    all_ok = all(r["ok"] for r in results)
    _emit(results + [{"all_ok": all_ok, "P0": str(ctx.P0), "seed": args.seed}], args.format)
    return EXIT_OK if all_ok else EXIT_DOMAIN


_COMMANDS = {
    "classify": cmd_classify,
    "phi": cmd_phi,
    "curve": cmd_curve,
    "generate": cmd_generate,
    "oracle": cmd_oracle,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    cap = sys.get_int_max_str_digits()  # lifted by commands for their output
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"dp2: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DEGENERATE as exc:
        print(f"dp2: degenerate: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except DP2Error as exc:
        print(f"dp2: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    finally:
        sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    raise SystemExit(main())
