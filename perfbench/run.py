"""dp2 benchmark: one process, one thread, closed loop.

    python3 perfbench/run.py --workload bitangents --seed 2 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

Run from the root of a dp2 checkout; the program is imported from ``src/``.
Inputs are generated from ``--seed`` before timing starts (see inputs.py and
workloads.py).  The run repeats the workload's operations in order until
``--seconds`` have passed: the first pass runs every operation, later passes
run an operation only if its fastest time so far still fits before the
deadline.  Before that, the pass's last (cheapest or only) operation runs
once untimed, so that the process's one-time costs of a first CLI call fall
outside the timed runs.  Every answer is checked, the warm-up's too.

Times are wall seconds as measured.  The machines this runs on share their
cores, and their speed moves by up to 1.8x for seconds to a minute at a
time (see README.md); each operation is therefore timed
in every pass that has room for it and counted at its median, and set-up is
timed several times.  The passes are kept short so that an operation is
timed several times per run; only the bitangent count of a random surface,
at 15-25 s, is timed once.

End-to-end metrics (``--trace 0``), names and units from BENCHMARK.json:

- ``wall_s``: time of the fixed work (one pass), each operation counted at
  its median over the run's repeats.
- ``op_p50_s``: median over the pass's operations of their median time.
- ``setup_s``: median of SETUP_REPEATS fresh interpreters that import ``dp2.cli``
  (which pulls in sympy) and load and validate the workload's surfaces, as
  every CLI call does.
- ``peak_rss_mb``: peak resident set of the benchmark process.

``--trace 1`` alternates untraced and traced passes (see spans.py) and
prints the per-layer metrics of the fastest traced pass, plus
``trace.overhead_s``, the fastest traced pass minus the fastest untraced
one.  The spans of all traced passes are written to
``.bench_build/perfbench/spans-<workload>-seed<n>.jsonl.gz``.

Before the last line, one ``report`` line gives the operation count, the
fail ratio, the environment and each operation's times; the same document
goes to ``.bench_build/perfbench/result-<workload>-seed<n>-trace<t>.json``.
The last line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import dp2.cli; "
    "from dp2.surface import load_surface; [load_surface(p) for p in sys.argv[1:]]"
)


def environment() -> dict:
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "ground_types": GROUND_TYPES,
        "loadavg_at_start": os.getloadavg(),
    }


def measure_setup(paths: list[Path]) -> list[float]:
    """Seconds of SETUP_REPEATS fresh interpreters."""
    argv = [sys.executable, "-c", SETUP_CODE, *map(str, paths)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


class Runner:
    """Executes operations, times them and checks their answers."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def execute(self, op) -> float | None:
        """Seconds of one checked execution; None if it failed."""
        from sympy.core.cache import clear_cache

        import workloads

        self.attempted += 1
        clear_cache()  # every operation starts cold, as a fresh CLI process does
        try:
            start = time.perf_counter()
            out = op.run()
            dt = time.perf_counter() - start
            op.check(out)
        except workloads.CheckFailed as exc:
            self.failed += 1
            self.errors.append(f"{op.label}: wrong answer: {exc}")
            return None
        except Exception as exc:  # an operation that raises counts as failed; the run goes on
            self.failed += 1
            self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
            return None
        return dt

    def run_pass(self, ops) -> list[float | None]:
        return [self.execute(op) for op in ops]


def measure(runner: Runner, ops, seconds: float) -> list[list[float]]:
    """Run one full pass, then each operation whose fastest time still fits
    before the deadline, until none fits."""
    samples: list[list[float]] = [[] for _ in ops]
    deadline = time.perf_counter() + seconds
    first = True
    while True:
        ran = False
        for i, op in enumerate(ops):
            if not first and (not samples[i] or time.perf_counter() + min(samples[i]) > deadline):
                continue
            dt = runner.execute(op)
            ran = True
            if dt is not None:
                samples[i].append(dt)
        first = False
        if not ran:
            return samples


def measure_traced(runner: Runner, ops, seconds: float, spans_path: Path):
    """Alternate untraced and traced passes while a pair still fits."""
    import spans

    deadline = time.perf_counter() + seconds
    plain, traced = [], []  # pass wall times; (pass wall time, tracer)
    pair_s = 0.0
    while not plain or time.perf_counter() + pair_s <= deadline:
        start = time.perf_counter()
        plain.append(sum(t for t in runner.run_pass(ops) if t is not None))
        tracer = spans.Tracer()
        tracer.install()
        try:
            wall = 0.0
            for i, op in enumerate(ops):
                tracer.run_id = 1000 * len(traced) + i
                wall += runner.execute(op) or 0.0
        finally:
            tracer.uninstall()
        traced.append((wall, tracer))
        pair_s = time.perf_counter() - start
    best_wall, best = min(traced, key=lambda wt: wt[0])
    metrics = spans.layer_metrics(best.spans, best.counts)
    metrics["trace.overhead_s"] = best_wall - min(plain)
    spans.write(spans_path, [t for _, t in traced])
    return metrics, {"plain_pass_s": plain, "traced_pass_s": [w for w, _ in traced]}


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    return json.loads(spec_path.read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace_on: bool) -> tuple[dict, dict]:
    import inputs
    import workloads

    env = environment()
    spec = load_spec()
    pinned = workloads.load_pinned()
    wl = workloads.build(name, seed, WORKDIR, pinned)
    unpinned = [op.label for op in wl.ops if op.label not in pinned.get(name, {})]
    if seed == inputs.DEFAULT_SEED and unpinned:
        raise SystemExit(f"perfbench: default-seed operations without a pinned answer (run pin.py): {unpinned}")
    for si in wl.surfaces:
        si.path(WORKDIR).write_text(si.text, encoding="utf-8")
    setup = measure_setup([si.path(WORKDIR) for si in wl.surfaces])
    runner = Runner()
    runner.execute(wl.ops[-1])  # warm-up, untimed: the first CLI call pays one-time costs
    if trace_on:
        layer, detail = measure_traced(runner, wl.ops, seconds, WORKDIR / f"spans-{name}-seed{seed}.jsonl.gz")
    else:
        samples = measure(runner, wl.ops, seconds)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace_on), "env": env,
              "default_seed": inputs.DEFAULT_SEED, "setup_runs_s": setup}
    if trace_on:
        report.update(detail)
        report["layers"] = layer
        metrics = {m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        per_op = [statistics.median(v) for v in samples if v] or [0.0]  # empty only if every operation failed
        values = {
            "wall_s": sum(per_op),
            "op_p50_s": statistics.median(per_op),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report["ops_s"] = {op.label: v for op, v in zip(wl.ops, samples)}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    report.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted,
        "errors": runner.errors,
        "metrics": metrics,
    })
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dp2 benchmark")
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=None, help="input seed (default: the pinned seed)")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dp2" / "cli.py").is_file():
        print("perfbench: src/dp2 not found; run from the root of a dp2 checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import inputs
    import workloads

    seed = inputs.DEFAULT_SEED if args.seed is None else args.seed
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)
    ok = True
    for name in names:
        report, result = run_workload(name, seed, args.seconds, bool(args.trace))
        out = WORKDIR / f"result-{name}-seed{seed}-trace{args.trace}.json"
        out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        ok = ok and result["correct"]
        if args.workload == "all":
            for metric, mv in result["metrics"].items():
                print(f"{name:<11} {metric:<32} {mv['value']:>14.6g} {mv['unit']}")
            print(f"{name:<11} {'fail_ratio':<32} {report['fail_ratio']:>14.6g} ratio")
            print(f"{name:<11} {'ops':<32} {report['attempted']:>14d} count")
        else:
            print(json.dumps({"report": report}))
            print(json.dumps(result))
    return 0 if ok or args.workload != "all" else 1


if __name__ == "__main__":
    raise SystemExit(main())
