"""Pin the answers of the default seed.

    python3 perfbench/pin.py

Run from the repository root.  Builds every workload at inputs.DEFAULT_SEED,
runs each operation once, checks it against the invariants, and writes its
answer to perfbench/pinned.json.  Re-pin only when a change to the
benchmark's inputs changes the default seed's operations; a change to dp2
must reproduce the pinned answers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import workloads  # noqa: E402

WORKDIR = Path.cwd() / ".bench_build" / "perfbench"


def main() -> int:
    WORKDIR.mkdir(parents=True, exist_ok=True)
    pinned = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, inputs.DEFAULT_SEED, WORKDIR, {})
        for si in wl.surfaces:
            si.path(WORKDIR).write_text(si.text, encoding="utf-8")
        for op in wl.ops:
            out = op.run()
            op.check(out)
            pinned.setdefault(name, {})[op.label] = workloads.answer(name, out)
            print(name, op.label, flush=True)
    workloads.PINNED_FILE.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
