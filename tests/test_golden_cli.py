"""Golden CLI transcript: the jsonl output of every command on pinned inputs
stays byte-identical.

Each block of `golden_cli.txt` is the command line, its stdout and its exit
code.  To rewrite the file after an intended change of output:

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.txt
"""

import contextlib
import io
import sys
from pathlib import Path

from dp2.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.txt"

COMMANDS = [
    "classify --surface surfaces/s0.json --point 1:0:0:1",
    "classify --surface surfaces/s_k.json --point 0:0:1:0",
    "phi --surface surfaces/s0.json --point 20:15:12:481 --point 0:1:0:1",
    "curve --surface surfaces/s0.json --point 20:15:12:481",
    "curve --surface surfaces/s0.json --point 20:15:12:481 --param 1:2",
    "generate --surface surfaces/random2.json --cover f2 --budget 50 --seed 1",
    "oracle --surface surfaces/random2.json --primes 5,7,11,13",
    "oracle --surface surfaces/s_k.json --primes 17,19",
    "oracle --surface surfaces/s0.json --primes 29,31",
    "oracle --surface surfaces/random3.json --primes 23",
    "generate --surface surfaces/s_k.json --cover f1 --budget 20 --seed 3",
    "verify --surface surfaces/s0.json --seed 1",
]


def transcript() -> str:
    """Run COMMANDS in-process from the repository root."""
    blocks = []
    for line in COMMANDS:
        argv = [str(ROOT / a) if a.startswith("surfaces/") else a for a in line.split()]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        blocks.append(f"$ dp2 {line}\n{out.getvalue()}exit {code}\n")
    return "".join(blocks)


def test_golden_transcript():
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(transcript())
