"""CLI: commands, exit codes, JSON output, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dp2 import cli, covers, fforacle
from dp2.cli import MAX_GENERATE_BUDGET, MAX_ORACLE_PRIME, main
from dp2.surface import MAX_INPUT_DIGITS, load_surface, on_surface

SURFACE_DIR = Path(__file__).resolve().parent.parent / "surfaces"
S0 = str(SURFACE_DIR / "s0.json")
SK = str(SURFACE_DIR / "s_k.json")
R2 = str(SURFACE_DIR / "random2.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_jsonl(text):
    return [json.loads(line) for line in text.strip().splitlines()]


class TestClassify:
    def test_ramification_point_sk(self, capsys):
        code, out, _ = run(capsys, "classify", "--surface", SK, "--point", "0:0:1:0")
        assert code == 0
        rec = parse_jsonl(out)[0]
        assert rec["classification"]["on_ramification"] is True

    def test_full_verdict_s0(self, capsys):
        code, out, _ = run(capsys, "classify", "--surface", S0, "--point", "1:0:0:1")
        assert code == 0
        rec = parse_jsonl(out)[0]
        assert rec["classification"]["is_generalized_eckardt"] is True
        assert rec["classification"]["n_exceptional"] == 4

    def test_malformed_point(self, capsys):
        code, _, err = run(capsys, "classify", "--surface", S0, "--point", "1:2")
        assert code == 1
        assert "x:y:z:w" in err

    def test_missing_surface_file(self, capsys):
        code, _, _ = run(capsys, "classify", "--surface", "/nonexistent.json", "--point", "1:0:0:1")
        assert code == 1

    def test_zero_point(self, capsys):
        code, _, err = run(capsys, "classify", "--surface", S0, "--point", "0:0:0:1")
        assert code == 1
        assert "x = y = z = 0" in err

    @pytest.mark.parametrize("doc", [
        {"g": {"4,0,0": 1, "0,4,0": 1, "0,0,4": 1}},
        {"g": [[4, 0, 0, "1"], [0, 4, 0]]},
        {"g": [[4, 0, 0, None]]},
        {"g": [[4, 0, 0, 0.5], [0, 4, 0, "1"], [0, 0, 4, "1"]]},
        {"g": [[-1, 0, 5, "1"]]},
        [[4, 0, 0, "1"]],
        # exponents: JSON integers, not bools, summing to the degree, each triple once
        {"f": [[2.9, 0, 0, "1"]], "g": [[4, 0, 0, "1"], [0, 4, 0, "1"], [0, 0, 4, "1"]]},
        {"g": [[True, 3, 0, "1"], [4, 0, 0, "1"], [0, 4, 0, "1"], [0, 0, 4, "1"]]},
        {"g": [[4, 0, 0, "1"], [4, 0, 0, "2"], [0, 4, 0, "1"], [0, 0, 4, "1"]]},
        {"g": [[4, 0, 0, "1"], [0, 4, 0, "1"], [0, 0, 4, "1"], [1, 0, 0, "1"]]},
        # a coefficient is an integer or a string, and JSON's true is neither
        {"g": [[4, 0, 0, True], [0, 4, 0, "1"], [0, 0, 4, "1"]]},
        # the string is "[+-]n[/d]": no exponent (which took seconds to
        # expand), decimal point, space or underscore
        {"g": [[4, 0, 0, "1e10000000"], [0, 4, 0, "1"], [0, 0, 4, "1"]]},
        {"g": [[4, 0, 0, " 1.5 "], [0, 4, 0, "1"], [0, 0, 4, "1"]]},
        {"g": [[4, 0, 0, "1_0"], [0, 4, 0, "1"], [0, 0, 4, "1"]]},
    ])
    def test_surface_file_not_in_list_format(self, capsys, tmp_path, doc):
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, _, err = run(capsys, "classify", "--surface", str(path), "--point", "1:0:0:1")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert "bad surface file" in err

    def test_surface_needing_a_long_factorisation(self, capsys, tmp_path):
        # f = 0, g = (x^4 + y^4 + z^4) / (p q) with 27-digit primes p, q
        pq = 100000000000000000000000067 * 300000000000000000000000013
        path = tmp_path / "surface.json"
        path.write_text(json.dumps({"f": [], "g": [[4, 0, 0, f"1/{pq}"], [0, 4, 0, f"1/{pq}"], [0, 0, 4, f"1/{pq}"]]}))
        code, _, err = run(capsys, "classify", "--surface", str(path), "--point", "1:0:0:1")
        assert code == 1
        assert "MAX_SQUARE_COVER_DIGITS" in err

    def test_point_off_surface(self, capsys):
        code, _, _ = run(capsys, "classify", "--surface", S0, "--point", "1:1:0:1")
        assert code == 2

    def test_pretty_format(self, capsys):
        code, out, _ = run(capsys, "classify", "--surface", S0, "--point", "1:0:0:1", "--format", "pretty")
        assert code == 0
        assert json.loads(out)["command"] == "classify"

    @pytest.mark.parametrize("extra", [0, 1])
    def test_input_digit_cap(self, capsys, tmp_path, extra):
        """MAX_INPUT_DIGITS digits pass and one more is a usage error, in a
        point (off s0 within the cap: exit 2) and in a surface coefficient
        (`oracle` at the non-prime 4 only loads the surface: exit 0)."""
        n = "9" * (MAX_INPUT_DIGITS + extra)
        code, _, err = run(capsys, "classify", "--surface", S0, "--point", f"{n}:1:0:0")
        assert (code, "MAX_INPUT_DIGITS" in err) == ((1, True) if extra else (2, False))
        path = tmp_path / "surface.json"
        path.write_text(json.dumps({"f": [[1, 1, 0, "1"]], "g": [[4, 0, 0, "1"], [0, 4, 0, "1"], [0, 0, 4, n]]}))
        code, _, err = run(capsys, "oracle", "--surface", str(path), "--primes", "4")
        assert (code, "MAX_INPUT_DIGITS" in err) == ((1, True) if extra else (0, False))


class TestPhi:
    def test_derived_pair(self, capsys):
        code, out, _ = run(capsys, "phi", "--surface", S0, "--point", "20:15:12:481", "--point", "0:1:0:1")
        assert code == 0
        rec = parse_jsonl(out)[0]
        assert rec["result"] == "288600:130111:173160:90126952321"

    def test_same_image_domain_error(self, capsys):
        code, out, _ = run(capsys, "phi", "--surface", S0, "--point", "1:0:0:1", "--point", "1:0:0:-1")
        assert code == 2
        rec = parse_jsonl(out)[0]
        assert rec["domain"]["failure_reason"] == "SameImage"
        assert rec["error"]["type"] == "SameImage"

    def test_needs_two_points(self, capsys):
        code, _, _ = run(capsys, "phi", "--surface", S0, "--point", "1:0:0:1")
        assert code == 1


class TestCurve:
    def test_section_consistency(self, capsys):
        code, out, _ = run(capsys, "curve", "--surface", S0, "--point", "20:15:12:481", "--param", "1:2")
        assert code == 0
        rec = parse_jsonl(out)[0]
        assert rec["section_vanishes_at_point"] is True
        assert rec["section"]["lambda"] == 111284641

    def test_zero_param(self, capsys):
        code, _, err = run(capsys, "curve", "--surface", S0, "--point", "20:15:12:481", "--param", "0:0")
        assert code == 2
        assert "BadParameter" in err

    def test_not_very_general(self, capsys):
        code, _, _ = run(capsys, "curve", "--surface", SK, "--point", "0:0:1:0", "--param", "1:2")
        assert code == 2


class TestOutputAtAnyHeight:
    def test_phi_and_curve_print_past_the_int_str_limit(self, capsys):
        """phi and C_P of two f3 points of random2 (x of 155 and 122 digits)
        have coordinates of 1,285 to 5,254 digits: with the interpreter's
        int/str limit lowered to its least value, 640, both commands print
        them exactly, and `main` restores the limit."""
        S = load_surface(R2)
        ctx = covers.context_for(S)
        P, Q = (str(covers.f3(ctx, t)) for t in (((1, 2), (2, 3), (3, 1)), ((3, 1), (1, 2), (2, 3))))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            phi_out = run(capsys, "phi", "--surface", R2, "--point", P, "--point", Q)
            curve_out = run(capsys, "curve", "--surface", R2, "--point", P, "--param", "1:2")
            assert sys.get_int_max_str_digits() == 640
            assert phi_out[0] == curve_out[0] == 0
            sys.set_int_max_str_digits(0)  # to read the output back
            for text, key in ((phi_out[1], "result"), (curve_out[1], "point")):
                R = [int(c) for c in parse_jsonl(text)[0][key].split(":")]
                assert on_surface(S, *R).coords() == tuple(R) and len(str(R[3])) > 640
            assert parse_jsonl(curve_out[1])[0]["section_vanishes_at_point"] is True
        finally:
            sys.set_int_max_str_digits(limit)


class TestGenerate:
    def test_byte_identical_reruns(self, capsys):
        args = ("generate", "--surface", R2, "--cover", "f2", "--budget", "40", "--seed", "1")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_points_verify_on_reparse(self, capsys):
        from dp2.surface import load_surface, on_surface, PointDP2

        code, out, _ = run(capsys, "generate", "--surface", R2, "--cover", "f2", "--budget", "40", "--seed", "1")
        assert code == 0
        recs = parse_jsonl(out)
        summary = recs[-1]["summary"]
        S = load_surface(R2)
        for rec in recs[:-1]:
            P = PointDP2.parse(rec["point"])
            assert on_surface(S, P.x, P.y, P.z, P.w) == P
        assert summary["attempted"] == 40
        assert summary["distinct"] == len(recs) - 1

    def test_budget_above_the_cap_is_a_usage_error(self, capsys, monkeypatch):
        def expensive(*args):
            raise AssertionError("ran before the budget cap")

        monkeypatch.setattr(covers, "context_for", expensive)
        budget = str(MAX_GENERATE_BUDGET + 1)
        code, out, err = run(capsys, "generate", "--surface", R2, "--budget", budget)
        assert code == 1 and out == ""
        assert f"MAX_GENERATE_BUDGET = {MAX_GENERATE_BUDGET}" in err and budget in err


class TestOracle:
    def test_bad_prime_entry_not_fatal(self, capsys):
        code, out, _ = run(capsys, "oracle", "--surface", R2, "--primes", "2,5")
        assert code == 0
        recs = parse_jsonl(out)
        assert recs[0]["p"] == 2 and recs[0]["good"] is False
        assert recs[1]["p"] == 5 and recs[1]["good"] is True
        assert recs[1]["weil_band_ok"] is True

    @pytest.mark.parametrize("name", ["s0", "s_k"])
    def test_prime_three_is_a_bad_prime(self, capsys, name):
        code, out, _ = run(capsys, "oracle", "--surface", str(SURFACE_DIR / f"{name}.json"), "--primes", "3")
        assert code == 0
        rec = parse_jsonl(out)[0]
        assert rec["p"] == 3 and rec["good"] is False

    def test_no_good_prime_skips_the_instance(self, capsys, monkeypatch):
        def expensive(*args):
            raise AssertionError("searched a phi instance with no good prime")

        monkeypatch.setattr(cli, "_oracle_instance", expensive)
        code, out, _ = run(capsys, "oracle", "--surface", S0, "--primes", "3")
        assert code == 0
        assert parse_jsonl(out)[1:] == [{"instance": {"error": "no good prime"}}]

    def test_bad_prime_list(self, capsys):
        code, _, _ = run(capsys, "oracle", "--surface", R2, "--primes", "2,x")
        assert code == 1

    def test_prime_above_the_cap_is_a_usage_error(self, capsys, monkeypatch):
        def expensive(*args):
            raise AssertionError("ran before the prime cap")

        monkeypatch.setattr(cli, "_oracle_instance", expensive)
        monkeypatch.setattr(fforacle, "reduce_surface", expensive)
        code, out, err = run(capsys, "oracle", "--surface", R2, "--primes", "5,1000003")
        assert code == 1 and out == ""
        assert f"MAX_ORACLE_PRIME = {MAX_ORACLE_PRIME}" in err and "1000003" in err


class TestVerify:
    def test_all_properties_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--surface", R2, "--seed", "1")
        assert code == 0
        recs = parse_jsonl(out)
        assert recs[-1]["all_ok"] is True
        props = {r["property"] for r in recs[:-1]}
        assert {"geiser_involution", "phi_involution", "origin_independence",
                "cp_section_agreement", "rank_minus2K_is_7"} <= props


# run in a fresh interpreter: the six commands on pinned surfaces, then the
# count of all 28 bitangents, none of which loads sympy; genus1 is loaded by
# verify, the last command, alone
IMPORT_GUARD = """
import contextlib, io, sys
from dp2.cli import main
for argv in [
    "classify --surface surfaces/s0.json --point 1:0:0:1",
    "phi --surface surfaces/s0.json --point 20:15:12:481 --point 0:1:0:1",
    "curve --surface surfaces/s0.json --point 20:15:12:481",
    "generate --surface surfaces/random2.json --cover f2 --budget 5 --seed 1",
    "oracle --surface surfaces/random2.json --primes 11",
    "verify --surface surfaces/random2.json --seed 1",
]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv.split()) == 0, argv
    # only origin "Q", which verify runs, uses the group law of genus1
    assert ("dp2.genus1" in sys.modules) == argv.startswith("verify"), argv
assert "sympy" not in sys.modules, "a CLI command imported sympy"
from dp2.geometry import count_all_bitangents
from dp2.surface import load_surface
assert count_all_bitangents(load_surface("surfaces/random2.json")) == 28
assert "sympy" not in sys.modules, "the bitangent count imported sympy"
"""


class TestImportGuard:
    def test_commands_do_not_import_sympy(self):
        root = SURFACE_DIR.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD], cwd=root, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


class TestUsage:
    def test_unknown_command(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("command", ["classify", "phi", "curve", "generate", "oracle", "verify"])
    def test_jobs_is_not_an_option(self, capsys, command):
        point = ("--point", "1:0:0:1") if command in ("classify", "phi", "curve", "generate") else ()
        code, _, err = run(capsys, command, "--surface", S0, *point, "--jobs", "2")
        assert code == 1
        assert "--jobs" in err

    def test_oracle_takes_no_seed(self, capsys):
        code, _, err = run(capsys, "oracle", "--surface", S0, "--primes", "5", "--seed", "1")
        assert code == 1
        assert "--seed" in err

    def test_no_args(self, capsys):
        code = main([])
        capsys.readouterr()
        assert code == 1
