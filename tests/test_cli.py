"""CLI: commands, exit codes, JSON output, determinism."""

import json
from pathlib import Path

import pytest

from dp2.cli import main

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
    ])
    def test_surface_file_not_in_list_format(self, capsys, tmp_path, doc):
        path = tmp_path / "surface.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "classify", "--surface", str(path), "--point", "1:0:0:1")
        assert code == 1
        assert "bad surface file" in err

    def test_point_off_surface(self, capsys):
        code, _, _ = run(capsys, "classify", "--surface", S0, "--point", "1:1:0:1")
        assert code == 2

    def test_pretty_format(self, capsys):
        code, out, _ = run(capsys, "classify", "--surface", S0, "--point", "1:0:0:1", "--format", "pretty")
        assert code == 0
        assert json.loads(out)["command"] == "classify"


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

    def test_bad_prime_list(self, capsys):
        code, _, _ = run(capsys, "oracle", "--surface", R2, "--primes", "2,x")
        assert code == 1


class TestVerify:
    def test_all_properties_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--surface", R2, "--seed", "1")
        assert code == 0
        recs = parse_jsonl(out)
        assert recs[-1]["all_ok"] is True
        props = {r["property"] for r in recs[:-1]}
        assert {"geiser_involution", "phi_involution", "origin_independence",
                "cp_section_agreement", "rank_minus2K_is_7"} <= props


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

    def test_no_args(self, capsys):
        code = main([])
        capsys.readouterr()
        assert code == 1
