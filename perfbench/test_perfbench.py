"""Tests of the benchmark itself: span arithmetic, tracing, answer checks and
a small smoke run of every workload."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    tree = [
        ["L.root", 0.0, 10.0, -1, 0, False],
        ["L.a", 1.0, 4.0, 0, 0, False],
        ["M.c", 2.0, 3.0, 1, 0, True],
        ["L.b", 5.0, 9.0, 0, 0, False],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    m = spans.layer_metrics(tree, spans.Counter())
    assert m["L.root.calls"] == 1 and m["M.c.raised"] == 1 and m["L.a.raised"] == 0
    assert m["L.a.self_s"] == 2.0
    assert m["L.self_s"] == 9.0 and m["M.self_s"] == 1.0


def test_overlapping_children_are_counted_once():
    tree = [["L.p", 0.0, 10.0, -1, 0, False], ["L.x", 2.0, 6.0, 0, 0, False], ["L.y", 4.0, 12.0, 0, 0, False]]
    assert spans.self_times(tree)[0] == 2.0


def test_tracer_patches_every_binding_and_restores_them():
    from dp2 import cli, covers, geometry

    phi, f1, cmd = geometry.phi, covers.f1, cli._COMMANDS["classify"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert geometry.phi is covers.phi is cli.phi
        assert geometry.phi.__wrapped__ is phi
        assert covers._COVERS["f1"][0] is covers.f1 and covers.f1.__wrapped__ is f1
        assert cli._COMMANDS["classify"].__wrapped__ is cmd
    finally:
        tracer.uninstall()
    assert geometry.phi is phi and covers.phi is phi and cli.phi is phi
    assert covers._COVERS["f1"][0] is f1 and cli._COMMANDS["classify"] is cmd


def test_traced_calls_record_parents_and_counters():
    from dp2 import covers

    S = inputs.recipe_surface(2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        ctx = covers.context_for(S)
        covers.f1(ctx, (1, 2))
        covers.f1(ctx, (-2, -4))  # the same parameter
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer.spans, tracer.counts)
    assert m["covers.f1.calls"] == 2 and m["covers.f1.repeat_ratio"] == 0.5
    assert m["covers.find_very_general_point.candidates"] >= 1
    assert m["geometry.self_s"] > 0


@pytest.mark.parametrize("seed", [2, 3, 5])
def test_recipe_reproduces_the_pinned_surface_files(seed):
    from dp2.surface import load_surface, serialize_surface

    expected = serialize_surface(load_surface(str(ROOT / "surfaces" / f"random{seed}.json")))
    assert serialize_surface(inputs.recipe_surface(seed)) == expected


def test_pool_starts_at_the_default_surface_and_is_seeded():
    assert inputs.pool_seeds(inputs.DEFAULT_SEED, 1) == [2]
    assert inputs.pool_seeds(7, 3) == inputs.pool_seeds(7, 3)
    assert len(set(inputs.pool_seeds(7, 3))) == 3
    assert inputs.pool_seeds(inputs.DEFAULT_SEED, 1, "points") == [2]
    assert set(inputs.pool_seeds(7, 2, "points")) <= set(inputs.load_pool("points"))


def _generate_op(tmp_path, pinned):
    S = inputs.recipe_surface(2)
    si = inputs.surface_input("r2", S)
    si.path(tmp_path).write_text(si.text, encoding="utf-8")
    argv = ["generate", "--surface", str(si.path(tmp_path)), "--cover", "f2", "--budget", "30", "--seed", "3"]
    label = "generate r2 f2 budget=30 seed=3"
    doc = json.loads(si.text)
    check = workloads.checked("generate", label, pinned, lambda out: workloads.check_generate(doc, 30, out))
    return argv, label, check


def _flip_digit(text: str) -> str:
    i = next(i for i, ch in enumerate(text) if ch.isdigit() and ch not in "09")
    return text[:i] + str(int(text[i]) + 1) + text[i + 1:]


@pytest.mark.parametrize("pinned_answer", [False, True])
def test_checker_rejects_generate_output_with_a_flipped_digit(tmp_path, pinned_answer):
    argv, label, _ = _generate_op(tmp_path, {})
    code, text = workloads.run_cli(argv)
    pinned = {"generate": {label: workloads.answer("generate", (code, text))}} if pinned_answer else {}
    _, _, check = _generate_op(tmp_path, pinned)
    good = workloads.Op(label, lambda: (code, text), check)
    bad = workloads.Op(label, lambda: (code, _flip_digit(text)), check)
    runner = run.Runner()
    assert runner.execute(good) is not None
    assert runner.execute(bad) is None
    assert runner.failed / runner.attempted == 0.5


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_of_every_workload(tmp_path, monkeypatch, name):
    """Each workload at the default seed with its pass cut to the cheapest
    operations: the answers must check against the pins."""
    monkeypatch.setitem(workloads.SIZES, "classify", {"surfaces": 1, "bits": (34, 38)})
    monkeypatch.setitem(workloads.SIZES, "generate", {"surfaces": 1, "f2_budget": 30, "f3_budget": 15})
    monkeypatch.setitem(workloads.SIZES, "oracle", {"surfaces": 1})
    wl = workloads.build(name, inputs.DEFAULT_SEED, tmp_path, workloads.load_pinned())
    for si in wl.surfaces:
        si.path(tmp_path).write_text(si.text, encoding="utf-8")
    ops = [op for op in wl.ops if not op.label.startswith(("count_all_bitangents r", "classify r"))]
    runner = run.Runner()
    times = runner.run_pass(ops)
    assert runner.errors == []
    assert all(t is not None for t in times) and runner.attempted == len(ops) > 0


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "generate", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
