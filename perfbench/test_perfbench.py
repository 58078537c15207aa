"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

GOLDEN = json.loads((HERE / "golden.json").read_text())


def test_same_seed_same_inputs():
    for workload in inputs.WORKLOADS:
        assert inputs.first_passes(workload, 7, 5) == inputs.first_passes(workload, 7, 5)


def test_other_seed_other_inputs():
    for workload in inputs.WORKLOADS:
        assert inputs.first_passes(workload, 7, 5) != inputs.first_passes(workload, 8, 5)


def test_generator_does_not_import_nrgit():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import inputs, checks\n"
        "for w in inputs.WORKLOADS: inputs.first_passes(w, 3, 5)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'nrgit'))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(HERE)], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_every_drawable_input_has_a_recorded_answer():
    for fmt in ("text", "json"):
        assert checks.walls_key({"n": inputs.WALLS_K, "format": fmt}) in GOLDEN["walls"]
    for m in inputs.THRESHOLD_M:
        op = {"n": inputs.THRESHOLD_N, "m": m, "r": inputs.THRESHOLD_R}
        assert checks.threshold_key(op) in GOLDEN["threshold"]


def _cli(argv):
    from nrgit import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_query_references_accept_the_seed_answers():
    for op in inputs.input_set("query", 11):
        rc, out = _cli(op["argv"])
        assert checks.check_query(op, rc, out) is None, op


def test_wrong_answers_are_rejected():
    ops = inputs.input_set("query", 5)
    op = next(op for op in ops if op["kind"] == "classify" and op["format"] == "text")
    rc, out = _cli(op["argv"])
    status = next(line for line in out.splitlines() if line.startswith("result.status_h")).split(": ")[1]
    other = "Unstable" if status != "Unstable" else "Stable"
    wrong = out.replace(f"result.status_h: {status}", f"result.status_h: {other}")
    assert checks.check_query(op, rc, wrong) is not None
    assert checks.check_query(op, 2, out) is not None
    walls_op = {"kind": "walls", "n": inputs.WALLS_K, "format": "text"}
    assert checks.check_walls(walls_op, 0, "command: walls\n", GOLDEN) is not None
    threshold_op = {"kind": "threshold", "n": 3, "m": 1, "r": 1}
    assert checks.check_threshold(threshold_op, GOLDEN["threshold"]["3/1/1"] * 2, GOLDEN) is not None


def test_wrong_answer_counts_as_failed():
    class WrongAnswers(worker.Workload):
        def execute(self, request):
            return {"setup": 0.05, "cpu": 1e-3, "wall": 1e-3, "rc": 0, "out": "result.status_h: Bogus\n", "error": None}

    class Crashes(worker.Workload):
        def execute(self, request):
            raise RuntimeError("boom")

    ops = inputs.input_set("query", 2)[:4]
    for cls in (WrongAnswers, Crashes):
        w = cls(GOLDEN)
        for op in ops:
            w.run(op)
        assert (w.attempted, w.failed) == (4, 4)
        assert w.errors


def test_failing_operations_count_as_failed_in_a_real_run():
    rejected = {"kind": "weights", "argv": ["weights", "--n", "x"], "n": 1, "m": 1, "r": 0, "format": "text"}
    crashing = {"kind": "threshold", "n": 3, "m": 0, "r": 1}
    w = worker.Workload(GOLDEN)
    for op in (rejected, crashing):
        w.run(op)
    assert (w.attempted, w.failed) == (2, 2)
    assert len(w.setups) == 2


def test_self_time_excludes_children(monkeypatch):
    now = [0]
    monkeypatch.setattr(time, "process_time_ns", lambda: now[0])
    rec = spans.Recorder()

    def inner():
        now[0] += 5

    inner_w = rec.wrap(inner, "m.inner")

    def outer():
        now[0] += 3
        inner_w()
        now[0] += 2

    rec.wrap(outer, "m.outer")()
    assert rec.spans["m.inner"] == [1, 5, 5]
    assert rec.spans["m.outer"] == [1, 10, 5]


def test_tracer_wraps_every_binding_and_restores():
    import nrgit
    from nrgit import envelope, hilbert_mumford, polytope

    original = polytope.contains_origin
    tracer = spans.Tracer(nrgit)
    tracer.on()
    try:
        assert envelope.contains_origin is hilbert_mumford.contains_origin is polytope.contains_origin
        assert polytope.contains_origin is not original
        assert nrgit.contains_origin is polytope.contains_origin
    finally:
        tracer.off()
    assert envelope.contains_origin is original and hilbert_mumford.contains_origin is original


def test_benchmark_json_matches_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(inputs.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in metrics.PER_LAYER
    ]
