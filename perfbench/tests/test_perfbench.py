"""Self-tests for the benchmark harness (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import meshsum  # noqa: E402
import meshsum.cli  # noqa: E402
from tracer import LAYERS, Tracer, per_layer_value  # noqa: E402
from worker import run_call  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    crosses_digit_limit,
    generate,
    grown_profile,
    layer_sizes,
)


def _small_calls(tmp_path) -> list[dict]:
    disk, svg = str(tmp_path / "d.json"), str(tmp_path / "d.svg")
    argvs = [
        ["grow", "-r", "7", "--seed", "face", "-n", "4", "--json"],
        ["grow", "-r", "8", "--seed", "vertex", "-n", "3", "--emit-disk", disk, "--json"],
        ["render", disk, "-o", svg],
        ["predict", "-r", "9", "--seed", "3:6", "-n", "40", "--json"],
        ["sum", "-r", "7:20", "--json"],
        ["verify", "-r", "7:8", "-n", "3", "--trials", "5", "--json"],
    ]
    files = {1: [disk], 2: [svg]}
    return [{"argv": a, "expect": {"files": files.get(i, [])}} for i, a in enumerate(argvs)]


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "meshsum" or name.startswith("meshsum.")
        for attr, value in vars(module).items()
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload):
    for seed in (0, 1, 17):
        assert generate(workload, seed, 4300) == generate(workload, seed, 4300)


def test_predict_mix_depends_on_seed_and_keeps_known_failures():
    first, second = generate("predict", 0, 4300), generate("predict", 1, 4300)
    assert [c["argv"] for c in first] != [c["argv"] for c in second]
    for calls in (first, second):
        over = [c for c in calls if c["expect"].get("digit_limit")]
        assert len(over) == 2
        for c in calls:
            if c["argv"][0] == "predict":
                assert 1 <= int(c["argv"][c["argv"].index("-n") + 1]) <= 10_000


def test_digit_limit_model_matches_the_known_failures():
    assert crosses_digit_limit(1000, 3, 6, 1440, 4300)
    assert crosses_digit_limit(9, 3, 6, 6400, 4300)
    assert not crosses_digit_limit(1000, 3, 6, 1400, 4300)
    assert not crosses_digit_limit(9, 3, 6, 5000, 4300)
    assert not crosses_digit_limit(9, 3, 6, 6400, 0)


def test_census_model_matches_explicit_growth():
    for r in (7, 9, 12):
        for kind in ("face", "vertex"):
            disk = meshsum.seed_face(r) if kind == "face" else meshsum.seed_vertex(r)
            sizes = layer_sizes(r, kind, budget=20_000)
            for layer, size in enumerate(sizes):
                assert disk.graph.vertex_count == size
                if layer >= 1 and not disk.is_degenerate:
                    profile = meshsum.boundary_profile(disk)
                    assert (profile.t, profile.d) == grown_profile(r, kind, layer)
                disk = meshsum.expand(disk)
            assert disk.graph.vertex_count > 20_000


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    calls = _small_calls(tmp_path)
    plain = [run_call(meshsum.cli.main, c) for c in calls]
    with Tracer() as tracer:
        traced = [run_call(meshsum.cli.main, c) for c in calls]
    for a, b in zip(plain, traced):
        assert a["exit"] == b["exit"] == 0
        assert (a["stdout_sha256"], a["files"]) == (b["stdout_sha256"], b["files"])
    summary = tracer.summary()
    assert per_layer_value("mesh.expand.calls", summary) > 0
    svg_bytes = os.path.getsize(calls[2]["argv"][-1])
    assert per_layer_value("render.emit_svg.bytes", summary) == svg_bytes
    assert per_layer_value("growth.predict_layers.layers", summary) >= 40
    assert per_layer_value("exact.int_to_json.digits", summary) > 0
    assert per_layer_value("mesh.count_explicit.per_disk", summary) > 1


def test_spans_in_worker_threads_have_the_submitting_span_as_parent(tmp_path):
    with Tracer() as tracer:
        run_call(meshsum.cli.main, _small_calls(tmp_path)[5])
        run_call(meshsum.cli.main, _small_calls(tmp_path)[0])
    spans = tracer.spans()
    by_id = {s.id: s for s in spans}
    for name, parent in (
        ("verify.verify_degree", "verify.run_verification"),
        ("growth.predict_layers", "report.growth_report"),
    ):
        children = [s for s in spans if s.name == name]
        assert children
        for s in children:
            assert by_id[s.parent].name == parent
            assert by_id[s.parent].thread != s.thread
    for s in spans:
        assert s.start <= s.end
    main = [s for s in spans if s.name == "cli.main"]
    assert len(main) == 2 and all(s.parent is None for s in main)


def test_self_time_excludes_children_and_aggregated_calls():
    with Tracer() as tracer:
        meshsum.cli.main(["predict", "-r", "9", "-n", "3000", "--json", "-o", os.devnull])
    summary = tracer.summary()
    report = summary["report.prediction_report"]
    assert summary["exact.int_to_json"]["calls"] > 10_000
    assert summary["exact.int_to_json"]["spans"] < summary["exact.int_to_json"]["calls"]
    assert report["self_s"] < report["total_s"] - summary["exact.int_to_json"]["self_s"] * 0.9
    assert summary["cli.main"]["self_s"] < summary["cli.main"]["total_s"]


def test_wrappers_are_removed_afterwards(tmp_path):
    before = _bindings()
    submit = ThreadPoolExecutor.submit
    tracer = Tracer()
    tracer.install()
    try:
        assert meshsum.cli.growth_report is not before[("meshsum.cli", "growth_report")]
        assert meshsum.report.predict_layers is not before[("meshsum.report", "predict_layers")]
        assert meshsum.mesh.expand.__wrapped__ is before[("meshsum.mesh", "expand")]
        assert ThreadPoolExecutor.submit is not submit
        run_call(meshsum.cli.main, _small_calls(tmp_path)[0])
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert ThreadPoolExecutor.submit is submit


def test_benchmark_json_names_resolve():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for metric in spec["per_layer"]:
        if metric["name"] in ("cli.output.bytes", "trace.overhead_s"):
            continue
        layer, function, stat = metric["name"].split(".")
        assert layer in LAYERS and function and stat


def test_checks_flag_changed_bytes_and_count_failures_by_kind():
    import run

    grow = {"argv": ["grow", "-r", "7"], "expect": {"kind": "growth-report", "vertices": 10,
                                                  "truncated": True}}
    over = {"argv": ["predict", "-r", "1000"], "expect": {"kind": "prediction-report",
                                                        "digit_limit": True}}
    ok = {"exit": 0, "stdout_sha256": "a", "files": {}, "stderr": "",
          "report": {"kind": "growth-report", "all_match": True, "vertices": 10,
                     "truncated_at_budget": True}}
    limit = {"exit": 2, "stdout_sha256": "e", "files": {}, "report": {},
             "stderr": "error: Exceeds the limit (4300 digits) for integer string conversion"}
    golden = {"grow -r 7": {"exit": 0, "stdout_sha256": "a", "files": {}}}

    verdict = run.check([grow, over], [{"calls": [ok, limit]}], golden)
    assert verdict["problems"] == [] and verdict["unexpected"] == 0 and verdict["known"] == 1
    assert verdict["categories"] == {"int-max-str-digits": 1}

    changed = dict(ok, stdout_sha256="b")
    verdict = run.check([grow, over], [{"calls": [changed, limit]}], golden)
    assert any("recorded bytes" in p for p in verdict["problems"])

    crashed = dict(limit, exit=1, stderr="")
    verdict = run.check([grow, grow], [{"calls": [ok, crashed]}], {})
    assert verdict["unexpected"] == 1 and verdict["problems"]

    wrong_size = dict(ok, report=dict(ok["report"], vertices=11))
    verdict = run.check([grow], [{"calls": [ok]}, {"calls": [wrong_size]}], {})
    assert any("vertices" in p for p in verdict["problems"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
