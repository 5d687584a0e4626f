from __future__ import annotations

import json
import sys
import tracemalloc

import pytest

from meshsum import cli, mesh
from meshsum.cli import main
from meshsum.report import canonical_json, growth_report


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_grow_face_matches_predictions(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "grow", "-r", "7", "--seed", "face", "-n", "3", "-o", str(out_file)
    )
    assert code == 0, err
    report = json.loads(out_file.read_text())
    assert report["schema_version"] == "meshsum/1"
    assert report["all_match"] is True
    last = report["layers"][-1]
    assert last["explicit"]["v"] == "135"
    assert last["match"] is True
    assert report["invariants"]["vM"] == {"num": "-6", "den": "1"}
    assert report["invariants"]["seed_match"] is True


def test_grow_vertex_layer_mapping(capsys):
    code, out, err = run_cli(capsys, "grow", "-r", "9", "--seed", "vertex", "-n", "2", "--json")
    assert code == 0
    report = json.loads(out)
    by_layer = {rec["layer"]: rec for rec in report["layers"]}
    assert by_layer[0]["explicit"]["v"] == "1"
    assert by_layer[0]["match"] is None  # nothing analytic for the bare point
    assert by_layer[1]["explicit"]["v"] == "10"
    assert by_layer[1]["predicted"]["n"] is None  # the fan is the analytic base
    assert by_layer[2]["match"] is True


def test_grow_rejects_custom_seed(capsys):
    code, out, err = run_cli(capsys, "grow", "-r", "7", "--seed", "3:6")
    assert code == 2
    assert "canonical seeds" in err


def test_grow_json_is_canonical_and_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "grow", "-r", "8", "-n", "3", "--json")
    code2, out2, _ = run_cli(capsys, "grow", "-r", "8", "-n", "3", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1 == canonical_json(json.loads(out1))


def test_budget_truncation_still_exits_zero(capsys, monkeypatch):
    monkeypatch.setenv("MESHSUM_BUDGET", "40")
    code, out, err = run_cli(capsys, "grow", "-r", "7", "-n", "6", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["truncated_at_budget"] is True
    explicit = [rec for rec in report["layers"] if rec["explicit"] is not None]
    analytic_only = [rec for rec in report["layers"] if rec["explicit"] is None]
    assert explicit and analytic_only
    assert all(rec["match"] is None for rec in analytic_only)
    assert all(rec["predicted"] is not None for rec in analytic_only)


def test_truncated_grow_emits_last_explicit_disk(capsys, tmp_path):
    disk_path = tmp_path / "disk.json"
    code, out, _ = run_cli(
        capsys, "grow", "-r", "7", "-n", "6", "--budget", "200",
        "--emit-disk", str(disk_path), "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["truncated_at_budget"] is True
    last = [rec for rec in report["layers"] if rec["explicit"] is not None][-1]
    disk = json.loads(disk_path.read_text())
    assert str(len(disk["rotation"])) == last["explicit"]["v"]
    assert disk["layer"] == last["layer"]


@pytest.mark.parametrize("seed", ["face", "vertex"])
def test_growth_report_returns_last_explicit_disk(seed):
    for budget in (200, 10**6):
        report, disk = growth_report(8, seed, 4, budget)
        explicit = [rec["layer"] for rec in report["layers"] if rec["explicit"] is not None]
        assert disk.layer_index == explicit[-1]
        assert str(disk.graph.vertex_count) == report["layers"][explicit[-1]]["explicit"]["v"]


def test_budget_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("MESHSUM_BUDGET", "10")
    code, out, _ = run_cli(capsys, "grow", "-r", "7", "-n", "1", "--budget", "100", "--json")
    assert code == 0
    assert json.loads(out)["truncated_at_budget"] is False
    monkeypatch.setenv("MESHSUM_BUDGET", "banana")
    code, out, err = run_cli(capsys, "grow", "-r", "7", "-n", "1", "--json")
    assert code == 2
    assert "MESHSUM_BUDGET" in err


def test_emit_disk_and_render_round_trip(capsys, tmp_path):
    disk_path = tmp_path / "disk.json"
    svg_path = tmp_path / "disk.svg"
    code, _, _ = run_cli(
        capsys, "grow", "-r", "7", "--seed", "vertex", "-n", "2",
        "--emit-disk", str(disk_path),
    )
    assert code == 0
    code, out, err = run_cli(capsys, "render", str(disk_path), "-o", str(svg_path))
    assert code == 0, err
    svg = svg_path.read_text()
    assert svg.count("<circle") == 29
    assert svg.count("<line") == 63
    # render twice: identical bytes
    code, _, _ = run_cli(capsys, "render", str(disk_path), "-o", str(svg_path))
    assert svg_path.read_text() == svg


def test_render_rejects_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "render", str(bad))
    assert code == 2
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(capsys, "render", str(missing))
    assert code == 2
    not_disk = tmp_path / "notdisk.json"
    not_disk.write_text('{"r": 7}')
    code, _, err = run_cli(capsys, "render", str(not_disk))
    assert code == 2
    for rotation, boundary, kind in (
        ("[[1, 5], [2, 0], [0, 1]]", "[0, 1, 2]", ""),
        ("[[1, -1], [2, 0], [0, 1]]", "[0, 1, 2]", ""),
        ("[[true, 2], [2, 0], [0, 1]]", "[0, 1, 2]", ""),
        ("[[1, 2], [2], [0, 1]]", "[0, 1, 2]", "symmetry"),
        ("[[1, 2, 1], [2, 0], [0, 1]]", "[0, 1, 2]", "duplicate-neighbor"),
        ("[[1, 3], [2, 0], [3, 1], [0, 2]]", "[0, 1, 2, 3]", "face-structure"),
    ):
        bad_disk = tmp_path / "baddisk.json"
        bad_disk.write_text(
            f'{{"r": 7, "layer": 0, "boundary": {boundary}, "rotation": {rotation}}}'
        )
        code, _, err = run_cli(capsys, "render", str(bad_disk))
        assert code == 2
        assert "error:" in err
        assert kind in err
        assert not (tmp_path / "baddisk.svg").exists()


def test_sum_range_and_seed(capsys):
    code, out, _ = run_cli(capsys, "sum", "-r", "7:12", "--json")
    assert code == 0
    report = json.loads(out)
    assert [entry["r"] for entry in report["degrees"]] == [7, 8, 9, 10, 11, 12]
    assert report["degrees"][0]["vM"] == {"num": "-6", "den": "1"}
    assert report["degrees"][3]["vM"] == {"num": "-3", "den": "2"}
    assert all(entry["euler_check"] for entry in report["degrees"])

    code, out, _ = run_cli(capsys, "sum", "-r", "7", "--seed", "3:6", "--json")
    assert code == 0
    entry = json.loads(out)["degrees"][0]
    assert entry["seed_match"] is True
    assert entry["via_seed"]["eM"] == {"num": "-21", "den": "1"}


def test_sum_rejects_bad_domains(capsys):
    code, _, err = run_cli(capsys, "sum", "-r", "6")
    assert code == 2 and "degree" in err
    code, _, err = run_cli(capsys, "sum", "-r", "7", "--seed", "3:7")
    assert code == 2
    code, _, err = run_cli(capsys, "sum", "-r", "7:9", "--seed", "3:6")
    assert code == 2 and "single degree" in err
    code, _, err = run_cli(capsys, "sum", "-r", "9:7")
    assert code == 2 and "range" in err


def test_predict_custom_seed(capsys):
    code, out, _ = run_cli(capsys, "predict", "-r", "7", "--seed", "3:6", "-n", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["base"] == {"v": "3", "e": "3", "f": "1", "s": "0"}
    first = report["layers_predicted"][0]
    assert (first["a"], first["b"]) == ("9", "3")
    assert first["cum"]["v"] == "15"


def test_verify_clean_run(capsys):
    code, out, _ = run_cli(capsys, "verify", "-r", "7:9", "-n", "3", "--trials", "10", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    assert report["violations"] == []
    assert all(c["fail"] == 0 for c in report["checks"].values())
    assert {entry["r"] for entry in report["per_degree"]} == {7, 8, 9}


def test_verify_rng_is_seeded_and_reproducible(capsys):
    args = ("verify", "-r", "7", "-n", "2", "--trials", "25", "--json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "verify", "-r", "7", "-n", "2", "--trials", "25",
                         "--rng-seed", "9", "--json")
    assert json.loads(out3)["config"]["rng_seed"] == 9


def test_verify_large_degree_within_budget(capsys):
    # layer 2 of the degree-1000 fan is ~998k vertices, just under the default cap
    code, out, _ = run_cli(capsys, "verify", "-r", "1000", "-n", "2", "--trials", "10", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    assert report["violations"] == []


def test_verify_rejects_degrees_outside_range(capsys):
    for argv in (
        ("-r", "6", "-n", "1", "--trials", "1"),
        ("-r", "1001", "-n", "1", "--trials", "1"),
        ("-r", "7:1001", "-n", "1", "--trials", "1"),
        ("-r", "7", "-n", "-1", "--trials", "-3"),
        ("-r", "7", "-n", "-1", "--trials", "1"),
        ("-r", "7", "-n", "1", "--trials", "-3"),
    ):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert "error:" in err
        assert "all checks passed" not in out


def test_verify_rejects_a_wide_degree_span_without_building_it(capsys):
    # a list of this span takes about 70 MB; the bounds check needs none of it
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "verify", "-r", "7:2000000", "--json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert "7..1000" in err
    assert peak < 2**20


def test_verify_says_how_many_violations_it_left_out(capsys, monkeypatch):
    report = {
        "checks": {"euler-layer": {"pass": 0, "fail": 25}},
        "violations": [f"euler-layer: case {i}" for i in range(25)],
        "all_pass": False,
    }
    monkeypatch.setattr(cli, "run_verification", lambda *args, **kwargs: report)
    code, out, _ = run_cli(capsys, "verify", "-r", "7")
    assert code == 1
    lines = out.splitlines()
    assert sum(line.startswith("FAIL ") for line in lines) == 20
    assert "FAIL euler-layer: case 19" in lines
    assert "… and 5 more" in lines
    code, out, _ = run_cli(capsys, "verify", "-r", "7", "--json")
    assert out == canonical_json(report)


@pytest.mark.parametrize("mode", ["census", "invariants"])
def test_verify_fault_injection_fails(capsys, mode):
    code, out, _ = run_cli(
        capsys, "verify", "-r", "7", "-n", "2", "--trials", "5",
        "--inject-fault", mode, "--json",
    )
    assert code == 1
    report = json.loads(out)
    assert report["all_pass"] is False
    assert report["violations"]


def _corrupt(grown: mesh.CombinatorialDisk, how: str) -> mesh.CombinatorialDisk:
    if how == "drop":  # vertex 0 forgets one neighbor, which still lists it
        rows = grown.graph.rotations
        del rows[0][0]
        return mesh.CombinatorialDisk(mesh.RotationGraph(rows), 7, grown.boundary, 2)
    return mesh.CombinatorialDisk(grown.graph, 8, grown.boundary, 2)  # ambient degree off by one


@pytest.mark.parametrize("how, kind", [("drop", "symmetry"), ("ambient", "interior-degree")])
def test_verify_reports_a_malformed_disk(capsys, monkeypatch, how, kind):
    expand = mesh.expand

    def corrupting_expand(disk, budget=mesh.DEFAULT_VERTEX_BUDGET):
        grown = expand(disk, budget)
        # layer 2 of the r = 7 face seed: only that seed's layer 1 has 12 boundary vertices
        if (grown.ambient_degree, grown.layer_index, len(disk.boundary)) == (7, 2, 12):
            return _corrupt(grown, how)
        return grown

    monkeypatch.setattr(mesh, "expand", corrupting_expand)
    code, out, _ = run_cli(capsys, "verify", "-r", "7:8", "-n", "3", "--trials", "5", "--json")
    assert code == 1
    report = json.loads(out)
    [violation] = report["violations"]
    assert violation.startswith(f"disk-invariants: r=7 seed=face layer=2: {kind}: ")
    # the face seed stops at layer 2; its layers 0-1, the vertex seed and r = 8 still run
    assert report["checks"]["disk-invariants"] == {"pass": 14, "fail": 1}
    by_degree = {entry["r"]: entry["checks"] for entry in report["per_degree"]}
    assert by_degree[7]["sum-routes-agree"] == {"pass": 5, "fail": 0}
    assert all(c["fail"] == 0 for c in by_degree[8].values())


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no integer digit limit before 3.10.7"
)
def test_predict_past_the_digit_limit_exits_2(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, _, err = run_cli(capsys, "predict", "-r", "1000", "-n", "300")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    assert err.startswith("error:")


def test_report_json_round_trips_bytes(capsys):
    _, out, _ = run_cli(capsys, "verify", "-r", "7", "-n", "2", "--trials", "5", "--json")
    assert out == canonical_json(json.loads(out))
    _, out, _ = run_cli(capsys, "sum", "-r", "7:9", "--json")
    assert out == canonical_json(json.loads(out))


def test_version_and_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["grow"])  # missing -r
    assert exc.value.code == 2
