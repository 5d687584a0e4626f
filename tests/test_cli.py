from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsum import SeedDescriptor, cli, counts_from_boundary, mesh, mesh_invariants, report, verify
from meshsum.cli import main
from meshsum.exact import int_from_text
from meshsum.report import canonical_json, growth_report, seed_descriptor_for
from support import (
    beside_k19,
    cli_seeds,
    reference_invariants_json,
    reference_layers,
    reference_prediction_json,
)


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["-r", "7", "-n", "-1", "--seed", "3:6"], "layer count must be >= 0, got -1"),
        (["-r", "6", "--seed", "3:6"],
         "only the canonical seeds face and vertex can grow, got '3:6'"),
        (["-r", "6"], "ambient degree must be an integer >= 7, got 6"),
        (["-r", "7", "-n", "20000", "--seed", "vertex"], "n_max must be in [1, 10000], got 19999"),
    ],
    ids=["layer-count", "seed", "degree", "n-max"],
)
def test_grow_checks_its_input_in_order(capsys, tmp_path, argv, message):
    # the layer count, then the seed name, then the degree (in growth.check_degree's
    # words, as at every entry point), then the analytic depth past the base layer
    output = tmp_path / "report.json"
    for form in ([], ["--json"], ["-o", str(output)]):
        assert run_cli(capsys, "grow", *argv, *form) == (2, "", f"error: {message}\n")
    assert not output.exists()


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


def test_the_slot_limit_truncates_grow_as_the_budget_does(capsys, monkeypatch):
    # the face layers at r = 7 have 6, 60, 216 and 630 slots
    monkeypatch.setattr(mesh, "MAX_SLOTS", 629)
    code, out, err = run_cli(capsys, "grow", "-r", "7", "-n", "5", "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["truncated_at_budget"] is True and report["all_match"] is True
    assert [rec["layer"] for rec in report["layers"] if rec["explicit"] is not None] == [0, 1, 2]
    assert [rec["match"] for rec in report["layers"][3:]] == [None, None, None]


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
        layers = list(report["layers"])  # an iterator, read once
        explicit = [rec["layer"] for rec in layers if rec["explicit"] is not None]
        assert disk.layer_index == explicit[-1]
        assert str(disk.graph.vertex_count) == layers[explicit[-1]]["explicit"]["v"]


@pytest.mark.parametrize(
    "argv, env, shown",
    [(["grow", "-r", "7", "--budget", "0"], None, "0"),
     (["verify", "-r", "7", "--budget", "-5"], None, "-5"),
     (["grow", "-r", "7"], "0", "0")],
    ids=["grow-flag", "verify-flag", "grow-env"],
)
def test_a_budget_below_one_is_refused_before_the_output_opens(
    capsys, monkeypatch, tmp_path, argv, env, shown
):
    if env is not None:
        monkeypatch.setenv("MESHSUM_BUDGET", env)
    report = tmp_path / "report.json"
    assert run_cli(capsys, *argv, "-o", str(report)) == (
        2, "", f"error: budget must be positive, got {shown}\n"
    )
    assert not report.exists()


_OFF_AT_LAYER_2 = {  # each flag's measurement, and that measurement one off
    "match": ("count_explicit", lambda counts: dataclasses.replace(counts, v=counts.v + 1)),
    "census_match": ("layer_census", lambda census: dataclasses.replace(census, a=census.a + 1)),
}


@pytest.mark.parametrize("flag", list(_OFF_AT_LAYER_2))
def test_grow_fails_a_layer_that_misses_its_prediction(capsys, monkeypatch, flag):
    """A count or census that misses its prediction at one layer fails that
    layer's flag, ``all_match`` and the exit code, and the table says so."""
    name, off = _OFF_AT_LAYER_2[flag]
    measure = getattr(mesh, name)
    monkeypatch.setattr(
        mesh, name, lambda disk: off(measure(disk)) if disk.layer_index == 2 else measure(disk)
    )
    code, out, err = run_cli(capsys, "grow", "-r", "7", "-n", "3", "--json")
    report = json.loads(out)
    assert (code, err, report["all_match"]) == (1, "", False)
    failed = [[rec[key] is False for key in _OFF_AT_LAYER_2] for rec in report["layers"]]
    assert failed == [[False, False], [False, False], [key == flag for key in _OFF_AT_LAYER_2],
                      [False, False]]
    code, out, err = run_cli(capsys, "grow", "-r", "7", "-n", "3")
    rows = out.splitlines()[1:5]
    assert (code, err) == (1, "")
    assert [row.split()[-1] for row in rows] == ["ok", "ok", "MISMATCH", "ok"]


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


@pytest.mark.parametrize("text", ["[1, 2]", "7"])
def test_render_refuses_disk_json_that_is_not_an_object(capsys, tmp_path, text):
    disk = tmp_path / "d.json"
    disk.write_text(text)
    assert run_cli(capsys, "render", str(disk)) == (
        2, "", "error: disk JSON must be an object\n"
    )
    assert not (tmp_path / "d.svg").exists()


@pytest.mark.parametrize("layers", [0, 1])
def test_render_rejects_a_closed_surface_beside_the_disk(capsys, tmp_path, layers):
    # it passes every other check of validate_disk
    host = mesh.grow(mesh.seed_face(18), layers)
    disk = tmp_path / "d.json"
    disk.write_bytes(mesh.disk_json(beside_k19(host)))
    assert run_cli(capsys, "render", str(disk)) == (
        2, "", "error: malformed disk: euler-characteristic: v - e + f = -37 != 1\n"
    )
    assert not (tmp_path / "d.svg").exists()


def test_render_reports_deeply_nested_json_as_malformed(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "render", str(deep))
    assert (code, out) == (2, "")
    assert err == "error: disk JSON nests too deeply\n"
    assert not (tmp_path / "deep.svg").exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
@pytest.mark.parametrize("command", ["grow", "verify"])
def test_a_budget_past_memory_exits_2_with_one_line(tmp_path, command):
    # the child imports numpy and meshsum first and only then caps its address
    # space, at 300 MB above what it has mapped, so the import's size is no matter
    child = "\n".join([
        "import resource, sys",
        "import meshsum.cli, meshsum.verify",
        "mapped = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize()",
        "resource.setrlimit(resource.RLIMIT_AS, (mapped + 300 * 2**20,) * 2)",
        "sys.exit(meshsum.cli.main(sys.argv[1:]))",
    ])
    report = tmp_path / "report.json"
    argv = [command, "-r", "7", "-n", "40", "--budget", "20000000", "--json", "-o", str(report)]
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    result = subprocess.run(
        [sys.executable, "-c", child, *argv], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("error: r=7 seed=face layer=")
    assert result.stderr.endswith(": out of memory, lower --budget\n")
    assert result.stderr.count("\n") == 1
    assert not report.exists()


def test_a_bare_memory_error_exits_2_with_its_name(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError  # as the interpreter raises it: no message

    monkeypatch.setattr("meshsum.cli.growth_report", exhausted)
    assert run_cli(capsys, "grow", "-r", "7", "-n", "1") == (2, "", "error: MemoryError\n")


def test_render_writes_no_file_when_drawing_fails(capsys, monkeypatch, tmp_path):
    disk = tmp_path / "d.json"
    assert run_cli(capsys, "grow", "-r", "7", "-n", "2", "--emit-disk", str(disk))[0] == 0

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("meshsum.render.emit_svg", exhausted)
    assert run_cli(capsys, "render", str(disk)) == (2, "", "error: MemoryError\n")
    assert not (tmp_path / "d.svg").exists()


def test_render_refuses_to_overwrite_its_input(capsys, tmp_path):
    disk = tmp_path / "d.svg"  # disk JSON under the name render would write
    assert run_cli(capsys, "grow", "-r", "7", "-n", "2", "--emit-disk", str(disk))[0] == 0
    before = disk.read_bytes()
    link, hard = tmp_path / "link.json", tmp_path / "hard.json"
    link.symlink_to(disk)
    os.link(disk, hard)
    for target in (None, disk, link, hard):
        argv = [str(disk)] + (["-o", str(target)] if target else [])
        code, out, err = run_cli(capsys, "render", *argv)
        assert code == 2 and out == "" and "would overwrite" in err
        assert disk.read_bytes() == before
    assert run_cli(capsys, "render", str(disk), "-o", str(tmp_path / "d.out.svg"))[0] == 0


def test_grow_refuses_one_path_for_report_and_disk(capsys, tmp_path):
    path = tmp_path / "p.json"
    code, out, err = run_cli(
        capsys, "grow", "-r", "7", "-n", "2", "--emit-disk", str(path), "-o", str(path)
    )
    assert code == 2 and out == "" and "would overwrite" in err
    assert not path.exists()


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


def test_sum_rejects_bad_domains(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sum", "-r", "6")
    assert code == 2 and "degree" in err
    out_file = tmp_path / "s.json"
    code, out, err = run_cli(capsys, "sum", "-r", "5:9", "-o", str(out_file))
    assert (code, out) == (2, "") and "degree" in err
    assert not out_file.exists()
    code, _, err = run_cli(capsys, "sum", "-r", "7", "--seed", "3:7")
    assert code == 2
    code, _, err = run_cli(capsys, "sum", "-r", "7:9", "--seed", "3:6")
    assert code == 2 and "single degree" in err
    code, _, err = run_cli(capsys, "sum", "-r", "9:7")
    assert code == 2 and "range" in err


DEGREE_ERROR = "error: ambient degree must be an integer >= 7, got 6\n"


@pytest.mark.parametrize(
    "argv",
    [["grow"], ["predict"], ["predict", "--seed", "3:6"], ["sum"], ["sum", "--seed", "3:6"]],
    ids=["grow", "predict", "predict-seed", "sum", "sum-seed"],
)
def test_every_command_states_the_one_degree_rule(capsys, tmp_path, argv):
    output = tmp_path / "report.json"
    for form in ([], ["--json"], ["-o", str(output)]):
        assert run_cli(capsys, *argv, "-r", "6", *form) == (2, "", DEGREE_ERROR)
    assert not output.exists()


def test_render_refuses_a_layer_no_growth_reaches(capsys, tmp_path):
    # a disk grown k layers holds more than k slots, so its layer is at most MAX_SLOTS
    disk, svg = tmp_path / "disk.json", tmp_path / "disk.svg"
    face = mesh.disk_json(mesh.seed_face(7))
    for layer in (mesh.MAX_SLOTS + 1, 10**30):
        disk.write_bytes(face.replace(b'"layer": 0', b'"layer": %d' % layer))
        assert run_cli(capsys, "render", str(disk)) == (
            2, "", f"error: 'layer' must be at most {mesh.MAX_SLOTS}\n"
        )
        assert not svg.exists()
    disk.write_bytes(face.replace(b'"layer": 0', b'"layer": %d' % mesh.MAX_SLOTS))
    assert run_cli(capsys, "render", str(disk))[0] == 0 and svg.exists()


def test_render_states_the_one_degree_rule_and_verify_its_own_range(capsys, tmp_path):
    disk = tmp_path / "disk.json"
    disk.write_bytes(mesh.disk_json(mesh.seed_face(7)).replace(b'"r": 7,', b'"r": 6,'))
    assert run_cli(capsys, "render", str(disk)) == (2, "", DEGREE_ERROR)
    assert not (tmp_path / "disk.svg").exists()
    assert run_cli(capsys, "verify", "-r", "6") == (
        2, "", "error: verification degrees must lie within 7..1000\n"
    )


def test_sum_refuses_more_than_max_sum_degrees(capsys, monkeypatch, tmp_path):
    def written(*args):
        raise AssertionError("the report was written")

    out_file = tmp_path / "s.json"
    with monkeypatch.context() as patch:
        patch.setattr(cli, "invariants_report", written)
        for span in ("7:1000007", "7:" + "9" * 20):  # the second ran until it was killed
            assert run_cli(capsys, "sum", "-r", span, "-o", str(out_file)) == (
                2, "", f"error: -r spans more than 1000000 degrees: {span!r}\n"
            )
            assert not out_file.exists()
    monkeypatch.setattr(cli, "MAX_SUM_DEGREES", 3)
    assert run_cli(capsys, "sum", "-r", "7:9")[0] == 0
    assert run_cli(capsys, "sum", "-r", "7:10", "--json") == (
        2, "", "error: -r spans more than 3 degrees: '7:10'\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["grow", "-r", "007"], "degree must be an integer or lo:hi range, got '007'"),
        (["sum", "-r", "\u0667"], "degree must be an integer or lo:hi range, got '\u0667'"),
        (["sum", "-r", "7:+12"], "degree must be an integer or lo:hi range, got '7:+12'"),
        (["sum", "-r", " 7"], "degree must be an integer or lo:hi range, got ' 7'"),
        (["predict", "-r", "9", "--seed", "03:6"], "seed t:d must be integers, got '03:6'"),
        (["predict", "-r", "9", "--seed", "3:+6"], "seed t:d must be integers, got '3:+6'"),
        (["predict", "-r", "9", "--seed", " 3:6"], "seed t:d must be integers, got ' 3:6'"),
        (["predict", "-r", "7", "-n", "05"], "-n must be an integer, got '05'"),
        (["grow", "-r", "7", "--budget", "1e6"], "--budget must be an integer, got '1e6'"),
        (["verify", "-r", "7", "--trials", "+3"], "--trials must be an integer, got '+3'"),
        (["verify", "-r", "7", "--rng-seed", "-0"], "--rng-seed must be an integer, got '-0'"),
    ],
)
def test_a_command_line_integer_has_one_spelling(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_meshsum_budget_has_one_spelling(capsys, monkeypatch):
    monkeypatch.setenv("MESHSUM_BUDGET", "0100")
    code, out, err = run_cli(capsys, "grow", "-r", "7", "-n", "1")
    assert (code, out, err) == (2, "", "error: MESHSUM_BUDGET must be an integer, got '0100'\n")
    monkeypatch.setenv("MESHSUM_BUDGET", "100")
    assert run_cli(capsys, "grow", "-r", "7", "-n", "1")[0] == 0


def test_canonical_integers_pass_the_parser(capsys):
    code, _, err = run_cli(capsys, "predict", "-r", "9", "--seed=-3:6", "-n", "0")
    assert code == 2 and "boundary length t = -3" in err  # the seed's domain check speaks
    argv = ["-r", "7:8", "-n", "1", "--trials", "0", "--rng-seed", "-5", "--budget", "100"]
    assert run_cli(capsys, "verify", *argv)[0] == 0


def test_predict_custom_seed(capsys):
    code, out, _ = run_cli(capsys, "predict", "-r", "7", "--seed", "3:6", "-n", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["base"] == {"v": "3", "e": "3", "f": "1", "s": "0"}
    first = report["layers_predicted"][0]
    assert (first["a"], first["b"]) == ("9", "3")
    assert first["cum"]["v"] == "15"


@pytest.mark.parametrize(
    "argv", [["predict", "-r", "7", "-n", "30"], ["grow", "-r", "7", "-n", "30", "--budget", "1000"]]
)
def test_table_cells_stay_apart_when_a_count_overflows_its_column(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    header, *rows = out.splitlines()
    if argv[0] == "grow":
        assert rows.pop().startswith("invariants r=7:")
    assert len(rows) == (31 if argv[0] == "grow" else 30)
    assert any(cell.isdigit() and len(cell) > 13 for row in rows for cell in row.split())
    assert all(len(row.split()) == len(header.split()) for row in rows)


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


def test_verify_refuses_too_many_trials_before_opening_the_output(capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("a degree was verified")

    monkeypatch.setattr(verify, "verify_degree", refuse)
    report = tmp_path / "f.json"
    code, out, err = run_cli(
        capsys, "verify", "-r", "7", "-n", "1", "--trials", "1000001", "-o", str(report)
    )
    assert (code, out, err) == (2, "", "error: trials must be at most 1000000, got 1000001\n")
    assert not report.exists()


def test_verify_says_how_many_violations_it_left_out(capsys, monkeypatch):
    report = {
        "checks": {"euler-layer": {"pass": 0, "fail": 25}},
        "violations": [f"euler-layer: case {i}" for i in range(25)],
        "all_pass": False,
    }
    monkeypatch.setattr(verify, "run_verification", lambda *args, **kwargs: report)
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


@pytest.mark.parametrize("argv", [["-n", "0"], ["-n", "6", "--budget", "3"]])
def test_verify_fails_a_census_fault_that_corrupts_nothing(capsys, argv):
    # neither run measures face layer 1, the only layer the census fault corrupts
    code, out, _ = run_cli(
        capsys, "verify", "-r", "7", *argv, "--trials", "5", "--inject-fault", "census", "--json"
    )
    assert code == 1
    report = json.loads(out)
    assert report["violations"] == ["inject-fault: r=7: the census fault corrupted no check"]
    assert report["checks"]["inject-fault"] == {"pass": 0, "fail": 1}
    assert report["all_pass"] is False


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


CONTRADICTION = "new boundary vertex 30 has degree 5, expected 3 or 4"


def _fail_face_layer_2(monkeypatch, how: str) -> None:
    """Make layer 2 of the r = 7 face seed fail measurement: a census
    contradiction, or a disk corrupted as ``_corrupt`` does it."""
    census, expand = mesh.layer_census, mesh.expand

    def contradicting_census(disk):  # the vertex seed's layer 2 has 21 boundary vertices
        if (disk.ambient_degree, disk.layer_index, len(disk.boundary)) == (7, 2, 33):
            raise mesh.CensusContradiction(CONTRADICTION)
        return census(disk)

    def corrupting_expand(disk, budget=mesh.DEFAULT_VERTEX_BUDGET):
        grown = expand(disk, budget)
        if (grown.ambient_degree, grown.layer_index, len(disk.boundary)) == (7, 2, 12):
            return _corrupt(grown, how)
        return grown

    if how == "census":
        monkeypatch.setattr(mesh, "layer_census", contradicting_census)
    else:
        monkeypatch.setattr(mesh, "expand", corrupting_expand)


def test_verify_reports_a_census_contradiction_once(capsys, monkeypatch):
    _fail_face_layer_2(monkeypatch, "census")
    code, out, _ = run_cli(capsys, "verify", "-r", "7", "-n", "4", "--trials", "1", "--json")
    assert code == 1
    report = json.loads(out)
    # the face seed stops at layer 2, so no stale census-recursion check follows
    assert report["violations"] == [f"census-degrees: r=7 seed=face layer=2: {CONTRADICTION}"]
    assert report["checks"]["census-degrees"] == {"pass": 5, "fail": 1}
    assert report["checks"]["census-recursion"] == {"pass": 2, "fail": 0}


@pytest.mark.parametrize(
    "how, detail",
    [("drop", "symmetry: edge (1, 0) has no reverse entry"), ("census", CONTRADICTION)],
)
def test_grow_exits_1_when_a_layer_fails_measurement(capsys, monkeypatch, tmp_path, how, detail):
    _fail_face_layer_2(monkeypatch, how)
    report, disk = tmp_path / "report.json", tmp_path / "disk.json"
    code, out, err = run_cli(
        capsys, "grow", "-r", "7", "-n", "4", "-o", str(report), "--emit-disk", str(disk)
    )
    assert code == 1
    assert err == f"error: r=7 seed=face layer=2: {detail}\n"
    assert out == ""
    assert not report.exists() and not disk.exists()


@contextlib.contextmanager
def _int_max_str_digits(limit: int):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no integer digit limit before 3.10.7"
)


@needs_digit_limit
def test_predict_past_the_digit_limit_matches_the_reference(capsys):
    # the last layers' counts have about 900 digits
    with _int_max_str_digits(640):
        code, out, err = run_cli(capsys, "predict", "-r", "1000", "-n", "300", "--json")
        assert (code, err) == (0, "")
        assert out == reference_prediction_json(SeedDescriptor(1000, 3, 6), 300)
        assert sys.get_int_max_str_digits() == 640


@needs_digit_limit
@pytest.mark.parametrize(
    "seed, budget, n_built",
    [("face", 2000, 1), ("face", 10**6, 2), ("vertex", 2000, 2), ("vertex", 10**6, 3)],
)
def test_grow_past_the_digit_limit_predicts_every_layer(capsys, seed, budget, n_built):
    # r = 1000 grows layers 0..n_built-1 under the budget; the rest up to 300 are
    # analytic only, and the last layers' counts have about 900 digits
    with _int_max_str_digits(640):
        code, out, err = run_cli(
            capsys, "grow", "-r", "1000", "--seed", seed, "-n", "300",
            "--budget", str(budget), "--json",
        )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["truncated_at_budget"] is True and report["all_match"] is True
    built = [rec["explicit"] is not None for rec in report["layers"]]
    assert built == [True] * n_built + [False] * (301 - n_built)
    base_layer = 0 if seed == "face" else 1
    expected = json.loads(
        reference_prediction_json(seed_descriptor_for(seed, 1000), 300 - base_layer)
    )
    predicted = [rec["predicted"] for rec in report["layers"][base_layer + 1 :]]
    assert predicted == expected["layers_predicted"]


@needs_digit_limit
def test_a_seed_past_the_digit_limit_is_read_and_written_in_full(capsys):
    t = 10**699 + 7  # 700 digits: a valid r = 7 profile with d = 2t
    seed = SeedDescriptor(7, t, 2 * t)
    profile = {"t": str(t), "d": str(2 * t)}
    text = f"{profile['t']}:{profile['d']}"
    with _int_max_str_digits(640):
        code, out, err = run_cli(capsys, "predict", "-r", "7", "--seed", text, "-n", "2", "--json")
        assert (code, err) == (0, "")
        assert out == reference_prediction_json(seed, 2)
        code, out, err = run_cli(capsys, "predict", "-r", "7", "--seed", text, "-n", "2")
        assert (code, err, len(out.splitlines())) == (0, "", 3)
        code, out, err = run_cli(capsys, "sum", "-r", "7", "--seed", text, "--json")
        assert (code, err) == (0, "")
        entry = json.loads(out)["degrees"][0]
        assert entry["seed_descriptor"] == profile and entry["seed_match"] is True
        assert sys.get_int_max_str_digits() == 640


@needs_digit_limit
@pytest.mark.parametrize(
    "text, message",
    [
        ("x" + "7" * 5000 + ":1", "seed t:d must be integers, got 'x777"),
        ("7" * 5000, "seed must be 'vertex', 'face', or t:d, got '777"),
        ("7" * 5000 + ":1", "degree sum d = 1 outside [1555"),
        ("-" + "7" * 5000 + ":1", "boundary length t = -777"),
    ],
    ids=["not-an-integer", "no-colon", "bad-profile", "negative"],
)
def test_a_long_bad_seed_gets_a_short_message(capsys, text, message):
    for command in ("predict", "sum"):
        with _int_max_str_digits(640):
            code, out, err = run_cli(capsys, command, "-r", "7", f"--seed={text}")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and len(err) < 300, err[:300]


PAST_THE_LIMIT = "1" + "0" * 640  # 641 digits, one past the lowest limit the interpreter takes


@needs_digit_limit
@pytest.mark.parametrize("mode", ["table", "json", "output"])
@pytest.mark.parametrize(
    "name, argv",
    [
        ("--budget", ["grow", "-r", "7", "-n", "1", "--budget", PAST_THE_LIMIT]),
        ("--budget", ["verify", "-r", "7", "-n", "1", "--budget", PAST_THE_LIMIT]),
        ("MESHSUM_BUDGET", ["grow", "-r", "7", "-n", "1"]),
        ("-n", ["grow", "-r", "7", "-n", PAST_THE_LIMIT]),
        ("-n", ["predict", "-r", "7", "-n", PAST_THE_LIMIT]),
        ("-n", ["verify", "-r", "7", "-n", PAST_THE_LIMIT]),
        ("-r", ["grow", "-r", PAST_THE_LIMIT]),
        ("-r", ["predict", "-r", PAST_THE_LIMIT]),
        ("-r", ["predict", "-r", "7:" + PAST_THE_LIMIT]),
        ("-r", ["sum", "-r", PAST_THE_LIMIT]),
        ("--trials", ["verify", "-r", "7", "-n", "1", "--trials", "-" + PAST_THE_LIMIT]),
        ("--rng-seed", ["verify", "-r", "7", "-n", "1", "--rng-seed", PAST_THE_LIMIT]),
    ],
    ids=["grow-budget", "verify-budget", "env-budget", "grow-n", "predict-n", "verify-n",
         "grow-r", "predict-r", "predict-r-range", "sum-r", "trials", "rng-seed"],
)
def test_an_integer_past_the_digit_limit_is_refused_before_the_run(
    capsys, monkeypatch, tmp_path, name, argv, mode
):
    if name == "MESHSUM_BUDGET":
        monkeypatch.setenv(name, PAST_THE_LIMIT)
    output = tmp_path / "out.json"
    argv = argv + {"table": [], "json": ["--json"], "output": ["-o", str(output)]}[mode]
    with _int_max_str_digits(640):
        result = run_cli(capsys, *argv)
    shown = f"'{PAST_THE_LIMIT[:39]}... (643 characters)"
    if name == "--trials":
        shown = f"'-{PAST_THE_LIMIT[:38]}... (644 characters)"
    message = f"error: {name} has more than 640 digits, the interpreter's limit: {shown}\n"
    assert result == (2, "", message)
    assert not output.exists()


def test_a_degree_range_past_sys_maxsize_is_still_a_range(capsys):
    huge = "7:" + "9" * 30
    assert run_cli(capsys, "predict", "-r", huge) == (
        2, "", "error: this command takes a single degree, not a range\n"
    )
    assert run_cli(capsys, "sum", "-r", huge, "--seed", "3:6") == (
        2, "", "error: --seed needs a single degree, not a range\n"
    )


@needs_digit_limit
@pytest.mark.parametrize(
    "degree",
    ["x:" + PAST_THE_LIMIT, PAST_THE_LIMIT + ":x", PAST_THE_LIMIT + ":" + PAST_THE_LIMIT + "0"],
    ids=["bad-lo-long-hi", "long-lo-bad-hi", "both-long"],
)
def test_both_ends_of_a_degree_range_are_length_checked_before_either_is_parsed(capsys, degree):
    # an end past the limit is named before a bad end is parsed; lo first if both are
    with _int_max_str_digits(640):
        result = run_cli(capsys, "predict", "-r", degree)
    shown = f"'{PAST_THE_LIMIT[:39]}... (643 characters)"
    assert result == (2, "", f"error: -r has more than 640 digits, the interpreter's limit: {shown}\n")


def test_an_empty_degree_range_is_refused_before_a_seed_asks_for_one_degree(capsys):
    assert run_cli(capsys, "sum", "-r", "8:7", "--seed", "face") == (
        2, "", "error: empty degree range '8:7'\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["sum", "-r", "y" * 3000],
        ["predict", "-r", "y" * 3000],
        ["sum", "-r", "9" * 3000 + ":8"],
        ["grow", "-r", "7", "--seed", "y" * 3000],
    ],
    ids=["sum-r", "predict-r", "empty-range", "grow-seed"],
)
def test_a_long_argument_is_cut_in_its_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 200
    assert "... (300" in err  # the length of what was cut


@given(
    st.integers(min_value=7, max_value=1000).flatmap(
        lambda r: st.tuples(cli_seeds(r), st.integers(min_value=1, max_value=300))
    ),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_streamed_predict_report_matches_the_reference(case, to_file):
    (text, seed), n = case
    argv = ["predict", "-r", str(seed.r), "--seed", text, "-n", str(n)]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out:
        path = os.path.join(tmp, "report.json")
        assert main(argv + (["-o", path] if to_file else ["--json"])) == 0
        if to_file:
            with open(path, encoding="utf-8", newline="") as fh:
                written = fh.read()
            assert out.getvalue() == f"wrote {path}\n"
        else:
            written = out.getvalue()
    assert written == reference_prediction_json(seed, n)


@given(
    st.integers(min_value=7, max_value=10**60),
    st.integers(min_value=0, max_value=49),
    st.booleans(),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_sum_json_matches_the_whole_report_dict(lo, width, seeded, data):
    degrees = range(lo, lo + 1 if seeded else lo + width + 1)
    argv = ["sum", "-r", f"{lo}:{degrees[-1]}", "--json"]
    seed = None
    if seeded:  # --seed takes a single degree
        text, seed = data.draw(cli_seeds(lo))
        argv += ["--seed", text]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    assert out.getvalue() == reference_invariants_json(degrees, seed)


@needs_digit_limit
def test_sum_and_grow_write_invariants_past_the_digit_limit(capsys, tmp_path):
    # r has as many digits as the limit allows, and e_M = -3r/(r - 6), reduced
    # only by 2, has one more in its numerator
    text = "7" + "0" * 4299
    r = int_from_text(text)
    e_m = Fraction(-3 * r, r - 6)
    with _int_max_str_digits(4300):
        code, out, err = run_cli(capsys, "sum", "-r", text, "--json")
        assert (code, err) == (0, "")
        assert out == reference_invariants_json([r], None)
        eM = json.loads(out)["degrees"][0]["eM"]
        assert Fraction(int_from_text(eM["num"]), int_from_text(eM["den"])) == e_m
        for argv in (["sum", "-r", text, "--seed", "face"], ["grow", "-r", text, "-n", "0"]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            num, den = out.rsplit(" eM=", 1)[1].split(" ", 1)[0].split("/")
            assert Fraction(int_from_text(num), int_from_text(den)) == e_m, argv
        path = tmp_path / "f.json"
        assert run_cli(capsys, "sum", "-r", text, "-o", str(path)) == (0, f"wrote {path}\n", "")
        assert path.read_text(encoding="utf-8") == reference_invariants_json([r], None)


@given(
    st.integers(min_value=7, max_value=1000).flatmap(
        lambda r: st.tuples(cli_seeds(r), st.integers(min_value=1, max_value=60))
    )
)
@settings(max_examples=30, deadline=None)
def test_the_predict_table_matches_the_reference(case):
    (text, seed), n = case
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["predict", "-r", str(seed.r), "--seed", text, "-n", str(n)]) == 0
    rows = [tuple(map(int, row.split())) for row in out.getvalue().splitlines()[1:]]
    assert rows == [layer[:6] for layer in reference_layers(seed, n)]


def test_the_predict_table_converts_only_the_cells_it_prints(capsys, monkeypatch):
    calls = []
    real = report.int_to_json
    monkeypatch.setattr(report, "int_to_json", lambda x: calls.append(x) or real(x))
    code, out, _ = run_cli(capsys, "predict", "-r", "9", "-n", "20")
    assert code == 0 and len(out.splitlines()) == 21
    # b of layer 1 is the seed's t, and b of each later layer is the dv before it
    assert len(calls) == 1 + 4 * 20


def test_predict_rejects_a_bad_layer_count_before_opening_the_output(capsys, tmp_path):
    report = tmp_path / "report.json"
    for n in ("0", "10001"):
        code, out, err = run_cli(capsys, "predict", "-r", "7", "-n", n, "-o", str(report))
        assert code == 2 and out == "" and "n_max must be in [1, 10000]" in err
        assert not report.exists()


def test_grow_writes_no_disk_when_the_report_cannot_be_written(capsys, tmp_path):
    disk = tmp_path / "d.json"
    code, out, err = run_cli(
        capsys, "grow", "-r", "7", "-n", "2", "--emit-disk", str(disk),
        "-o", str(tmp_path / "nodir" / "r.json"),
    )
    assert code == 2 and out == "" and err.startswith("error:")
    assert not disk.exists()


def test_sum_streams_a_wide_degree_span():
    # built as one dict before its first byte was written, this report peaked at about 70 MiB
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["sum", "-r", "7:20000", "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2**20


@pytest.mark.parametrize("form", [["--json"], []])
def test_grow_streams_its_analytic_layers(form):
    # built as one dict before its first byte was written, this report peaked at
    # about 19.5 MiB as JSON and 11.5 MiB as a table
    argv = ["grow", "-r", "1000", "-n", "600", "--budget", "2000", *form]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2**20


@given(
    st.sampled_from([7, 8, 9, 10, 11, 12, 50, 1000]),
    st.sampled_from(["face", "vertex"]),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=5000),
)
@settings(max_examples=40, deadline=None)
def test_streamed_grow_report_matches_the_materialised_report(r, seed, n, budget):
    report, _ = growth_report(r, seed, n, budget)
    whole = canonical_json({**report, "layers": list(report["layers"])})
    argv = ["grow", "-r", str(r), "--seed", seed, "-n", str(n), "--budget", str(budget), "--json"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    assert out.getvalue() == whole


@pytest.mark.parametrize("budget", [2, 2000])
@pytest.mark.parametrize("seed", ["face", "vertex"])
@pytest.mark.parametrize("r", [7, 12, 1000])
def test_grow_writes_its_analytic_only_layers_as_the_textbook_loop(capsys, r, seed, budget):
    # budget 2 builds layer 0 alone, so the vertex seed's {"n": null} base record
    # (its fan, layer 1) is analytic only too
    n = 12
    descriptor = seed_descriptor_for(seed, r)
    base_layer = 0 if seed == "face" else 1
    base = counts_from_boundary(descriptor)
    want = {base_layer: ({"n": None, "cum": {k: str(getattr(base, k)) for k in "vefs"}}, "-")}
    for k, a, b, dv, de, df, v, e, f, s in reference_layers(descriptor, n - base_layer):
        cum = {"v": str(v), "e": str(e), "f": str(f), "s": str(s)}
        pred = {"n": k, "a": str(a), "b": str(b), "dv": str(dv), "de": str(de), "df": str(df)}
        want[k + base_layer] = ({**pred, "cum": cum}, f"({a},{b})")
    argv = ["grow", "-r", str(r), "--seed", seed, "-n", str(n), "--budget", str(budget)]
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    analytic = [rec for rec in json.loads(out)["layers"] if rec["explicit"] is None]
    first = n + 1 - len(analytic)
    assert first == 1 if budget == 2 else 1 <= first < n
    for k, rec in enumerate(analytic, first):
        assert rec == {"layer": k, "explicit": None, "census": None, "predicted": want[k][0],
                       "match": None, "census_match": None}
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = out.splitlines()[1:-1]
    assert len(rows) == n + 1
    for k, row in enumerate(rows[first:], first):
        pred, census = want[k]
        assert row.split() == [str(k), *(pred["cum"][key] for key in "vefs"), census, "analytic"]


def test_report_json_round_trips_bytes(capsys):
    _, out, _ = run_cli(capsys, "verify", "-r", "7", "-n", "2", "--trials", "5", "--json")
    assert out == canonical_json(json.loads(out))
    for argv in (["-r", "7:300"], ["-r", "1000", "--seed", "vertex"], ["-r", "9", "--seed", "5:14"]):
        _, out, _ = run_cli(capsys, "sum", *argv, "--json")
        assert out == canonical_json(json.loads(out))


def test_sum_writes_a_seed_mismatch_canonically(capsys, monkeypatch):
    monkeypatch.setattr(
        "meshsum.report.mesh_invariants_from_seed", lambda seed: mesh_invariants(8)
    )
    code, out, _ = run_cli(capsys, "sum", "-r", "7", "--seed", "3:6", "--json")
    assert code == 1
    assert out == canonical_json(json.loads(out))
    assert json.loads(out)["degrees"][0]["seed_match"] is False


def test_the_tables_write_a_failed_invariant_check_in_words(capsys, monkeypatch):
    monkeypatch.setattr("meshsum.report.euler_formula_check", lambda inv: False)
    monkeypatch.setattr(
        "meshsum.report.mesh_invariants_from_seed", lambda seed: mesh_invariants(8)
    )
    line = "r=10: vM=-3/2 eM=-15/2 fM=-5 euler=BROKEN"
    assert run_cli(capsys, "sum", "-r", "10") == (0, line + "\n", "")
    assert run_cli(capsys, "sum", "-r", "10", "--seed", "vertex") == (
        1, line + " seed=MISMATCH\n", ""
    )
    code, out, _ = run_cli(capsys, "grow", "-r", "10", "-n", "1")
    assert (code, out.splitlines()[-1]) == (1, f"invariants {line} seed=MISMATCH")


def test_an_invariants_report_with_no_degrees_is_canonical():
    out = io.StringIO()
    assert report.invariants_report([], None, out) is True
    assert out.getvalue() == canonical_json(
        {"schema_version": "meshsum/1", "kind": "invariants-report", "all_match": True,
         "degrees": []}
    )


def test_version_and_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["grow"])  # missing -r
    assert exc.value.code == 2
