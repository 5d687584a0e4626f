from __future__ import annotations

import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsum import (
    CombinatorialDisk,
    LayoutError,
    RotationGraph,
    count_explicit,
    disk_from_json_obj,
    emit_svg,
    expand,
    grow,
    layout_disk,
    measured_layers,
    seed_face,
    seed_vertex,
)
from meshsum.report import disk_json
from support import reference_disk_json, reference_disk_to_json_obj, reference_emit_svg

CIRCLE = re.compile(r"<circle ")
LINE = re.compile(r"<line ")


def counts_in_svg(svg: str) -> tuple[int, int]:
    return len(CIRCLE.findall(svg)), len(LINE.findall(svg))


def test_fan_layout_rings():
    fan = expand(seed_vertex(7))
    layout = layout_disk(fan)
    assert layout.ring[0] == 0
    assert layout.ring[1:] == (1,) * 7
    cx, cy = layout.positions[0]
    assert (cx, cy) == (500.0, 500.0)
    radii = {
        round(math.hypot(x - cx, y - cy), 6) for x, y in layout.positions[1:]
    }
    assert len(radii) == 1  # all boundary vertices share one circle


def test_face_seed_sits_on_ring_one():
    layout = layout_disk(seed_face(7))
    assert layout.ring == (1, 1, 1)
    assert all((x, y) != (500.0, 500.0) for x, y in layout.positions)


def test_radii_proportional_to_layer():
    disk = grow(seed_vertex(7), 3)
    layout = layout_disk(disk)
    by_ring: dict[int, float] = {}
    for (x, y), ring in zip(layout.positions, layout.ring):
        radius = math.hypot(x - 500.0, y - 500.0)
        by_ring.setdefault(ring, radius)
        assert radius == pytest.approx(by_ring[ring])
    assert by_ring[0] == pytest.approx(0.0)
    for k in range(1, 4):
        assert by_ring[k] == pytest.approx(k * by_ring[1])


def test_no_two_vertices_coincide():
    disk = grow(seed_face(8), 2)
    layout = layout_disk(disk)
    rounded = {(round(x, 4), round(y, 4)) for x, y in layout.positions}
    assert len(rounded) == disk.graph.vertex_count


def test_svg_element_counts_match_measured_counts():
    disk = grow(seed_face(7), 2)
    counts = count_explicit(disk)
    circles, lines = counts_in_svg(emit_svg(disk))
    assert (circles, lines) == (counts.v, counts.e) == (48, 108)


def test_svg_is_deterministic():
    disk = grow(seed_vertex(8), 2)
    assert emit_svg(disk) == emit_svg(disk)
    again = grow(seed_vertex(8), 2)
    assert emit_svg(again) == emit_svg(disk)


def test_degenerate_seed_renders_single_dot():
    svg = emit_svg(seed_vertex(9))
    assert counts_in_svg(svg) == (1, 0)
    assert 'cx="500.00" cy="500.00"' in svg


def test_emit_svg_rejects_layout_for_wrong_disk():
    small = expand(seed_vertex(7))
    big = expand(small)
    with pytest.raises(LayoutError):
        emit_svg(big, layout_disk(small))


def test_layout_from_json_matches_provenance_layout():
    # rings recovered by peeling are the id ranges each expansion created
    disk = seed_face(9)
    expected = [1, 1, 1]
    for ring in (2, 3):
        disk = expand(disk)
        expected += [ring] * len(disk.boundary)
    loaded = disk_from_json_obj(json.loads(json.dumps(reference_disk_to_json_obj(disk))))
    assert layout_disk(loaded) == layout_disk(disk)
    assert list(layout_disk(loaded).ring) == expected
    assert emit_svg(loaded) == emit_svg(disk)


def test_relabelled_disk_has_no_usable_provenance():
    fan = expand(seed_vertex(7))
    swap = {0: 3, 3: 0}
    perm = lambda v: swap.get(v, v)
    rotations: list[list[int]] = [[] for _ in fan.graph.rotations]
    for v, rot in enumerate(fan.graph.rotations):
        rotations[perm(v)] = [perm(u) for u in rot]
    shuffled = CombinatorialDisk(
        RotationGraph(rotations), 7, tuple(perm(w) for w in fan.boundary), 1
    )
    from meshsum import validate_disk

    assert validate_disk(shuffled) == []
    with pytest.raises(LayoutError):
        layout_disk(shuffled)


def test_svg_header_and_canvas():
    svg = emit_svg(seed_face(7))
    assert svg.startswith('<?xml version="1.0"')
    assert 'viewBox="0 0 1000 1000"' in svg
    assert svg.endswith("</svg>\n")


def _assert_same(got: str, want: str) -> None:
    # a bare ``got == want`` would have pytest diff two megabyte texts on failure
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), len(got))
        around = slice(max(i - 60, 0), i + 60)
        pytest.fail(f"texts differ at offset {i}: {got[around]!r} != {want[around]!r}")


def _check_writers(disk: CombinatorialDisk) -> str:
    text = disk_json(disk)
    _assert_same(text, reference_disk_json(disk))
    layout = layout_disk(disk)
    _assert_same(emit_svg(disk, layout), reference_emit_svg(disk, layout))
    return text


@given(
    r=st.one_of(st.integers(min_value=7, max_value=20), st.just(1000)),
    kind=st.sampled_from(["face", "vertex"]),
    layer=st.integers(min_value=0, max_value=8),
    shift_seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60, deadline=None)
def test_disk_json_and_svg_match_the_references(r, kind, layer, shift_seed):
    # the last layer up to ``layer`` under the budget: at r = 1000 that is layer 0 or 1
    *_, measured = measured_layers(r, kind, layer, budget=3000)
    text = _check_writers(measured.disk)
    _assert_same(disk_json(disk_from_json_obj(json.loads(text))), text)
    # the same rotation system with each row read from another start
    rng = random.Random(shift_seed)
    obj = json.loads(text)
    turned = []
    for row in obj["rotation"]:
        k = rng.randrange(len(row) + 1)
        turned.append(row[k:] + row[:k])
    obj["rotation"] = turned
    _check_writers(disk_from_json_obj(obj))


@pytest.mark.parametrize(
    "rows, boundary",
    [([], ()), ([[1, 5], [2, 0], [0, 1]], (0, 1, 2)), ([[1, -1], [2, 0], [0, 1]], (0, 1, 2))],
)
def test_disk_json_matches_the_reference_on_disks_not_grown(rows, boundary):
    # no rows at all, and ids outside [0, nv) that no grown or loaded disk has
    disk = CombinatorialDisk(RotationGraph(rows), 7, boundary, 0)
    assert disk_json(disk) == reference_disk_json(disk)
