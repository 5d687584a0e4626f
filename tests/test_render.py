from __future__ import annotations

import json
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsum import (
    CombinatorialDisk,
    DiskLayout,
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
from meshsum.mesh import _CHUNK, disk_json
from meshsum.render import CANVAS
from meshsum.textcells import fixed2_cells, int_cells, row, text
from support import (
    beside_k19,
    convex_disks,
    reference_disk_json,
    reference_disk_to_json_obj,
    reference_emit_svg,
    reference_layout_disk,
)

CIRCLE = re.compile(rb"<circle ")
LINE = re.compile(rb"<line ")


def counts_in_svg(svg: bytes) -> tuple[int, int]:
    return len(CIRCLE.findall(svg)), len(LINE.findall(svg))


def test_fan_layout_rings():
    fan = expand(seed_vertex(7))
    layout = layout_disk(fan)
    assert layout.ring[0] == 0
    assert layout.ring[1:].tolist() == [1] * 7
    cx, cy = layout.positions[0]
    assert (cx, cy) == (500.0, 500.0)
    radii = {
        round(math.hypot(x - cx, y - cy), 6) for x, y in layout.positions[1:]
    }
    assert len(radii) == 1  # all boundary vertices share one circle


def test_face_seed_sits_on_ring_one():
    layout = layout_disk(seed_face(7))
    assert layout.ring.tolist() == [1, 1, 1]
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
    assert b'cx="500.00" cy="500.00"' in svg


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


def _assert_same_layout(got: DiskLayout, want: DiskLayout) -> None:
    # bytes, not values: -0.0 and 0.0 format differently
    assert got.positions.dtype == np.float64 and got.positions.shape == want.positions.shape
    assert got.positions.tobytes() == want.positions.tobytes()
    assert got.ring.dtype == np.int64 and got.ring.tolist() == want.ring.tolist()
    assert not got.positions.flags.writeable and not got.ring.flags.writeable


@given(
    r=st.integers(min_value=7, max_value=20),
    kind=st.sampled_from(["face", "vertex"]),
    layer=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=40, deadline=None)
def test_layout_matches_the_reference(r, kind, layer):
    # the last layer up to ``layer`` under the budget, grown and loaded back
    *_, measured = measured_layers(r, kind, layer, budget=20_000)
    disk = measured.disk
    loaded = disk_from_json_obj(json.loads(disk_json(disk)))
    for d in (disk, loaded):
        _assert_same_layout(layout_disk(d), reference_layout_disk(d))


def _layout_or_error(layout, disk: CombinatorialDisk):
    try:
        return layout(disk)
    except LayoutError:
        return LayoutError


@given(convex_disks())
@settings(max_examples=40, deadline=None)
def test_layout_of_a_relabelled_disk_matches_the_reference(disk):
    # a relabelling keeps contiguous layers only by chance; both sides must agree
    got, want = _layout_or_error(layout_disk, disk), _layout_or_error(reference_layout_disk, disk)
    if want is LayoutError:
        assert got is LayoutError
    else:
        _assert_same_layout(got, want)


@pytest.mark.parametrize("extra", ["repeat", "outside", "negative"])
def test_layout_rejects_a_boundary_it_cannot_peel(extra):
    disk = grow(seed_face(7), 2)
    w = disk.boundary.tolist()
    w += {"repeat": [w[0]], "outside": [disk.graph.vertex_count], "negative": [-1]}[extra]
    bad = CombinatorialDisk(disk.graph, 7, w, 2)
    for layout in (layout_disk, reference_layout_disk):
        with pytest.raises(LayoutError):
            layout(bad)


@pytest.mark.parametrize(
    "disk, message",
    [
        (CombinatorialDisk(RotationGraph([[1, 2], [2, 0], [0, 5]]), 7, (0, 1, 2), 0),
         "id-range: vertex 2 lists an out-of-range neighbor"),
        (CombinatorialDisk(RotationGraph([[1, 2], [2, 0], [0, 1], []]), 7, (0, 1, 2), 0),
         "interior-degree: interior vertex 3 has degree 0 != 7"),
        (beside_k19(seed_face(18)), "euler-characteristic: v - e + f = -37 != 1"),
        (beside_k19(expand(seed_face(18))), "euler-characteristic: v - e + f = -37 != 1"),
    ],
    ids=["id-past-the-disk", "isolated-vertex", "k19-beside-the-seed", "k19-beside-layer-1"],
)
def test_layout_rejects_a_disk_it_cannot_peel(disk, message):
    # validate_disk's first violation, in the words `meshsum render` prints
    with pytest.raises(LayoutError, match=f"^{re.escape('malformed disk: ' + message)}$"):
        layout_disk(disk)


def test_layout_peaks_under_a_bound_per_vertex():
    # the per-vertex loop and its tuples peaked at 142 traced bytes per vertex,
    # the whole-array layout at 56
    disk = grow(seed_face(7), 9)
    tracemalloc.start()
    try:
        layout_disk(disk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 70 * disk.graph.vertex_count


def test_svg_header_and_canvas():
    svg = emit_svg(seed_face(7))
    assert svg.startswith(b'<?xml version="1.0"')
    assert b'viewBox="0 0 1000 1000"' in svg
    assert svg.endswith(b"</svg>\n")


def _assert_same(got: bytes, want: bytes) -> None:
    # a bare ``got == want`` would have pytest diff two megabyte texts on failure
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), len(got))
        around = slice(max(i - 60, 0), i + 60)
        pytest.fail(f"texts differ at offset {i}: {got[around]!r} != {want[around]!r}")


def _check_writers(disk: CombinatorialDisk) -> bytes:
    text = disk_json(disk)
    _assert_same(text, reference_disk_json(disk).encode("ascii"))
    layout = layout_disk(disk)
    _assert_same(emit_svg(disk, layout), reference_emit_svg(disk, layout).encode("ascii"))
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


BIG, LOW = 2**31 - 1, -(2**31)  # the widest ids a RotationGraph takes


@pytest.mark.parametrize(
    "rows, boundary",
    [
        ([], ()),
        ([[1, 5], [2, 0], [0, 1]], (0, 1, 2)),
        ([[1, -1], [2, 0], [0, 1]], (0, 1, 2)),
        ([[1, 2], [], [0, 1]], (0, 1, 2)),
        ([[], [], [0], []], ()),
        ([[BIG, LOW], [], [0, -7, 12]], (BIG, LOW, 0)),
        ([list(range(_CHUNK)), [], [0, 1]], (0,)),
        ([[0] * (_CHUNK - 1), [1, 2], [], [3]], ()),
        ([[7] * _CHUNK, []], list(range(_CHUNK + 1))),
    ],
)
def test_disk_json_matches_the_reference_on_disks_not_grown(rows, boundary):
    # no rows at all, empty rows between and around others, and ids outside
    # [0, nv) that no grown or loaded disk has, up to the int32 extremes; the
    # writer formats runs of whole rows of about _CHUNK slots, and the last
    # three cross a run boundary: an empty row opens the second run, a row
    # spans the boundary, and an empty last row is a run of its own
    disk = CombinatorialDisk(RotationGraph(rows), 7, boundary, 0)
    assert disk_json(disk) == reference_disk_json(disk).encode("ascii")


def _kernel_lines(cells: np.ndarray) -> list[str]:
    return text(row(len(cells), cells, b"\n")).decode("ascii").split("\n")[:-1]


# exact binary ties round half to even (0.125 -> 0.12, 0.375 -> 0.38); 2.675
# lies just below its tie (2.67), 999.995 just above (it carries to 1000.00); the
# smallest subnormal; -0.0 keeps its sign
FLOAT_EDGES = [0.125, 0.375, 2.675, 999.995, 0.0, 5e-324, CANVAS, -0.0, 0.005, 1 / 1024]


@given(st.lists(st.floats(min_value=0, max_value=CANVAS), max_size=40))
@settings(max_examples=300, deadline=None)
def test_fixed2_kernel_matches_python_formatting(xs):
    values = np.array(xs + FLOAT_EDGES)
    assert _kernel_lines(fixed2_cells(values)) == [f"{x:.2f}" for x in values.tolist()]


@given(st.lists(st.integers(min_value=-(2**31), max_value=2**31 - 1), max_size=40))
@settings(max_examples=300, deadline=None)
def test_int_kernel_matches_python_formatting(ns):
    values = np.array(ns + [-(2**31), 2**31 - 1, -1, 0, 9, 10, -10], dtype=np.int32)
    assert _kernel_lines(int_cells(values)) == [str(n) for n in values.tolist()]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -5.0, 2e6, CANVAS + 1e-9])
def test_svg_rejects_positions_off_the_canvas(bad):
    disk = seed_face(7)
    for positions in (((bad, 1.0), (1.0, 2.0), (3.0, 3.0)), ((1.0, 1.0), (2.0, 2.0), (3.0, bad))):
        with pytest.raises(LayoutError, match="canvas"):
            emit_svg(disk, DiskLayout(positions, (1, 1, 1)))


def test_svg_draws_the_canvas_edges_like_python_formatting():
    layout = DiskLayout(((0.0, CANVAS), (-0.0, 2.675), (999.995, 0.125)), (1, 1, 1))
    want = reference_emit_svg(seed_face(7), layout).encode("ascii")
    _assert_same(emit_svg(seed_face(7), layout), want)


def test_writers_peak_under_a_bound_per_slot():
    # traced bytes per slot: the first writers peaked at 95 (disk JSON) and 196
    # (SVG), the str-returning ones at 57 and 115, these at 22.0 and 76.3; each
    # holds its text once, as bytes, and formats it from chunk-sized scratch.
    # tracemalloc counts a BytesIO regrowth as old plus new, so most of what is
    # left over the text itself is its last regrowth; the bounds keep the render
    # workload's peak down
    disk = grow(seed_face(7), 10)
    layout = layout_disk(disk)
    slots = disk.graph.neighbors.size
    assert slots == 565_956
    peaks = []
    tracemalloc.start()
    try:
        disk_json(disk)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        emit_svg(disk, layout)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[0] < 24.2 * slots
    assert peaks[1] < 83.9 * slots
