from __future__ import annotations

import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsum import mesh
from meshsum import (
    BoundaryProfile,
    BudgetExceededError,
    CensusContradiction,
    CombinatorialDisk,
    ConvexityError,
    DeltaCounts,
    DiskCounts,
    LayerCensus,
    MalformedDiskError,
    RotationGraph,
    boundary_profile,
    convexity_bound,
    count_explicit,
    delta_counts,
    disk_from_json_obj,
    expand,
    grow,
    is_convex,
    layer_census,
    measured_layers,
    seed_face,
    seed_vertex,
    validate_disk,
)
from support import (
    convex_disks,
    pentagon_fan,
    reference_disk_to_json_obj,
    reference_expand,
    reference_face_lengths,
    reference_inspect,
    reference_validate_kinds,
)


def test_seed_face_shape():
    disk = seed_face(7)
    assert count_explicit(disk) == DiskCounts(3, 3, 1, 0)
    assert boundary_profile(disk) == BoundaryProfile(3, 6)
    assert is_convex(disk)
    assert validate_disk(disk) == []


def test_seed_vertex_is_degenerate():
    disk = seed_vertex(7)
    assert disk.is_degenerate
    assert count_explicit(disk) == DiskCounts(1, 0, 0, 1)
    assert validate_disk(disk) == []
    with pytest.raises(ValueError):
        boundary_profile(disk)
    with pytest.raises(ValueError):
        is_convex(disk)


def test_degree_domain():
    for bad in (6, 2, 0, -1):
        with pytest.raises(ValueError):
            seed_face(bad)
        with pytest.raises(ValueError):
            seed_vertex(bad)
    assert convexity_bound(7) == 4
    assert convexity_bound(8) == 5
    assert convexity_bound(9) == 5
    assert convexity_bound(12) == 7


@pytest.mark.parametrize("r", [7, 8, 11])
def test_first_expansion_of_vertex_is_full_fan(r):
    fan = expand(seed_vertex(r))
    assert count_explicit(fan) == DiskCounts(1 + r, 2 * r, r, 1)
    profile = boundary_profile(fan)
    assert profile == BoundaryProfile(r, 3 * r)
    assert validate_disk(fan) == []
    assert fan.layer_index == 1


def test_single_expansion_of_face_seed():
    disk = seed_face(7)
    grown = expand(disk)
    assert count_explicit(grown) == DiskCounts(15, 30, 16, 3)
    assert layer_census(disk, grown) == LayerCensus(9, 3)
    assert delta_counts(count_explicit(disk), count_explicit(grown)) == DeltaCounts(12, 27, 15)
    assert boundary_profile(grown).t == 12
    assert validate_disk(grown) == []


def test_double_expansion_face_seed_frozen_counts():
    d2 = grow(seed_face(7), 2)
    assert count_explicit(d2) == DiskCounts(48, 108, 61, 15)
    assert layer_census(grow(seed_face(7), 1), d2) == LayerCensus(21, 12)


def test_double_expansion_vertex_seed():
    fan = expand(seed_vertex(7))
    d2 = expand(fan)
    counts = count_explicit(d2)
    assert counts == DiskCounts(29, 63, 35, 8)
    assert counts.v - counts.e + counts.f == 1
    assert layer_census(fan, d2) == LayerCensus(14, 7)


def test_expand_is_pure():
    disk = seed_face(9)
    before = [list(rot) for rot in disk.graph.rotations]
    expand(disk)
    assert [list(rot) for rot in disk.graph.rotations] == before
    assert disk.boundary.tolist() == [0, 1, 2]


def test_new_boundary_is_id_range_in_order():
    disk = expand(seed_face(8))
    v_old = 3
    assert disk.boundary.tolist() == list(range(v_old, disk.graph.vertex_count))


def test_boundary_degrees_after_expansion():
    for r in (7, 8, 10):
        disk = grow(seed_face(r), 2)
        degs = np.diff(disk.graph.offsets)[disk.boundary].tolist()
        assert set(degs) <= {3, 4}


def test_convexity_bound_enforced():
    sharp = pentagon_fan(7)
    assert validate_disk(pentagon_fan(8)) == []
    assert not is_convex(sharp)
    assert is_convex(pentagon_fan(8))
    with pytest.raises(ConvexityError):
        expand(sharp)
    grown = expand(pentagon_fan(8))
    assert validate_disk(grown) == []
    assert count_explicit(grown).v - count_explicit(grown).e + count_explicit(grown).f == 1


def test_budget_is_enforced():
    with pytest.raises(BudgetExceededError) as err:
        expand(seed_face(7), budget=10)
    assert err.value.needed == 15
    assert err.value.budget == 10
    with pytest.raises(BudgetExceededError):
        expand(seed_vertex(7), budget=7)
    # exactly at the limit is fine
    assert count_explicit(expand(seed_face(7), budget=15)).v == 15


def test_census_contradiction_detected():
    disk = seed_face(7)
    grown = expand(disk)
    rotations = [list(rot) for rot in grown.graph.rotations]
    rotations[3].extend([8, 9])  # boundary vertex forced to degree 5
    doctored = CombinatorialDisk(RotationGraph(rotations), 7, grown.boundary, 1)
    with pytest.raises(CensusContradiction):
        layer_census(disk, doctored)


def test_layer_census_requires_consecutive_disks():
    disk = seed_face(7)
    d2 = grow(disk, 2)
    with pytest.raises(ValueError):
        layer_census(disk, d2)


def test_face_tracer_agrees_with_reference():
    for r in (7, 9):
        for seed in (seed_face(r), seed_vertex(r)):
            disk = seed
            for _ in range(3):
                disk = expand(disk)
                counts = count_explicit(disk)
                lengths = reference_face_lengths(disk.graph.rotations)
                t = len(disk.boundary)
                assert lengths == sorted([3] * counts.f + [t])
                assert sum(lengths) == 2 * counts.e


def test_malformed_nontriangular_face():
    # in the second square the inner face runs through the last slot of every row
    for rows in ([[1, 3], [2, 0], [3, 1], [0, 2]], [[3, 1], [0, 2], [1, 3], [2, 0]]):
        square = CombinatorialDisk(RotationGraph(rows), 7, (0, 1, 2, 3), 0)
        with pytest.raises(MalformedDiskError):
            count_explicit(square)
        kinds = {v.kind for v in validate_disk(square)}
        assert "face-structure" in kinds


def test_malformed_asymmetric_adjacency():
    disk = CombinatorialDisk(
        RotationGraph([[1, 2], [2], [0, 1]]), 7, (0, 1, 2), 0
    )
    kinds = {v.kind for v in validate_disk(disk)}
    assert "symmetry" in kinds
    with pytest.raises(MalformedDiskError):
        count_explicit(disk)


def test_malformed_reversed_boundary():
    grown = expand(seed_face(7))
    mirrored = CombinatorialDisk(grown.graph, 7, tuple(reversed(grown.boundary)), 1)
    assert mirrored != grown
    with pytest.raises(MalformedDiskError):
        count_explicit(mirrored)


def test_malformed_loop_and_duplicate():
    loopy = CombinatorialDisk(
        RotationGraph([[1, 2, 0], [2, 0], [0, 1]]), 7, (0, 1, 2), 0
    )
    assert any(v.kind == "loop" for v in validate_disk(loopy))
    dupe = CombinatorialDisk(
        RotationGraph([[1, 2, 1], [2, 0], [0, 1]]), 7, (0, 1, 2), 0
    )
    assert any(v.kind == "duplicate-neighbor" for v in validate_disk(dupe))


def test_interior_degree_checked():
    fan = expand(seed_vertex(7))
    wrong_ambient = CombinatorialDisk(fan.graph, 8, fan.boundary, 1)
    kinds = {v.kind for v in validate_disk(wrong_ambient)}
    assert "interior-degree" in kinds


def test_disk_json_round_trip():
    disk = grow(seed_face(7), 2)
    obj = reference_disk_to_json_obj(disk)
    text = json.dumps(obj)
    loaded = disk_from_json_obj(json.loads(text))
    assert loaded.graph.rotations == disk.graph.rotations
    assert loaded == disk
    assert loaded.ambient_degree == disk.ambient_degree
    assert loaded.layer_index == disk.layer_index
    assert count_explicit(loaded) == count_explicit(disk)


def test_disk_json_rejects_malformed():
    good = reference_disk_to_json_obj(seed_face(7))
    for mutate in (
        lambda o: o.pop("boundary"),
        lambda o: o.update(r="7"),
        lambda o: o.update(rotation=[[0.5]]),
        lambda o: o.update(rotation="nope"),
        lambda o: o.update(boundary=[0, "1", 2]),
        lambda o: o.update(r=True),
        lambda o: o.update(layer=False),
        lambda o: o.update(boundary=[0, True, 2]),
        lambda o: o.update(rotation=[[True, 2], [2, 0], [0, 1]]),
        lambda o: o.update(rotation=[[1, 5], [2, 0], [0, 1]]),
        lambda o: o.update(rotation=[[1, -1], [2, 0], [0, 1]]),
        lambda o: o.update(boundary=[0, 1, 3]),
        lambda o: o.update(boundary=[-1, 1, 2]),
    ):
        obj = json.loads(json.dumps(good))
        mutate(obj)
        with pytest.raises(MalformedDiskError):
            disk_from_json_obj(obj)
    with pytest.raises(ValueError):
        disk_from_json_obj(dict(good, r=6))


@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(min_value=7, max_value=13),
    kind=st.sampled_from(["face", "vertex"]),
    layers=st.integers(min_value=1, max_value=3),
)
def test_every_small_disk_is_valid(r, kind, layers):
    seed = seed_face(r) if kind == "face" else seed_vertex(r)
    disk = grow(seed, layers)
    assert validate_disk(disk) == []
    counts = count_explicit(disk)
    assert counts.v - counts.e + counts.f == 1
    profile = boundary_profile(disk)
    assert 3 * counts.f + profile.t == 2 * counts.e
    assert profile.d + r * counts.s == 2 * counts.e
    assert is_convex(disk)


@settings(max_examples=40, deadline=None)
@given(
    r=st.sampled_from([*range(7, 14), 50, 1000]),
    kind=st.sampled_from(["face", "vertex"]),
    layers=st.integers(min_value=1, max_value=3),
)
def test_expand_matches_reference(r, kind, layers):
    disk = seed_face(r) if kind == "face" else seed_vertex(r)
    for _ in range(layers if r <= 13 else 1):
        expected = reference_expand(disk)
        disk = expand(disk)
        assert disk.graph.rotations == expected.graph.rotations
        assert disk.boundary.tolist() == expected.boundary.tolist()
        assert disk.layer_index == expected.layer_index


@settings(max_examples=30, deadline=None)
@given(data=st.data(), r=st.integers(min_value=7, max_value=10))
def test_expand_of_relabelled_disk_matches_reference(data, r):
    disk = grow(seed_vertex(r), data.draw(st.integers(min_value=1, max_value=2)))
    nv = disk.graph.vertex_count
    perm = data.draw(st.permutations(range(nv)))
    rows: list[list[int]] = [[] for _ in range(nv)]
    for v, rot in enumerate(disk.graph.rotations):
        rows[perm[v]] = [perm[u] for u in rot]
    relabelled = CombinatorialDisk(
        RotationGraph(rows), r, tuple(perm[w] for w in disk.boundary), disk.layer_index
    )
    grown = expand(relabelled)
    assert grown.graph.rotations == reference_expand(relabelled).graph.rotations
    assert validate_disk(grown) == []
    assert count_explicit(grown) == count_explicit(expand(disk))


SMALL_DISKS = (
    seed_vertex(7),
    seed_face(7),
    expand(seed_vertex(7)),
    expand(seed_face(8)),
    grow(seed_vertex(9), 2),
    pentagon_fan(8),
)


@st.composite
def relabelled_disks(draw):
    """Grown disks with their ids permuted at random, so that neither the rows
    nor the entries within a row come in the id order that expand produces."""
    r = draw(st.integers(min_value=7, max_value=10))
    seed = draw(st.sampled_from([seed_face, seed_vertex]))(r)
    disk = grow(seed, draw(st.integers(min_value=1, max_value=3)), budget=2000)
    perm = draw(st.permutations(range(disk.graph.vertex_count)))
    rows: list[list[int]] = [[] for _ in perm]
    for v, rot in enumerate(disk.graph.rotations):
        rows[perm[v]] = [perm[u] for u in rot]
    return CombinatorialDisk(
        RotationGraph(rows), r, [perm[w] for w in disk.boundary], disk.layer_index
    )


CORRUPTIONS = (
    "drop", "duplicate", "double", "loop", "swap", "reverse", "out-of-range", "cut-boundary",
    "mirror", "empty-boundary-row",
)


@st.composite
def corrupted_disks(draw, bases=st.sampled_from(SMALL_DISKS), ops=CORRUPTIONS):
    base = draw(bases)
    rows = [list(rot) for rot in base.graph.rotations]
    boundary = tuple(base.boundary.tolist())
    nv = len(rows)
    for op in draw(st.lists(st.sampled_from(ops), min_size=1, max_size=3)):
        v = draw(st.integers(min_value=0, max_value=nv - 1))
        row = rows[v]
        if op == "mirror":  # keeps symmetry and rows without repeats, breaks the faces at v
            row.reverse()
        elif op == "drop" and row:
            del row[draw(st.integers(min_value=0, max_value=len(row) - 1))]
        elif op == "duplicate" and row:
            entry = row[draw(st.integers(min_value=0, max_value=len(row) - 1))]
            row.insert(draw(st.integers(min_value=0, max_value=len(row))), entry)
        elif op == "double" and row:  # both directions twice: repeats that stay symmetric
            u = row[draw(st.integers(min_value=0, max_value=len(row) - 1))]
            if 0 <= u < nv and u != v:
                row.insert(draw(st.integers(min_value=0, max_value=len(row))), u)
                rows[u].insert(draw(st.integers(min_value=0, max_value=len(rows[u]))), v)
        elif op == "loop":
            row.insert(draw(st.integers(min_value=0, max_value=len(row))), v)
        elif op == "swap":
            other = draw(st.integers(min_value=0, max_value=nv - 1))
            rows[v], rows[other] = rows[other], rows[v]
        elif op == "reverse":
            boundary = tuple(reversed(boundary))
        elif op == "cut-boundary" and boundary:
            skip = draw(st.integers(min_value=0, max_value=len(boundary) - 1))
            boundary = boundary[:skip] + boundary[skip + 1 :]
        elif op == "empty-boundary-row" and boundary:  # degree 0, and still symmetric
            lone = boundary[draw(st.integers(min_value=0, max_value=len(boundary) - 1))]
            rows = [[] if u == lone else [x for x in rot if x != lone]
                    for u, rot in enumerate(rows)]
        elif op == "out-of-range" and row:
            bad = draw(st.sampled_from([nv, nv + 3, -1, -5]))
            row[draw(st.integers(min_value=0, max_value=len(row) - 1))] = bad
    return CombinatorialDisk(RotationGraph(rows), base.ambient_degree, boundary, base.layer_index)


@settings(max_examples=300, deadline=None)
@given(disk=corrupted_disks())
def test_validate_matches_reference(disk):
    kinds = reference_validate_kinds(disk)
    assert {v.kind for v in validate_disk(disk)} == kinds
    if kinds:
        with pytest.raises(MalformedDiskError):
            count_explicit(disk)
    else:
        counts = count_explicit(disk)
        t = len(disk.boundary)
        faces = [3] * counts.f + ([t] if t else [])
        assert reference_face_lengths(disk.graph.rotations) == sorted(faces)
        assert sum(faces) == 2 * counts.e
        assert (counts.v, counts.s) == (disk.graph.vertex_count, counts.v - t)


@settings(max_examples=300, deadline=None)
@given(disk=st.one_of(
    corrupted_disks(),
    convex_disks(),
    relabelled_disks(),
    corrupted_disks(relabelled_disks()),
    corrupted_disks(relabelled_disks(), ops=["mirror"]),
))
def test_the_pass_matches_the_global_sort_reference(disk):
    counts, violations = reference_inspect(disk)
    found = validate_disk(disk)
    assert [(v.kind, v.detail) for v in found] == [(v.kind, v.detail) for v in violations]
    if violations:
        first = violations[0]
        with pytest.raises(MalformedDiskError) as err:
            count_explicit(disk)
        assert str(err.value) == f"{first.kind}: {first.detail}"
    else:
        assert count_explicit(disk) == counts


def test_a_disk_reads_its_boundary_degrees_once():
    disk = grow(seed_face(7), 2)
    count_explicit(disk)
    degs = disk._boundary_degrees
    assert not degs.flags.writeable
    assert boundary_profile(disk) == BoundaryProfile(degs.size, int(degs.sum()))
    assert disk._boundary_degrees is degs


def test_count_explicit_rejects_an_empty_graph():
    with pytest.raises(MalformedDiskError, match="^degenerate: "):
        count_explicit(CombinatorialDisk(RotationGraph([]), 7, (), 0))


def test_validate_reports_each_kind_with_its_first_offender():
    rows = [list(rot) for rot in grow(seed_face(7), 2).graph.rotations]
    rows[20].append(20)
    rows[30].append(30)
    rows[25].append(10**6)
    disk = CombinatorialDisk(RotationGraph(rows), 7, grow(seed_face(7), 2).boundary, 2)
    found = validate_disk(disk)
    assert [(v.kind, v.detail) for v in found[:2]] == [
        ("id-range", "vertex 25 lists an out-of-range neighbor"),
        ("loop", "vertex 20 lists itself"),
    ]


def test_a_boundary_vertex_with_an_empty_row_is_reported_not_indexed():
    # vertex 3 has no row entries, and its row starts past the last slot
    disk = CombinatorialDisk(RotationGraph([[1, 2], [2, 0], [0, 1], []]), 7, (0, 1, 2, 3), 0)
    assert [(v.kind, v.detail) for v in validate_disk(disk)] == [
        ("boundary-cycle", "boundary edge (2, 3) is missing"),
        ("boundary-degree", "boundary vertex 3 has degree 0, outside [2, 4]"),
    ]


def test_a_lone_edge_in_one_half_breaks_symmetry():
    # 0 -> 1 is the only slot: the backward half is empty
    disk = CombinatorialDisk(RotationGraph([[1], []]), 7, (0, 1), 0)
    assert [(v.kind, v.detail) for v in validate_disk(disk)] == [
        ("symmetry", "edge (0, 1) has no reverse entry"),
        ("boundary-cycle", "boundary is not a simple cycle"),
    ]


def test_bad_boundary_ids_raise_malformed():
    triangle = CombinatorialDisk(seed_face(7).graph, 7, (0, 1, 5), 0)
    for fn in (count_explicit, expand, boundary_profile, is_convex):
        with pytest.raises(MalformedDiskError):
            fn(triangle)
    assert {v.kind for v in validate_disk(triangle)} == {"boundary-cycle"}
    for ids in ((0.5, 1, 2), (False, True, 2), ("0", 1, 2)):
        with pytest.raises(MalformedDiskError):
            CombinatorialDisk(seed_face(7).graph, 7, ids, 0)


def test_expand_rejects_a_boundary_without_outer_gap():
    square = CombinatorialDisk(
        RotationGraph([[1, 3], [2, 0], [3, 1], [0, 2]]), 7, (0, 1, 2), 0
    )
    with pytest.raises(MalformedDiskError):
        expand(square)
    with pytest.raises(MalformedDiskError):
        expand(CombinatorialDisk(seed_face(7).graph, 7, (0, 1, 2, 1), 0))


@settings(max_examples=40, deadline=None)
@given(shifts=st.lists(st.integers(min_value=0, max_value=4), min_size=6, max_size=6))
def test_expand_turns_shifted_boundary_rows(shifts):
    fan = pentagon_fan(8)
    rows = [rot[k % len(rot):] + rot[: k % len(rot)] for rot, k in zip(fan.graph.rotations, shifts)]
    shifted = CombinatorialDisk(RotationGraph(rows), 8, fan.boundary, 0)
    assert validate_disk(shifted) == []
    assert count_explicit(shifted) == count_explicit(fan)
    assert expand(shifted).graph == expand(fan).graph
    assert shifted.graph.rotations == rows


def test_expand_turns_a_shifted_row_of_a_grown_disk():
    disk = expand(seed_face(7))
    rows = disk.graph.rotations
    w = disk.boundary[4]
    rows[w] = rows[w][1:] + rows[w][:1]
    shifted = CombinatorialDisk(RotationGraph(rows), 7, disk.boundary, 1)
    assert expand(shifted).graph.rotations == expand(disk).graph.rotations
    assert validate_disk(expand(shifted)) == []


def test_vertex_ids_never_wrap():
    with pytest.raises(MalformedDiskError):
        RotationGraph([[1, 2**31], [0], [0]])
    with pytest.raises(MalformedDiskError):
        RotationGraph([[1, 2**70], [0], [0]])
    with pytest.raises(MalformedDiskError):
        RotationGraph([[1, -(2**31) - 1], [0], [0]])
    assert RotationGraph([[2**31 - 1, -(2**31)]]).neighbors.tolist() == [2**31 - 1, -(2**31)]


def test_id_range_caps_the_budget(monkeypatch):
    monkeypatch.setattr(mesh, "MAX_SLOTS", 59)  # the first face layer at r = 7 has 60 slots
    with pytest.raises(BudgetExceededError, match="needs 60 slots") as err:
        expand(seed_face(7), budget=10**12)
    assert (err.value.needed, err.value.budget) == (60, 59)
    monkeypatch.setattr(mesh, "MAX_SLOTS", 27)  # the fan at r = 7 has 28
    with pytest.raises(BudgetExceededError):
        expand(seed_vertex(7), budget=10**12)


def _slot_limit_is_exact(disk: CombinatorialDisk, slots: int) -> None:
    """expand(disk), a disk of ``slots`` slots, fits a slot limit of exactly
    that, and one below it is refused before anything of the new disk is built."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mesh, "MAX_SLOTS", slots)
        assert expand(disk, budget=10**12).graph.neighbors.size == slots
        patch.setattr(mesh, "MAX_SLOTS", slots - 1)
        for builder in ("_gaps_last", "_fan"):  # the first step of building each kind of layer
            patch.setattr(mesh, builder, lambda *args: pytest.fail("expand allocated"))
        with pytest.raises(BudgetExceededError) as err:
            expand(disk, budget=10**12)
    assert (err.value.needed, err.value.budget) == (slots, slots - 1)


@pytest.mark.parametrize("kind", ["face", "vertex"])
@pytest.mark.parametrize("r", [7, 8, 9, 12, 20, 1000])
def test_the_slot_limit_is_exact_on_grown_layers(r, kind):
    disks = [measured.disk for measured in measured_layers(r, kind, 6, budget=20_000)]
    for disk, grown in zip(disks, disks[1:]):
        _slot_limit_is_exact(disk, grown.graph.neighbors.size)


@settings(max_examples=60, deadline=None)
@given(disk=convex_disks())
def test_the_slot_limit_is_exact_on_convex_disks(disk):
    _slot_limit_is_exact(disk, expand(disk, budget=10**12).graph.neighbors.size)


def test_a_graph_past_the_slot_limit_is_malformed(monkeypatch):
    rows = [[1, 2], [2, 0], [0, 1]]
    offsets, neighbors = np.array([0, 2, 4, 6]), np.array([1, 2, 2, 0, 0, 1], dtype=np.int32)
    monkeypatch.setattr(mesh, "MAX_SLOTS", 6)
    assert RotationGraph(rows) == RotationGraph.from_arrays(offsets, neighbors.copy())
    monkeypatch.setattr(mesh, "MAX_SLOTS", 5)
    with pytest.raises(MalformedDiskError, match="at most 5 slots"):
        RotationGraph(rows)
    with pytest.raises(MalformedDiskError, match="at most 5 slots"):
        RotationGraph.from_arrays(offsets, neighbors)


@pytest.mark.parametrize("n_layers, budget", [(3, mesh.DEFAULT_VERTEX_BUDGET), (12, 3000)])
@pytest.mark.parametrize("kind", ["face", "vertex"])
@pytest.mark.parametrize("r", [7, 8, 9])
def test_measured_layers_match_direct_measurement(r, kind, n_layers, budget):
    layers = list(measured_layers(r, kind, n_layers, budget))
    assert [m.layer for m in layers] == list(range(len(layers)))
    prev, disk = None, seed_face(r) if kind == "face" else seed_vertex(r)
    for m in layers:
        if m.layer:
            prev, disk = disk, expand(disk, budget)
        assert m.disk == disk
        assert m.counts == count_explicit(disk)
        assert m.profile == (None if disk.is_degenerate else boundary_profile(disk))
        assert m.census == (None if prev is None else layer_census(prev, disk))
    truncated = len(layers) <= n_layers
    assert truncated == (budget == 3000)
    if truncated:  # stopped quietly where the next layer would pass the budget
        with pytest.raises(BudgetExceededError):
            expand(disk, budget)


def test_measured_layers_reject_other_seeds():
    for kind in ("3:6", "Face", ""):
        with pytest.raises(ValueError, match="canonical seeds"):
            next(measured_layers(7, kind, 2))


def test_measured_layers_name_the_failing_layer(monkeypatch):
    def contradiction(prev, new):
        raise CensusContradiction("new boundary vertex 3 has degree 5, expected 3 or 4")

    monkeypatch.setattr(mesh, "layer_census", contradiction)
    layers = measured_layers(8, "vertex", 3)
    assert next(layers).layer == 0
    with pytest.raises(CensusContradiction, match=r"^r=8 seed=vertex layer=1: new boundary"):
        next(layers)


def test_measured_layers_keep_two_disks_alive(monkeypatch):
    refs, alive_at_expand = [], []
    real_expand = mesh.expand

    def tracking_expand(disk, budget=mesh.DEFAULT_VERTEX_BUDGET):
        alive_at_expand.append(sum(ref() is not None for ref in refs))
        return real_expand(disk, budget)

    monkeypatch.setattr(mesh, "expand", tracking_expand)
    for measured in measured_layers(7, "face", 4):
        refs.append(weakref.ref(measured.disk))
    # only the disk being expanded is alive when the next one is built
    assert alive_at_expand == [1, 1, 1, 1]


@settings(max_examples=40, deadline=None)
@given(disk=convex_disks(), picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=12))
def test_neighbors_of_concatenates_the_rotations(disk, picks):
    # any vertices, repeats and empty selections included, in the order given
    rows = disk.graph.rotations
    vs = np.array([p % len(rows) for p in picks], dtype=np.int32)
    assert disk.graph.neighbors_of(vs).tolist() == [u for v in vs.tolist() for u in rows[v]]


def test_the_packed_key_keeps_ids_and_slot_numbers_at_the_limit():
    top = mesh.MAX_SLOTS
    high = np.array([top, 0, top, 1], dtype=np.int32)
    low = np.array([top, top, 0, 1], dtype=np.int64)  # slot numbers, as np.flatnonzero gives them
    keys = mesh._packed(high, low)
    assert (keys >> 32).tolist() == high.tolist()
    assert (keys & 0xFFFFFFFF).tolist() == low.tolist()
    src = np.array([0, top, top, top], dtype=np.int32)
    dst = np.array([top, top, 0, top - 1], dtype=np.int32)
    slots, keys = mesh._backward_half(src, dst)
    assert slots.dtype == np.int32 and slots.tolist() == [2, 3, 1]
    assert (keys >> 32).tolist() == [0, top - 1, top]
    assert (keys & 0xFFFFFFFF).tolist() == [top, top, top]


@settings(max_examples=60, deadline=None)
@given(edges=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=60))
def test_the_backward_half_is_in_dst_then_src_order(edges):
    # slots ascend with src, as rows do; within a row dst comes in any order
    pairs = np.array(sorted(edges, key=lambda e: e[0]), dtype=np.int32).reshape(-1, 2)
    src, dst = pairs[:, 0].copy(), pairs[:, 1].copy()
    slots, keys = mesh._backward_half(src, dst)
    back = src >= dst
    expected = sorted(zip(dst[back].tolist(), src[back].tolist(), np.flatnonzero(back).tolist()))
    assert slots.tolist() == [slot for _, _, slot in expected]
    assert keys.tolist() == [d << 32 | s for d, s, _ in expected]


def test_count_explicit_peaks_under_25_bytes_per_slot():
    # int64 slot indices peaked at 41.8 bytes per slot and one global sort at
    # 24.3; two measurements run at once in verify, so each must stay small
    disk = grow(seed_face(7), 9)
    slots = disk.graph.neighbors.size
    assert slots == 216_150
    tracemalloc.start()
    try:
        count_explicit(disk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * slots
