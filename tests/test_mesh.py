from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    disk_to_json_obj,
    expand,
    grow,
    is_convex,
    layer_census,
    seed_face,
    seed_vertex,
    validate_disk,
)
from support import pentagon_fan, reference_face_lengths


def test_seed_face_shape():
    disk = seed_face(7)
    assert count_explicit(disk) == DiskCounts(3, 3, 1, 0)
    assert boundary_profile(disk) == BoundaryProfile(3, 6, (2, 2, 2))
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
    assert profile == BoundaryProfile(r, 3 * r, (3,) * r)
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
    assert disk.boundary == (0, 1, 2)


def test_new_boundary_is_id_range_in_order():
    disk = expand(seed_face(8))
    v_old = 3
    assert disk.boundary == tuple(range(v_old, disk.graph.vertex_count))


def test_boundary_degrees_after_expansion():
    for r in (7, 8, 10):
        disk = grow(seed_face(r), 2)
        degs = sorted(boundary_profile(disk).degrees)
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
    square = CombinatorialDisk(
        RotationGraph([[1, 3], [2, 0], [3, 1], [0, 2]]), 7, (0, 1, 2, 3), 0
    )
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
    obj = disk_to_json_obj(disk)
    text = json.dumps(obj)
    loaded = disk_from_json_obj(json.loads(text))
    assert loaded.graph.rotations == disk.graph.rotations
    assert loaded.boundary == disk.boundary
    assert loaded.ambient_degree == disk.ambient_degree
    assert loaded.layer_index == disk.layer_index
    assert count_explicit(loaded) == count_explicit(disk)


def test_disk_json_rejects_malformed():
    good = disk_to_json_obj(seed_face(7))
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
