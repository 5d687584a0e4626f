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
    BudgetExceededError,
    CensusContradiction,
    CombinatorialDisk,
    ConvexityError,
    DeltaCounts,
    DiskCounts,
    InvalidSeedError,
    LayerCensus,
    MalformedDiskError,
    RotationGraph,
    SeedDescriptor,
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
    beside_k19,
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
    assert boundary_profile(disk) == SeedDescriptor(7, 3, 6)
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
    assert profile == SeedDescriptor(r, r, 3 * r)
    assert validate_disk(fan) == []
    assert fan.layer_index == 1


def test_single_expansion_of_face_seed():
    disk = seed_face(7)
    grown = expand(disk)
    assert count_explicit(grown) == DiskCounts(15, 30, 16, 3)
    assert layer_census(grown) == LayerCensus(9, 3)
    assert delta_counts(count_explicit(disk), count_explicit(grown)) == DeltaCounts(12, 27, 15)
    assert boundary_profile(grown).t == 12
    assert validate_disk(grown) == []


def test_double_expansion_face_seed_frozen_counts():
    d2 = grow(seed_face(7), 2)
    assert count_explicit(d2) == DiskCounts(48, 108, 61, 15)
    assert layer_census(d2) == LayerCensus(21, 12)


def test_double_expansion_vertex_seed():
    fan = expand(seed_vertex(7))
    d2 = expand(fan)
    counts = count_explicit(d2)
    assert counts == DiskCounts(29, 63, 35, 8)
    assert counts.v - counts.e + counts.f == 1
    assert layer_census(d2) == LayerCensus(14, 7)


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
        layer_census(doctored)


def test_a_profile_that_no_convex_disk_has_is_refused():
    # a square is no triangulation: at r = 9, (r - 6) v = t r - 2 t - d - 6 = 14
    square = CombinatorialDisk(RotationGraph([[1, 3], [2, 0], [3, 1], [0, 2]]), 9, (0, 1, 2, 3), 0)
    assert [v.kind for v in validate_disk(square)] == ["face-structure"]
    with pytest.raises(InvalidSeedError, match="count v is not integral"):
        boundary_profile(square)
    assert boundary_profile(pentagon_fan(8)) == SeedDescriptor(8, 6, 18)


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
    corrupted_disks(st.sampled_from([beside_k19(seed_face(18))])),
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
    assert boundary_profile(disk) == SeedDescriptor(7, degs.size, int(degs.sum()))
    assert disk._boundary_degrees is degs


@pytest.mark.parametrize("host", [seed_face(18), expand(seed_face(18))], ids=["seed", "layer-1"])
def test_a_closed_surface_beside_the_disk_breaks_euler(host):
    # every other check passes: only v - e + f = 1 rejects it
    disk = beside_k19(host)
    violations = validate_disk(disk)
    assert [(v.kind, v.detail) for v in violations] == [
        ("euler-characteristic", "v - e + f = -37 != 1")
    ]
    assert reference_validate_kinds(disk) == {"euler-characteristic"}
    assert reference_inspect(disk) == (None, violations)
    with pytest.raises(MalformedDiskError, match=r"^euler-characteristic: v - e \+ f = -37 != 1$"):
        count_explicit(disk)


@pytest.mark.parametrize(
    "rows, r, boundary",
    [([[1, 2], [2, 0], [0, 1]], 6, (0, 1, 2)), ([[1, 2], [2, 0], [0, 1]], 6, (0, 1, 1)), ([[]], 5, ())],
    ids=["triangle", "triangle-bad-boundary", "bare-vertex"],
)
def test_the_pass_applies_the_degree_rule_first(rows, r, boundary):
    # these raised the degree error, listed a boundary-cycle violation, and
    # passed as DiskCounts(1, 0, 0, 1): the rule now comes before any other check
    disk = CombinatorialDisk(RotationGraph(rows), r, boundary, 0)
    for check in (validate_disk, count_explicit):
        with pytest.raises(ValueError, match=f"^ambient degree must be an integer >= 7, got {r}$"):
            check(disk)


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


def test_a_pinched_boundary_is_not_a_simple_cycle():
    # two triangles that share vertex 0, which the boundary walk visits twice; the
    # rows are symmetric, so only the simple-cycle rule refuses it, and the
    # references share that rule, so the verdict is pinned here by hand
    rows = [[1, 2, 3, 4], [2, 0], [0, 1], [4, 0], [0, 3]]
    disk = CombinatorialDisk(RotationGraph(rows), 7, (0, 1, 2, 0, 3, 4), 0)
    assert [(v.kind, v.detail) for v in validate_disk(disk)] == [
        ("boundary-cycle", "boundary is not a simple cycle"),
    ]
    with pytest.raises(MalformedDiskError, match="^boundary-cycle: boundary is not a simple"):
        count_explicit(disk)
    with pytest.raises(MalformedDiskError, match="^boundary is not a simple cycle$"):
        expand(disk)


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


def test_expand_names_the_first_row_without_outer_gap_in_boundary_order():
    disk = expand(seed_face(7))
    rows, w = disk.graph.rotations, np.roll(disk.boundary, -5).tolist()
    for v in (w[2], w[-3]):  # reversed, a row of degree 3 or 4 has no (w_prev, w_next) gap
        rows[v].reverse()
    assert w[-3] < w[2]  # the boundary starts past w[-3], so id order would name it first
    broken = CombinatorialDisk(RotationGraph(rows), 7, w, 1)
    gap = f"between {w[1]} and {w[3]}"
    with pytest.raises(MalformedDiskError, match=rf"^boundary vertex {w[2]}: no outer gap {gap}$"):
        expand(broken)


@settings(max_examples=40, deadline=None)
@given(
    shifts=st.lists(st.integers(min_value=0, max_value=4), min_size=6, max_size=6), data=st.data()
)
def test_expand_turns_shifted_boundary_rows(shifts, data):
    fan = pentagon_fan(8)
    rows = [rot[k % len(rot):] + rot[: k % len(rot)] for rot, k in zip(fan.graph.rotations, shifts)]
    shifted = CombinatorialDisk(RotationGraph(rows), 8, fan.boundary, 0)
    assert validate_disk(shifted) == []
    assert count_explicit(shifted) == count_explicit(fan)
    assert expand(shifted).graph == expand(fan).graph
    assert shifted.graph.rotations == rows

    grown = grow(seed_face(7), 3)  # every boundary row turned by its own drawn shift
    rows = grown.graph.rotations
    for w in grown.boundary.tolist():
        k = data.draw(st.integers(min_value=0, max_value=len(rows[w]) - 1))
        rows[w] = rows[w][k:] + rows[w][:k]
    turned = CombinatorialDisk(RotationGraph(rows), 7, grown.boundary, grown.layer_index)
    assert expand(turned) == expand(grown)


@pytest.mark.parametrize("kind", ["face", "vertex"])
@pytest.mark.parametrize("r", range(7, 13))
def test_growth_never_turns_a_row(monkeypatch, r, kind):
    # every grown layer is gap-last: _gaps_last hands back the very array it was given
    gaps_last, given_back = mesh._gaps_last, []

    def spy(offsets, neighbors, *rest):
        turned = gaps_last(offsets, neighbors, *rest)
        given_back.append(turned is neighbors)
        return turned

    monkeypatch.setattr(mesh, "_gaps_last", spy)
    layers = list(measured_layers(r, kind, 4, 20_000))
    assert given_back == [True] * sum(not m.disk.is_degenerate for m in layers[:-1])
    assert len(given_back) >= 2


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


@st.composite
def block_edge_disks(draw):
    """Pairs (disk, the same disk with every boundary row gap-last) to cut at
    block edges: grown, relabelled (so rows past the first boundary row move),
    with boundary rows turned off their outer gap, the fan and the vertex seed."""
    kind = draw(st.sampled_from(["grown", "relabelled", "turned", "fan", "vertex"]))
    if kind == "relabelled":
        disk = draw(relabelled_disks())
        return disk, disk
    r = draw(st.integers(min_value=7, max_value=12))
    if kind in ("fan", "vertex"):
        disk = grow(seed_vertex(r), kind == "fan")
        return disk, disk
    seed = draw(st.sampled_from([seed_face, seed_vertex]))(r)
    disk = grow(seed, draw(st.integers(min_value=1, max_value=3)), budget=2000)
    rows = disk.graph.rotations
    for w in disk.boundary.tolist() if kind == "turned" else []:
        k = draw(st.integers(min_value=0, max_value=len(rows[w]) - 1))
        rows[w] = rows[w][k:] + rows[w][:k]
    return CombinatorialDisk(RotationGraph(rows), r, disk.boundary, disk.layer_index), disk


def _matches_the_references(disk: CombinatorialDisk, gaps_last: CombinatorialDisk, chunk: int):
    """With ``_CHUNK`` set to ``chunk``: expand(disk) against reference_expand(gaps_last),
    and the pass on disk and on its expansion against reference_inspect."""
    expected = reference_expand(gaps_last)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mesh, "_CHUNK", chunk)
        grown = expand(disk)
        assert grown.graph.rotations == expected.graph.rotations
        assert grown.boundary.tolist() == list(expected.boundary)
        for measured in (disk, grown):
            counts, violations = reference_inspect(measured)
            assert violations == []
            assert validate_disk(measured) == violations
            assert count_explicit(measured) == counts


@settings(max_examples=50, deadline=None)
@given(disks=block_edge_disks(), chunk=st.sampled_from([7, 64]))
def test_expand_and_the_pass_match_the_references_across_block_edges(disks, chunk):
    _matches_the_references(*disks, chunk)


@pytest.mark.parametrize(
    "seed, r",
    [(seed_vertex, 7), (seed_face, 8), (seed_vertex, 9), (seed_vertex, 10), (seed_face, 9),
     (seed_face, 7), (seed_face, 12)],
)
def test_expand_and_the_pass_match_the_references_for_every_last_block(seed, r):
    # boundaries of 7, 15, 9, 10, 18, 12 and 27 slots: the last block of 7 holds each of 7, 1 .. 6
    disk = expand(seed(r))
    _matches_the_references(disk, disk, 7)


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
    disk = seed_face(r) if kind == "face" else seed_vertex(r)
    for m in layers:
        if m.layer:
            disk = expand(disk, budget)
        assert m.disk == disk
        assert m.counts == count_explicit(disk)
        assert m.profile == (None if disk.is_degenerate else boundary_profile(disk))
        assert m.census == (layer_census(disk) if m.layer else None)
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
    def contradiction(disk):
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


def test_measured_layers_count_a_layer_beside_no_older_disk(monkeypatch):
    refs, alive_at_count = [], []
    real_count = mesh.count_explicit

    def tracking_count(disk):
        alive_at_count.append(sum(ref() is not None for ref in refs))
        return real_count(disk)

    monkeypatch.setattr(mesh, "count_explicit", tracking_count)
    for measured in measured_layers(7, "face", 4):
        refs.append(weakref.ref(measured.disk))
        del measured  # a caller that keeps no layer
    # the pipeline itself holds no predecessor while it counts a layer
    assert alive_at_count == [0, 0, 0, 0, 0]


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
    # the backward half sorts its slots by dst, then slot, in place
    slots = np.array([3, 1, 0, 2], dtype=np.int32)
    mesh._backward_half(np.array([top, top - 1, 0, top], dtype=np.int32), slots)
    assert slots.dtype == np.int32 and slots.tolist() == [2, 1, 0, 3]
    slots = np.array([top - 1, 5, top - 2], dtype=np.int32)
    mesh._backward_half(np.broadcast_to(np.int32(top), top), slots)  # top in all top slots
    assert slots.tolist() == [5, top - 2, top - 1]


@settings(max_examples=60, deadline=None)
@given(edges=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=60))
def test_the_backward_half_is_in_dst_then_src_order(edges):
    # slots ascend with src, as rows do; within a row dst comes in any order
    pairs = np.array(sorted(edges, key=lambda e: e[0]), dtype=np.int32).reshape(-1, 2)
    src, dst = pairs[:, 0].copy(), pairs[:, 1].copy()
    _, second, _ = mesh._halves(np.searchsorted(src, np.arange(14)), dst)
    back = src >= dst
    expected = sorted(zip(dst[back].tolist(), src[back].tolist(), np.flatnonzero(back).tolist()))
    assert second.dtype == np.int32
    assert second.tolist() == [slot for _, _, slot in expected]


@st.composite
def forward_runs(draw):
    """Whole rows in ascending id order, ids missing between them standing
    for empty rows; dst in any order, repeats allowed, every row out of order
    if drawn so, ids up to MAX_SLOTS and slot numbers up to its last one."""
    top = mesh.MAX_SLOTS
    ids = sorted(draw(st.sets(st.sampled_from([*range(12), top - 2, top - 1]), max_size=8)))
    pool = st.sampled_from([*range(12), top - 1, top])
    rows = [draw(st.lists(pool, max_size=6)) for _ in ids]
    if draw(st.booleans()):
        rows = [sorted(row, reverse=True) for row in rows]
    src = np.array([v for v, row in zip(ids, rows) for _ in row], dtype=np.int32)
    dst = np.array([u for row in rows for u in row], dtype=np.int32)
    return src, dst, draw(st.sampled_from([0, 5, top - src.size]))


@settings(max_examples=300, deadline=None)
@given(run=forward_runs())
def test_the_forward_half_matches_a_stable_argsort(run):
    src, dst, lo = run
    slots, tied = mesh._forward_half(src, dst, lo)
    ahead = [(s, d, lo + i) for i, (s, d) in enumerate(zip(src.tolist(), dst.tolist())) if s < d]
    order = sorted(range(len(ahead)), key=lambda i: ahead[i][:2])  # a stable argsort
    assert slots.tolist() == [ahead[i][2] for i in order]
    assert tied == any(ahead[i][:2] == ahead[j][:2] for i, j in zip(order, order[1:]))


def test_a_row_out_of_order_and_a_broken_face_across_a_chunk_edge():
    disk = grow(seed_face(7), 9)
    offsets, rows = disk.graph.offsets, disk.graph.rotations
    edge = mesh._CHUNK
    v = int(np.searchsorted(offsets, edge, side="right")) - 1
    assert offsets[v] < edge - 1 and offsets[v + 1] > edge + 1  # slots edge - 1, edge in row v
    row = rows[v]
    turn = row.index(max(row))  # the same rotation, from its largest entry on
    rows[v] = row[turn:] + row[:turn]
    ahead = [u for u in rows[v] if u > v]
    assert ahead[0] > ahead[1]  # out of order
    turned = CombinatorialDisk(RotationGraph(rows), 7, disk.boundary, disk.layer_index)
    assert validate_disk(turned) == []
    assert count_explicit(turned) == reference_inspect(turned)[0] == count_explicit(disk)
    at = edge - int(offsets[v])  # swap the entries in slots edge - 1 and edge
    rows[v][at - 1], rows[v][at] = rows[v][at], rows[v][at - 1]
    broken = CombinatorialDisk(RotationGraph(rows), 7, disk.boundary, disk.layer_index)
    violations = reference_inspect(broken)[1]
    assert [x.kind for x in violations] == ["face-structure"]
    assert validate_disk(broken) == violations
    with pytest.raises(MalformedDiskError, match="face-structure: interior face through"):
        count_explicit(broken)


@pytest.fixture
def poison_empty(monkeypatch):
    """A call that makes np.empty fill each new buffer with poison (True for
    bool, -1 otherwise), so a slot left unwritten cannot pass for the zeroed
    page that the allocator usually hands back."""
    empty = np.empty

    def poisoned(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(np.int64(-1).astype(out.dtype))  # True for bool
        return out

    return lambda: monkeypatch.setattr(np, "empty", poisoned)


def test_the_pass_reads_no_slot_it_has_not_written(poison_empty):
    # zeroed pages read as clean: a face test skipping one slot per chunk passed on them
    shapes = [(seed_face, 7, 9), (seed_vertex, 8, 7), (seed_face, 12, 5)]
    disks = [grow(seed(r), n) for seed, r, n in shapes]
    assert [disk.graph.neighbors.size // mesh._CHUNK for disk in disks] == [3, 2, 7]
    want = [(count_explicit(disk), validate_disk(disk)) for disk in disks]
    poison_empty()
    again = [grow(seed(r), n) for seed, r, n in shapes]
    assert again == disks
    assert [(count_explicit(disk), validate_disk(disk)) for disk in again] == want


def _traced_peak(measure, disk) -> int:
    tracemalloc.start()
    try:
        measure(disk)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_explicit_peaks_under_12_3_bytes_per_slot():
    # int64 slot indices peaked at 41.8 bytes per slot, one global sort at 24.3
    # and the two sorted halves at 22.0; the pass read in runs of rows peaked
    # at 12.14 in the face phase, and with no whole-row arrays there at 12.00,
    # in the sort of the halves; two measurements run at once in verify, so
    # each must stay small
    disk = grow(seed_face(7), 9)
    slots = disk.graph.neighbors.size
    assert slots == 216_150
    assert _traced_peak(count_explicit, disk) < 12.3 * slots


def test_expand_peaks_under_10_bytes_per_slot():
    # whole-array shifts and slot indices peaked at 15.7 bytes per slot of the
    # result; built in place, a block at a time, at 9.4
    disk = grow(seed_face(7), 8)
    assert _traced_peak(expand, disk) < 10 * 216_150
    assert expand(disk).graph.neighbors.size == 216_150


def test_validate_disk_peaks_under_25_bytes_per_slot_with_every_row_out_of_order():
    # ids reversed: each run of rows is sorted whole, the worst case of the
    # row-local sort, which a disk file with ids of its own may bring
    disk = grow(seed_face(7), 9)
    nv = disk.graph.vertex_count
    rows = [[nv - 1 - u for u in rot] for rot in reversed(disk.graph.rotations)]
    for v, rot in enumerate(rows):  # every row lists its larger neighbors out of order
        ahead = [u for u in rot if u > v]
        assert len(ahead) < 2 or ahead != sorted(ahead)
    flipped = CombinatorialDisk(RotationGraph(rows), 7, nv - 1 - disk.boundary, disk.layer_index)
    assert _traced_peak(validate_disk, flipped) < 25 * flipped.graph.neighbors.size
    assert validate_disk(flipped) == []
