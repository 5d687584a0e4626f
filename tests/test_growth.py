from __future__ import annotations

import decimal
import re
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsum import (
    DeltaCounts,
    DiskCounts,
    InvalidSeedError,
    LayerCensus,
    SeedDescriptor,
    boundary_profile,
    census_step,
    convexity_bound,
    counts_from_boundary,
    deltas_from_census,
    disk_from_json_obj,
    expand,
    grow,
    initial_census,
    is_convex,
    layer_census,
    count_explicit,
    mesh_invariants,
    mesh_invariants_from_seed,
    platonic_counts,
    predict_layers,
    second_order_step,
    seed_face,
    seed_vertex,
    validate_disk,
)
from meshsum.growth import MAX_PREDICT_LAYERS, census_stream, check_degree
from meshsum.mesh import disk_json, read_disk
from support import convex_disks, reference_layers, valid_seeds


def test_counts_from_boundary_examples():
    assert counts_from_boundary(SeedDescriptor(7, 3, 6)) == DiskCounts(3, 3, 1, 0)
    assert counts_from_boundary(SeedDescriptor(7, 7, 21)) == DiskCounts(8, 14, 7, 1)
    assert counts_from_boundary(SeedDescriptor(8, 8, 24)) == DiskCounts(9, 16, 8, 1)


def test_invalid_seed_reports_failing_component():
    with pytest.raises(InvalidSeedError, match="[vV]"):
        SeedDescriptor(8, 3, 7)  # v not integral
    with pytest.raises(InvalidSeedError, match="negative"):
        SeedDescriptor(7, 3, 7)  # s drops below zero
    with pytest.raises(InvalidSeedError, match="degree sum"):
        SeedDescriptor(7, 3, 5)  # below 2t
    with pytest.raises(InvalidSeedError, match="degree sum"):
        SeedDescriptor(7, 3, 13)  # above convex bound
    with pytest.raises(InvalidSeedError):
        SeedDescriptor(6, 3, 6)
    with pytest.raises(InvalidSeedError):
        SeedDescriptor(7, 2, 4)


@pytest.mark.parametrize(
    "r, shown",
    [(6, "6"), (-10**5000, "-1" + "0" * 38 + "... (5002 characters)"), (7.0, "7.0"),
     (True, "True")],
    ids=["six", "past-the-digit-limit", "float", "bool"],
)
def test_every_entry_point_states_the_one_degree_rule(r, shown):
    message = "^" + re.escape(f"ambient degree must be an integer >= 7, got {shown}") + "$"
    for call in (
        check_degree, convexity_bound, seed_face, seed_vertex, mesh_invariants,
        lambda r: census_step(r, LayerCensus(3, 3)),
        lambda r: second_order_step(r, 1, 2),
    ):
        with pytest.raises(ValueError, match=message):
            call(r)
    with pytest.raises(InvalidSeedError, match=message):
        SeedDescriptor(r, 3, 6)
    if type(r) is int:  # a disk file's r that is no integer makes the disk malformed
        obj = {"r": r, "layer": 0, "boundary": [0, 1, 2], "rotation": [[1, 2], [2, 0], [0, 1]]}
        with pytest.raises(ValueError, match=message):
            disk_from_json_obj(obj)
    if r == 6:  # the byte reader, on a disk file laid out as written
        data = disk_json(seed_face(7)).replace(b'"r": 7,', b'"r": 6,')
        with pytest.raises(ValueError, match=message):
            read_disk(data)


def test_initial_census_examples():
    assert initial_census(SeedDescriptor(7, 3, 6)) == LayerCensus(9, 3)
    assert initial_census(SeedDescriptor(7, 7, 21)) == LayerCensus(14, 7)
    assert initial_census(SeedDescriptor(8, 3, 6)) == LayerCensus(12, 3)


def test_census_step_examples():
    assert census_step(7, LayerCensus(9, 3)) == LayerCensus(21, 12)
    assert census_step(7, LayerCensus(14, 7)) == LayerCensus(35, 21)
    with pytest.raises(ValueError):
        census_step(6, LayerCensus(1, 1))


def test_deltas_examples():
    assert deltas_from_census(LayerCensus(9, 3)) == DeltaCounts(12, 27, 15)
    assert deltas_from_census(LayerCensus(14, 7)) == DeltaCounts(21, 49, 28)


def test_second_order_examples():
    assert second_order_step(7, 12, 33) == 87
    assert second_order_step(7, 27, 75) == 198
    with pytest.raises(ValueError):
        second_order_step(6, 1, 1)


def test_predict_layers_face_seed():
    preds = predict_layers(SeedDescriptor(7, 3, 6), 3)
    assert [p.n for p in preds] == [1, 2, 3]
    assert preds[0].census == LayerCensus(9, 3)
    assert preds[0].deltas == DeltaCounts(12, 27, 15)
    assert preds[0].cumulative == DiskCounts(15, 30, 16, 3)
    assert preds[1].cumulative == DiskCounts(48, 108, 61, 15)
    assert preds[2].cumulative.v == 135
    for p in preds:
        cum = p.cumulative
        assert cum.v - cum.e + cum.f == 1
        assert cum.s == cum.v - (p.census.a + p.census.b)


def test_predict_layers_domain():
    seed = SeedDescriptor(7, 3, 6)
    with pytest.raises(ValueError):
        predict_layers(seed, 0)
    with pytest.raises(ValueError):
        predict_layers(seed, MAX_PREDICT_LAYERS + 1)
    assert len(predict_layers(seed, 10)) == 10


def test_predictions_match_explicit_growth():
    for r in (7, 8, 10):
        disk = seed_face(r)
        preds = predict_layers(SeedDescriptor(r, 3, 6), 3)
        for p in preds:
            disk = expand(disk)
            assert count_explicit(disk) == p.cumulative
            assert layer_census(disk) == p.census


def test_vertex_seed_enters_analytics_at_the_fan():
    for r in (7, 9):
        fan = expand(seed_vertex(r))
        descriptor = SeedDescriptor(r, r, 3 * r)
        assert count_explicit(fan) == counts_from_boundary(descriptor)
        preds = predict_layers(descriptor, 2)
        disk = fan
        for p in preds:
            prev, disk = disk, expand(disk)
            assert count_explicit(disk) == p.cumulative


def test_platonic_counts():
    assert platonic_counts(3) == (4, 6, 4)
    assert platonic_counts(4) == (6, 12, 8)
    assert platonic_counts(5) == (12, 30, 20)
    for v, e, f in map(platonic_counts, (3, 4, 5)):
        assert v - e + f == 2
    for bad in (2, 6, 7):
        with pytest.raises(ValueError):
            platonic_counts(bad)


@given(valid_seeds())
@settings(max_examples=80)
def test_counts_from_boundary_always_consistent(seed):
    counts = counts_from_boundary(seed)
    assert counts.v - counts.e + counts.f == 1
    assert counts.s == counts.v - seed.t
    assert counts.s >= 0 and counts.f >= 1
    # handshake from the closed forms: interior full degree, boundary sums to d
    assert seed.d + seed.r * counts.s == 2 * counts.e


@given(valid_seeds())
@settings(max_examples=60)
def test_census_recursion_agrees_with_second_order_form(seed):
    r = seed.r
    census = initial_census(seed)
    seq = {"dv": [], "de": [], "df": []}
    for _ in range(12):
        d = deltas_from_census(census)
        seq["dv"].append(d.dv)
        seq["de"].append(d.de)
        seq["df"].append(d.df)
        census = census_step(r, census)
    for series in seq.values():
        for i in range(len(series) - 2):
            assert series[i + 2] == second_order_step(r, series[i], series[i + 1])


@given(valid_seeds())
@settings(max_examples=60)
def test_census_stays_positive_and_grows(seed):
    census = initial_census(seed)
    assert census.a >= 0 and census.b == seed.t
    prev_total = 0
    for _ in range(8):
        total = census.a + census.b
        assert total > prev_total
        prev_total = total
        census = census_step(seed.r, census)


def test_boundary_profiles_of_grown_disks_are_valid_seeds():
    for r in (7, 8, 9, 12):
        disk = grow(seed_face(r), 2)
        profile = boundary_profile(disk)
        assert profile.r == r
        assert counts_from_boundary(profile) == count_explicit(disk)


@settings(max_examples=60, deadline=None)
@given(disk=convex_disks())
def test_the_oracle_counts_random_convex_disks_as_their_profile_predicts(disk):
    assert validate_disk(disk) == [] and is_convex(disk)
    assert count_explicit(disk) == counts_from_boundary(boundary_profile(disk))


@settings(max_examples=40, deadline=None)
@given(disk=convex_disks())
def test_random_convex_disks_grow_as_predicted(disk):
    for layer in predict_layers(boundary_profile(disk), 2):
        disk = expand(disk)
        assert count_explicit(disk) == layer.cumulative
        assert layer_census(disk) == layer.census


@settings(max_examples=60, deadline=None)
@given(disk=convex_disks())
def test_random_convex_disks_sum_to_the_mesh_invariants(disk):
    assert mesh_invariants_from_seed(boundary_profile(disk)) == mesh_invariants(disk.ambient_degree)


def _rows(layers) -> list[tuple]:
    """``LayerPrediction``s as ``reference_layers`` rows."""
    return [
        (p.n, p.census.a, p.census.b, *vars(p.deltas).values(), *vars(p.cumulative).values())
        for p in layers
    ]


@given(valid_seeds(max_r=1000), st.integers(min_value=1, max_value=60))
@settings(max_examples=60)
def test_both_rings_of_the_stream_equal_the_textbook_loop(seed, n):
    want = reference_layers(seed, n)
    rows = list(census_stream(seed, n))
    assert all(type(x) is Decimal for row in rows for x in row[1:])
    assert rows == [row[:9] for row in want]  # an int and a Decimal compare exactly
    rows = _rows(predict_layers(seed, n))
    assert all(type(x) is int for row in rows for x in row[1:])
    assert rows == want


@given(valid_seeds(max_r=1000), st.integers(min_value=1, max_value=60))
@settings(max_examples=60)
def test_the_stream_has_the_identities_its_writers_reuse(seed, n):
    # s_n = v_{n-1} and b_{n+1} = dv_n, from s_1 = v_0 (the base) and b_1 = t
    v_prev, b_next = counts_from_boundary(seed).v, seed.t
    layers = zip(census_stream(seed, n), predict_layers(seed, n), strict=True)
    for (_, _, b, dv, _, _, v, _, _), p in layers:
        assert b == b_next and p.cumulative.s == v_prev
        v_prev, b_next = v, dv


@given(valid_seeds(max_r=1000), st.integers(min_value=1, max_value=60))
@settings(max_examples=60)
def test_a_decimal_stream_ignores_a_coarse_caller_context(seed, n):
    with decimal.localcontext(decimal.Context(prec=3, traps=[])) as caller:
        rows = list(census_stream(seed, n))
        assert decimal.getcontext() is caller
        assert caller.prec == 3
        assert not any(caller.flags.values()) and not any(caller.traps.values())
    assert rows == [row[:9] for row in reference_layers(seed, n)]
