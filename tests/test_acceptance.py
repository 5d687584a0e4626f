"""Acceptance gate: ten criteria, one printed pass/fail line each.

The heavy explicit sweep (degrees 7..12, both seeds, every layer within a
million cumulative vertices) is built once and shared by the criteria
that consume it.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest

from conftest import record_acceptance
from meshsum import (
    BudgetExceededError,
    RecurrenceSeries,
    SeedDescriptor,
    boundary_profile,
    census_step,
    count_explicit,
    counts_from_boundary,
    deltas_from_census,
    euler_sum,
    euler_sum_by_lemma,
    expand,
    generating_value,
    initial_census,
    layer_census,
    mesh_invariants,
    mesh_invariants_from_seed,
    partial_sum,
    platonic_counts,
    predict_layers,
    second_order_step,
    seed_face,
    seed_vertex,
)
from meshsum.cli import main
from meshsum.report import seed_descriptor_for

SWEEP_DEGREES = range(7, 13)
SWEEP_BUDGET = 1_000_000


def check(number: int, ok: bool, description: str) -> None:
    line = f"criterion {number:>2}: {'PASS' if ok else 'FAIL'} - {description}"
    record_acceptance(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep():
    """Explicit growth data for criteria 3-5, measured once."""
    combos = []
    start = time.perf_counter()
    for r in SWEEP_DEGREES:
        for kind in ("face", "vertex"):
            disk = seed_face(r) if kind == "face" else seed_vertex(r)
            layers = []
            prev = None
            while True:
                profile = None if disk.is_degenerate else boundary_profile(disk)
                census = None
                contradiction = False
                if prev is not None:
                    try:
                        census = layer_census(disk)
                    except Exception:
                        contradiction = True
                layers.append(
                    {
                        "counts": count_explicit(disk),
                        "profile": None if profile is None else (profile.t, profile.d),
                        "prev_profile": None
                        if prev is None or prev.is_degenerate
                        else (len(prev.boundary), boundary_profile(prev).d),
                        "prev_boundary_len": None if prev is None else len(prev.boundary),
                        "census": census,
                        "census_contradiction": contradiction,
                    }
                )
                try:
                    prev, disk = disk, expand(disk, SWEEP_BUDGET)
                except BudgetExceededError:
                    break
            combos.append({"r": r, "kind": kind, "layers": layers})
    elapsed = time.perf_counter() - start
    return {"combos": combos, "elapsed": elapsed}


def test_criterion_1_invariant_closed_forms():
    start = time.perf_counter()
    ok = True
    for r in range(7, 1001):
        inv = mesh_invariants(r)
        ok = ok and inv.v == Fraction(-6, r - 6)
        ok = ok and inv.e == Fraction(-3 * r, r - 6)
        ok = ok and inv.f == Fraction(-2 * r, r - 6)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    check(1, ok, f"closed-form invariants exact for r=7..1000 in {elapsed:.3f}s (< 1 s)")


def test_criterion_2_euler_formula():
    ok = all(
        mesh_invariants(r).v - mesh_invariants(r).e + mesh_invariants(r).f == 1
        for r in range(7, 1001)
    )
    check(2, ok, "vM - eM + fM = 1 exactly for r=7..1000")


def test_criterion_3_seed_independence(sweep):
    ok = True
    tested = 0
    for r in SWEEP_DEGREES:
        closed = mesh_invariants(r)
        for descriptor in (SeedDescriptor(r, 3, 6), SeedDescriptor(r, r, 3 * r)):
            ok = ok and mesh_invariants_from_seed(descriptor) == closed
            tested += 1
    for combo in sweep["combos"]:
        closed = mesh_invariants(combo["r"])
        for rec in combo["layers"]:
            if rec["profile"] is None:
                continue
            t, d = rec["profile"]
            ok = ok and mesh_invariants_from_seed(SeedDescriptor(combo["r"], t, d)) == closed
            tested += 1
    check(3, ok, f"invariants identical from {tested} seed profiles (canonical + every grown layer)")


def test_criterion_4_oracle_equivalence(sweep):
    ok = True
    layers_checked = 0
    for combo in sweep["combos"]:
        r, kind = combo["r"], combo["kind"]
        base_layer = 0 if kind == "face" else 1
        descriptor = seed_descriptor_for(kind, r)
        depth = len(combo["layers"]) - 1 - base_layer
        preds = predict_layers(descriptor, depth) if depth >= 1 else []
        for k, rec in enumerate(combo["layers"]):
            counts = rec["counts"]
            ok = ok and counts.v - counts.e + counts.f == 1
            if rec["profile"] is not None:
                t, d = rec["profile"]
                ok = ok and d + r * counts.s == 2 * counts.e  # handshake
                ok = ok and 3 * counts.f + t == 2 * counts.e  # triangulation
            n = k - base_layer
            if n == 0:
                ok = ok and counts == counts_from_boundary(descriptor)
            elif n >= 1:
                ok = ok and counts == preds[n - 1].cumulative
            layers_checked += 1
    elapsed = sweep["elapsed"]
    ok = ok and elapsed < 30.0
    check(
        4,
        ok,
        f"explicit counts = predictions on {layers_checked} layers to 1e6 vertices "
        f"in {elapsed:.1f}s (< 30 s)",
    )


def test_criterion_5_census_structure(sweep):
    ok = True
    exceptions = 0
    for combo in sweep["combos"]:
        r = combo["r"]
        for rec in combo["layers"]:
            if rec["census_contradiction"]:
                exceptions += 1
            census = rec["census"]
            if census is None:
                continue
            ok = ok and census.b == rec["prev_boundary_len"]
            if rec["prev_profile"] is not None:
                t, d = rec["prev_profile"]
                ok = ok and census.a == t * (r - 2) - d
    ok = ok and exceptions == 0
    check(
        5,
        ok,
        f"all new boundary degrees in {{3,4}}, a = t(r-2)-d, b = previous t; "
        f"{exceptions} exceptions",
    )


def test_criterion_6_recurrence_equivalence():
    ok = True
    for r in SWEEP_DEGREES:
        for kind in ("face", "vertex"):
            census = initial_census(seed_descriptor_for(kind, r))
            dv, de, df = [], [], []
            for _ in range(52):
                deltas = deltas_from_census(census)
                dv.append(deltas.dv)
                de.append(deltas.de)
                df.append(deltas.df)
                census = census_step(r, census)
            for series in (dv, de, df):
                ok = ok and all(
                    series[i + 2] == second_order_step(r, series[i], series[i + 1])
                    for i in range(50)
                )
    check(6, ok, "coupled census recursion = second-order form, n <= 50, r=7..12")


def test_criterion_7_summation_routes():
    rng = random.Random("meshsum-acceptance-7")
    ok = True
    for _ in range(1000):
        r = rng.randint(7, 200)
        x1 = rng.randint(-(10**9), 10**9)
        x2 = rng.randint(-(10**9), 10**9)
        ok = ok and euler_sum(RecurrenceSeries(r - 4, x1, x2)) == euler_sum_by_lemma(r, x1, x2)
    check(7, ok, "1000 seeded random triples: both closed-form sum routes agree exactly")


def test_criterion_8_convergent_regime():
    ok = True
    bound = Fraction(1, 10**12)
    for r in SWEEP_DEGREES:
        descriptor = SeedDescriptor(r, 3, 6)
        c1 = initial_census(descriptor)
        c2 = census_step(r, c1)
        series = RecurrenceSeries(
            r - 4, deltas_from_census(c1).dv, deltas_from_census(c2).dv
        )
        t = Fraction(1, 2 * (r - 4))
        target = generating_value(series, t)
        gap = abs(partial_sum(series, t, 60) - target)
        ok = ok and gap < abs(target) * bound
    check(8, ok, "v-series partial sums (N=60) within 1e-12 of F(t) at t=1/(2(r-4))")


def test_criterion_9_platonic_reference():
    ok = (
        platonic_counts(3) == (4, 6, 4)
        and platonic_counts(4) == (6, 12, 8)
        and platonic_counts(5) == (12, 30, 20)
    )
    check(9, ok, "platonic counts (4,6,4), (6,12,8), (12,30,20) for r=3,4,5")


def test_criterion_10_determinism(capfd, tmp_path):
    argv = ["grow", "-r", "7", "--seed", "face", "-n", "4", "--json"]
    assert main(list(argv)) == 0
    first = capfd.readouterr().out
    assert main(list(argv)) == 0
    second = capfd.readouterr().out

    disk_path = tmp_path / "disk.json"
    main(["grow", "-r", "7", "--seed", "face", "-n", "2", "--emit-disk", str(disk_path)])
    capfd.readouterr()
    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    main(["render", str(disk_path), "-o", str(svg_a)])
    main(["render", str(disk_path), "-o", str(svg_b)])
    capfd.readouterr()
    ok = first == second and svg_a.read_bytes() == svg_b.read_bytes()
    ok = ok and json.loads(first)["all_match"] is True
    check(10, ok, "grow --json and render outputs byte-identical across runs")
