"""Cross-verification battery: explicit growth against every closed form.

Each degree gets an independent, deterministically seeded run; degrees
are verified one after another in sorted order.  Each disk is measured
by one count_explicit call, which also checks every disk invariant; a
malformed disk fails the disk-invariants check and ends its seed's
layers.  Counts and boundary profile are carried into the next layer's
delta and census checks.  Fault injection deliberately corrupts one
comparison to prove the harness can fail.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction

from . import mesh
from .growth import (
    SeedDescriptor,
    census_step,
    counts_from_boundary,
    deltas_from_census,
    platonic_counts,
    predict_layers,
    second_order_step,
)
from .report import SCHEMA_VERSION, seed_descriptor_for
from .summation import (
    RecurrenceSeries,
    euler_formula_check,
    euler_sum,
    euler_sum_by_lemma,
    generating_value,
    mesh_invariants,
    mesh_invariants_from_seed,
    partial_sum,
)

FAULT_MODES = ("census", "invariants")
MAX_VERIFY_DEGREE = 1000
CONVERGENCE_GAP = Fraction(1, 10**12)


class _Tally:
    def __init__(self):
        self.checks: dict[str, list[int]] = {}
        self.violations: list[str] = []

    def record(self, name: str, ok: bool, detail: str = ""):
        slot = self.checks.setdefault(name, [0, 0])
        if ok:
            slot[0] += 1
        else:
            slot[1] += 1
            self.violations.append(f"{name}: {detail}" if detail else name)


def _verify_layers(r: int, seed_kind: str, layers: int, budget: int, tally: _Tally, fault):
    disk = mesh.seed_face(r) if seed_kind == "face" else mesh.seed_vertex(r)
    closed_inv = mesh_invariants(r)
    prev = counts = profile = None
    census_pred = None
    where = f"r={r} seed={seed_kind}"

    for layer in range(layers + 1):
        if layer > 0:
            try:
                prev, disk = disk, mesh.expand(disk, budget)
            except mesh.BudgetExceededError:
                break
        prev_counts, prev_profile = counts, profile
        tag = f"{where} layer={layer}"
        try:
            counts = mesh.count_explicit(disk)
        except mesh.MalformedDiskError as exc:
            tally.record("disk-invariants", False, f"{tag}: {exc}")
            break
        tally.record("disk-invariants", True)
        profile = None if disk.is_degenerate else mesh.boundary_profile(disk)
        tally.record(
            "euler-layer", counts.v - counts.e + counts.f == 1, f"{tag}: v-e+f != 1"
        )

        if profile is None:
            continue

        tally.record(
            "handshake",
            profile.d + r * counts.s == 2 * counts.e,
            f"{tag}: d + r*s != 2e",
        )
        tally.record(
            "triangulation",
            3 * counts.f + profile.t == 2 * counts.e,
            f"{tag}: 3f + t != 2e",
        )
        tally.record(
            "convexity",
            mesh.is_convex(disk),
            f"{tag}: boundary degree too high",
        )

        descriptor = SeedDescriptor(r, profile.t, profile.d)
        tally.record(
            "closed-form-counts",
            counts_from_boundary(descriptor) == counts,
            f"{tag}: boundary profile does not reproduce measured counts",
        )
        tally.record(
            "seed-independence",
            mesh_invariants_from_seed(descriptor) == closed_inv,
            f"{tag}: invariants depend on the seed profile",
        )

        if prev is None:
            continue
        try:
            census = mesh.layer_census(prev, disk)
        except mesh.CensusContradiction as exc:
            tally.record("census-degrees", False, f"{tag}: {exc}")
            continue
        tally.record("census-degrees", True)
        tally.record(
            "delta-linear-map",
            deltas_from_census(census) == mesh.delta_counts(prev_counts, counts),
            f"{tag}: measured deltas disagree with the census map",
        )
        if prev_profile is None:
            census_pred = None
            continue
        expected_a = prev_profile.t * (r - 2) - prev_profile.d
        expected_b = prev_profile.t
        a = census.a + (1 if fault == "census" and layer == 1 else 0)
        tally.record(
            "census-formulas",
            a == expected_a and census.b == expected_b,
            f"{tag}: census ({a}, {census.b}) != predicted ({expected_a}, {expected_b})",
        )
        if census_pred is not None:
            tally.record(
                "census-recursion",
                census == census_pred,
                f"{tag}: census disagrees with the linear recursion",
            )
        census_pred = census_step(r, census)


def _verify_analytics(r: int, trials: int, rng_seed: int, tally: _Tally, fault):
    where = f"r={r}"
    inv = mesh_invariants(r)
    tally.record("invariants-euler-formula", euler_formula_check(inv), f"{where}: v - e + f != 1")

    for seed_kind in ("face", "vertex"):
        descriptor = seed_descriptor_for(seed_kind, r)
        from_seed = mesh_invariants_from_seed(descriptor)
        if fault == "invariants" and seed_kind == "face":
            from_seed = type(from_seed)(from_seed.v + 1, from_seed.e, from_seed.f)
        tally.record(
            "seed-independence",
            from_seed == inv,
            f"{where} seed={seed_kind}: seeded invariants drift from closed form",
        )

        deltas = [p.deltas for p in predict_layers(descriptor, 50)]
        for name in ("dv", "de", "df"):
            series = [getattr(d, name) for d in deltas]
            ok = all(
                series[i + 2] == second_order_step(r, series[i], series[i + 1])
                for i in range(len(series) - 2)
            )
            tally.record(
                "recurrence-equivalence",
                ok,
                f"{where} seed={seed_kind} {name}: coupled and second-order forms disagree",
            )

        gamma = r - 4
        probe = RecurrenceSeries(gamma, deltas[0].dv, deltas[1].dv)
        t = Fraction(1, 2 * gamma)
        exact = generating_value(probe, t)
        gap = abs(partial_sum(probe, t, 40) - exact)
        tally.record(
            "convergence",
            gap <= abs(exact) * CONVERGENCE_GAP,
            f"{where} seed={seed_kind}: partial sums stall away from F(t)",
        )

    rng = random.Random(f"meshsum:{rng_seed}:{r}")
    for _ in range(trials):
        x1 = rng.randint(-10**6, 10**6)
        x2 = rng.randint(-10**6, 10**6)
        lhs = euler_sum(RecurrenceSeries(r - 4, x1, x2))
        rhs = euler_sum_by_lemma(r, x1, x2)
        tally.record(
            "sum-routes-agree",
            lhs == rhs,
            f"{where} x1={x1} x2={x2}: Euler sum routes disagree",
        )


def verify_degree(
    r: int,
    layers: int = 6,
    budget: int = mesh.DEFAULT_VERTEX_BUDGET,
    trials: int = 100,
    rng_seed: int = 0,
    fault: str | None = None,
) -> dict:
    """Full battery for one degree; returns its tally as JSON-ready dict."""
    tally = _Tally()
    for seed_kind in ("face", "vertex"):
        _verify_layers(r, seed_kind, layers, budget, tally, fault)
    _verify_analytics(r, trials, rng_seed, tally, fault)
    return {
        "r": r,
        "checks": {name: {"pass": p, "fail": f} for name, (p, f) in sorted(tally.checks.items())},
        "violations": tally.violations,
    }


def run_verification(
    degrees: Sequence[int],
    layers: int = 6,
    budget: int = mesh.DEFAULT_VERTEX_BUDGET,
    trials: int = 100,
    rng_seed: int = 0,
    fault: str | None = None,
) -> dict:
    """Verify every degree, one after another in sorted order; merge the tallies."""
    if fault is not None and fault not in FAULT_MODES:
        raise ValueError(f"unknown fault mode {fault!r}; expected one of {FAULT_MODES}")
    if layers < 0 or trials < 0:
        raise ValueError(f"layers and trials must be >= 0, got {layers} and {trials}")
    # any() stops at the first bad degree, so a huge range is never materialised
    if any(r < mesh.MIN_DEGREE or r > MAX_VERIFY_DEGREE for r in degrees):
        raise ValueError(
            f"verification degrees must lie within {mesh.MIN_DEGREE}..{MAX_VERIFY_DEGREE}"
        )
    degrees = sorted(set(degrees))
    if not degrees:
        raise ValueError("no degrees to verify")
    results = [verify_degree(r, layers, budget, trials, rng_seed, fault) for r in degrees]

    merged: dict[str, dict[str, int]] = {}
    violations: list[str] = []
    for res in results:
        for name, counts in res["checks"].items():
            slot = merged.setdefault(name, {"pass": 0, "fail": 0})
            slot["pass"] += counts["pass"]
            slot["fail"] += counts["fail"]
        violations.extend(res["violations"])

    pv, pe, pf = platonic_counts(3), platonic_counts(4), platonic_counts(5)
    platonic_ok = (pv, pe, pf) == ((4, 6, 4), (6, 12, 8), (12, 30, 20))
    merged["platonic"] = {"pass": int(platonic_ok), "fail": int(not platonic_ok)}
    if not platonic_ok:
        violations.append("platonic: closed surfaces disagree with the reference counts")

    all_pass = all(c["fail"] == 0 for c in merged.values())
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "verify-report",
        "config": {
            "degrees": degrees,
            "layers": layers,
            "budget": budget,
            "trials": trials,
            "rng_seed": rng_seed,
            "fault": fault,
        },
        "checks": {name: merged[name] for name in sorted(merged)},
        "per_degree": results,
        "violations": violations,
        "all_pass": all_pass,
    }
