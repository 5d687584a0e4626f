"""Cross-verification battery: explicit growth against every closed form.

Each degree gets an independent, deterministically seeded run, over the seeds
of ``growth.CANONICAL_SEEDS`` in order.  The calling thread and, for two
degrees on two usable CPUs, one helper take degrees largest first (numpy drops
the GIL in its sorts and gathers); after an error or Ctrl-C neither takes
another, and the caller waits for the helper's degree before it raises.
Tallies merge in sorted degree order.  The explicit layers come from
mesh.measured_layers, whose count_explicit call also checks every disk
invariant; a malformed disk fails the disk-invariants check and a census
contradiction fails census-degrees, and either ends its seed's layers.  Counts
and boundary profile carry into the next layer's delta and census checks.
Fault injection corrupts one comparison to prove the harness can fail; a
degree where it corrupts nothing fails an ``inject-fault`` check instead.
"""

from __future__ import annotations

import os
import random
import threading
from collections.abc import Sequence
from fractions import Fraction

from . import exact, mesh
from .growth import (
    CANONICAL_SEEDS,
    MIN_DEGREE,
    SeedDescriptor,
    census_step,
    counts_from_boundary,
    deltas_from_census,
    initial_census,
    platonic_counts,
    predict_layers,
    second_order_step,
)
from .report import FAULT_MODES, SCHEMA_VERSION, seed_descriptor_for
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

MAX_VERIFY_DEGREE = 1000
MAX_TRIALS = 1_000_000  # a trial takes about 8 µs: at most about 8 s a degree
CONVERGENCE_GAP = Fraction(1, 10**12)


class _Tally:
    def __init__(self):
        self.checks: dict[str, dict[str, int]] = {}  # the report's {"pass", "fail"} entries
        self.violations: list[str] = []

    def record(self, name: str, ok: bool, detail: str = ""):
        self.checks.setdefault(name, {"pass": 0, "fail": 0})["pass" if ok else "fail"] += 1
        if not ok:
            self.violations.append(f"{name}: {detail}" if detail else name)


def _verify_layers(r: int, seed_kind: str, layers: int, budget: int, tally: _Tally, fault):
    closed_inv = mesh_invariants(r)
    counts = profile = census_pred = None
    try:  # a layer that fails measurement ends this seed's layers
        for measured in mesh.measured_layers(r, seed_kind, layers, budget):
            prev_counts, prev_profile = counts, profile
            counts, profile, census = measured.counts, measured.profile, measured.census
            tag = f"r={r} seed={seed_kind} layer={measured.layer}"
            tally.record("disk-invariants", True)
            tally.record("euler-layer", counts.v - counts.e + counts.f == 1, f"{tag}: v-e+f != 1")

            if profile is None:
                continue

            descriptor = SeedDescriptor(r, profile.t, profile.d)
            for name, ok, detail in (
                ("handshake", profile.d + r * counts.s == 2 * counts.e, "d + r*s != 2e"),
                ("triangulation", 3 * counts.f + profile.t == 2 * counts.e, "3f + t != 2e"),
                ("convexity", mesh.is_convex(measured.disk), "boundary degree too high"),
                ("closed-form-counts", counts_from_boundary(descriptor) == counts,
                 "boundary profile does not reproduce measured counts"),
                ("seed-independence", mesh_invariants_from_seed(descriptor) == closed_inv,
                 "invariants depend on the seed profile"),
            ):
                tally.record(name, ok, f"{tag}: {detail}")

            if census is None:
                continue
            tally.record("census-degrees", True)
            tally.record(
                "delta-linear-map",
                deltas_from_census(census) == mesh.delta_counts(prev_counts, counts),
                f"{tag}: measured deltas disagree with the census map",
            )
            if prev_profile is None:
                continue
            expected = initial_census(SeedDescriptor(r, prev_profile.t, prev_profile.d))
            a = census.a + (1 if fault == "census" and measured.layer == 1 else 0)
            tally.record(
                "census-formulas",
                a == expected.a and census.b == expected.b,
                f"{tag}: census ({a}, {census.b}) != predicted ({expected.a}, {expected.b})",
            )
            if census_pred is not None:
                tally.record(
                    "census-recursion",
                    census == census_pred,
                    f"{tag}: census disagrees with the linear recursion",
                )
            census_pred = census_step(r, census)
    except mesh.MalformedDiskError as exc:
        tally.record("disk-invariants", False, str(exc))
    except mesh.CensusContradiction as exc:
        tally.record("census-degrees", False, str(exc))


def _verify_analytics(r: int, trials: int, rng_seed: int, tally: _Tally, fault):
    where = f"r={r}"
    inv = mesh_invariants(r)
    tally.record("invariants-euler-formula", euler_formula_check(inv), f"{where}: v - e + f != 1")

    for seed_kind in CANONICAL_SEEDS:
        descriptor = seed_descriptor_for(seed_kind, r)
        from_seed = mesh_invariants_from_seed(descriptor)
        if fault == "invariants" and seed_kind == next(iter(CANONICAL_SEEDS)):
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
        value = generating_value(probe, t)
        gap = abs(partial_sum(probe, t, 40) - value)
        tally.record(
            "convergence",
            gap <= abs(value) * CONVERGENCE_GAP,
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
    for seed_kind in CANONICAL_SEEDS:
        _verify_layers(r, seed_kind, layers, budget, tally, fault)
    _verify_analytics(r, trials, rng_seed, tally, fault)
    if fault is not None and not tally.violations:  # nothing measured was corrupted
        tally.record("inject-fault", False, f"r={r}: the {fault} fault corrupted no check")
    return {"r": r, "checks": dict(sorted(tally.checks.items())), "violations": tally.violations}


def run_verification(
    degrees: Sequence[int],
    layers: int = 6,
    budget: int = mesh.DEFAULT_VERTEX_BUDGET,
    trials: int = 100,
    rng_seed: int = 0,
    fault: str | None = None,
) -> dict:
    """Verify the degrees on this thread and at most one helper; merge in sorted order."""
    if fault is not None and fault not in FAULT_MODES:
        raise ValueError(f"unknown fault mode {fault!r}; expected one of {FAULT_MODES}")
    if layers < 0 or trials < 0:
        raise ValueError(f"layers and trials must be >= 0, got {layers} and {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {exact.brief(trials)}")
    # any() stops at the first bad degree, so a huge range is never materialised
    if any(r < MIN_DEGREE or r > MAX_VERIFY_DEGREE for r in degrees):
        raise ValueError(f"verification degrees must lie within {MIN_DEGREE}..{MAX_VERIFY_DEGREE}")
    degrees = sorted(set(degrees))
    if not degrees:
        raise ValueError("no degrees to verify")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    todo = reversed(degrees)  # largest degree first
    lock, helper_done = threading.Lock(), threading.Event()
    tallies: dict[int, dict] = {}
    errors: dict[int, Exception] = {}
    stopped = False

    def take():
        with lock:
            return None if stopped else next(todo, None)

    def work():
        nonlocal stopped
        for r in iter(take, None):
            try:
                tallies[r] = verify_degree(r, layers, budget, trials, rng_seed, fault)
            except Exception as exc:  # raised below: the largest failing degree's
                errors[r] = exc
                stopped = True

    def helper_work():
        work()
        helper_done.set()

    helper = threading.Thread(target=helper_work) if min(cpus or 1, len(degrees)) > 1 else None
    try:
        if helper is not None:
            helper.start()
        work()
        if helper is not None:  # not join(): Ctrl-C in join() marks a live thread stopped
            helper_done.wait()
    finally:
        with lock:
            stopped = True
        if helper is not None and helper.is_alive():  # a helper not alive yet sees stopped
            helper.join()
    if errors:
        raise errors[max(errors)]
    results = [tallies[r] for r in degrees]

    merged = _Tally()
    for res in results:
        for name, counts in res["checks"].items():
            slot = merged.checks.setdefault(name, {"pass": 0, "fail": 0})
            slot["pass"] += counts["pass"]
            slot["fail"] += counts["fail"]
        merged.violations += res["violations"]
    merged.record(
        "platonic",
        [platonic_counts(r) for r in (3, 4, 5)] == [(4, 6, 4), (6, 12, 8), (12, 30, 20)],
        "closed surfaces disagree with the reference counts",
    )
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
        "checks": dict(sorted(merged.checks.items())),
        "per_degree": results,
        "violations": merged.violations,
        "all_pass": not merged.violations,  # each failure records one violation
    }
