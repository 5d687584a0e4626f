"""Growth and invariants reports with a canonical JSON form.

Reports are plain dicts, serialized with sorted keys, two-space indent,
and a trailing newline.  Exact counts are decimal strings and rationals
are {"num", "den"} objects, so a report round-trips byte for byte:
parse, re-serialize, same bytes.
"""

from __future__ import annotations

import json

from . import mesh
from .exact import int_to_json, rational_to_json
from .growth import LayerPrediction, SeedDescriptor, counts_from_boundary, predict_layers
from .mesh import CombinatorialDisk, DiskCounts
from .summation import (
    MeshInvariants,
    euler_formula_check,
    mesh_invariants,
    mesh_invariants_from_seed,
)

SCHEMA_VERSION = "meshsum/1"


def canonical_json(obj) -> str:
    """The one serialization used everywhere bytes must be reproducible."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def counts_to_json_obj(counts: DiskCounts) -> dict:
    return {
        "v": int_to_json(counts.v),
        "e": int_to_json(counts.e),
        "f": int_to_json(counts.f),
        "s": int_to_json(counts.s),
    }


def prediction_to_json_obj(pred: LayerPrediction) -> dict:
    return {
        "n": pred.n,
        "a": int_to_json(pred.census.a),
        "b": int_to_json(pred.census.b),
        "dv": int_to_json(pred.deltas.dv),
        "de": int_to_json(pred.deltas.de),
        "df": int_to_json(pred.deltas.df),
        "cum": counts_to_json_obj(pred.cumulative),
    }


def invariants_to_json_obj(r: int, inv: MeshInvariants) -> dict:
    return {
        "r": r,
        "vM": rational_to_json(inv.v),
        "eM": rational_to_json(inv.e),
        "fM": rational_to_json(inv.f),
        "euler_check": euler_formula_check(inv),
    }


def seed_descriptor_for(seed_kind: str, r: int) -> SeedDescriptor:
    """Profile of the first nondegenerate disk of a canonical seed."""
    if seed_kind == "face":
        return SeedDescriptor(r, 3, 6)
    if seed_kind == "vertex":
        return SeedDescriptor(r, r, 3 * r)
    raise ValueError(f"unknown seed kind {seed_kind!r}")


def growth_report(
    r: int,
    seed_kind: str,
    n_layers: int,
    budget: int = mesh.DEFAULT_VERTEX_BUDGET,
) -> tuple[dict, CombinatorialDisk]:
    """Grow explicitly, predict analytically, and reconcile layer by layer.

    Returns the report dict and the largest disk actually built.  Layers
    the budget rules out are reported from the analytic side alone with a
    null match flag.  The analytic base for the vertex seed is its first
    expansion (the fan), so explicit layer k matches analytic layer k-1.
    Only the current disk and its predecessor are kept alive.
    """
    if n_layers < 0:
        raise ValueError(f"layer count must be >= 0, got {n_layers}")
    disk = mesh.seed_face(r) if seed_kind == "face" else mesh.seed_vertex(r)
    base_layer = 0 if seed_kind == "face" else 1
    descriptor = seed_descriptor_for(seed_kind, r)

    analytic_depth = n_layers - base_layer
    predictions = predict_layers(descriptor, analytic_depth) if analytic_depth >= 1 else []
    base_counts = counts_to_json_obj(counts_from_boundary(descriptor))
    records = []
    all_match = True
    truncated = False
    for k in range(n_layers + 1):
        rec: dict = {"layer": k, "explicit": None, "census": None, "predicted": None,
                     "match": None, "census_match": None}
        n = k - base_layer
        if n == 0:
            rec["predicted"] = {"n": None, "cum": base_counts}
        elif n >= 1:
            rec["predicted"] = prediction_to_json_obj(predictions[n - 1])

        if k >= 1 and not truncated:
            prev = disk
            try:
                disk = mesh.expand(prev, budget)
            except mesh.BudgetExceededError:
                truncated = True
        if not truncated:
            measured = counts_to_json_obj(mesh.count_explicit(disk))
            entry = dict(measured)
            if not disk.is_degenerate:
                profile = mesh.boundary_profile(disk)
                entry["t"] = int_to_json(profile.t)
                entry["d"] = int_to_json(profile.d)
            rec["explicit"] = entry
            if k >= 1:
                census = mesh.layer_census(prev, disk)
                rec["census"] = {"a": int_to_json(census.a), "b": int_to_json(census.b)}
            if rec["predicted"] is not None:
                rec["match"] = rec["predicted"]["cum"] == measured
                all_match = all_match and rec["match"]
            if n >= 1 and rec["census"] is not None:
                rec["census_match"] = (
                    rec["census"]["a"] == rec["predicted"]["a"]
                    and rec["census"]["b"] == rec["predicted"]["b"]
                )
                all_match = all_match and rec["census_match"]
        records.append(rec)

    closed = mesh_invariants(r)
    from_seed = mesh_invariants_from_seed(descriptor)
    inv_obj = invariants_to_json_obj(r, closed)
    inv_obj["seed_descriptor"] = {"t": int_to_json(descriptor.t), "d": int_to_json(descriptor.d)}
    inv_obj["seed_match"] = from_seed == closed
    all_match = all_match and inv_obj["seed_match"]

    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "growth-report",
        "config": {"r": r, "seed": seed_kind, "n_max": n_layers, "budget": budget},
        "layers": records,
        "invariants": inv_obj,
        "truncated_at_budget": truncated,
        "all_match": all_match,
    }
    return report, disk


def invariants_report(degrees: list[int], seed: SeedDescriptor | None = None) -> dict:
    """Closed-form invariants per degree, optionally checked against a seed.

    With a custom seed descriptor the report carries both routes and an
    exact equality flag (the seed's degree must be in ``degrees``).
    """
    entries = []
    all_match = True
    for r in degrees:
        closed = mesh_invariants(r)
        entry = invariants_to_json_obj(r, closed)
        if seed is not None and seed.r == r:
            via_seed = mesh_invariants_from_seed(seed)
            entry["seed_descriptor"] = {
                "t": int_to_json(seed.t),
                "d": int_to_json(seed.d),
            }
            entry["via_seed"] = {
                "vM": rational_to_json(via_seed.v),
                "eM": rational_to_json(via_seed.e),
                "fM": rational_to_json(via_seed.f),
            }
            entry["seed_match"] = via_seed == closed
            all_match = all_match and entry["seed_match"]
        entries.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "invariants-report",
        "degrees": entries,
        "all_match": all_match,
    }


def prediction_report(seed: SeedDescriptor, n_layers: int) -> dict:
    """Pure analytic layer table for an arbitrary valid seed."""
    layers = [prediction_to_json_obj(p) for p in predict_layers(seed, n_layers)]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "prediction-report",
        "config": {
            "r": seed.r,
            "seed": {"t": int_to_json(seed.t), "d": int_to_json(seed.d)},
            "layers": n_layers,
        },
        "base": counts_to_json_obj(counts_from_boundary(seed)),
        "layers_predicted": layers,
    }
