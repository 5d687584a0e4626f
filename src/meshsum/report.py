"""Growth and invariants reports with a canonical JSON form.

Reports are plain dicts, serialized with sorted keys, two-space indent,
and a trailing newline.  Exact counts are decimal strings and rationals
are {"num", "den"} objects, so a report round-trips byte for byte:
parse, re-serialize, same bytes.
"""

from __future__ import annotations

import json
from itertools import chain

from . import mesh
from .exact import int_to_json, rational_to_json
from .growth import LayerPrediction, SeedDescriptor, counts_from_boundary, predict_layers
from .mesh import BoundaryProfile, CombinatorialDisk, DiskCounts
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


def profile_to_json_obj(profile: BoundaryProfile | SeedDescriptor) -> dict:
    return {"t": int_to_json(profile.t), "d": int_to_json(profile.d)}


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


def seed_descriptor_for(text: str, r: int) -> SeedDescriptor:
    """'face' or 'vertex' (the profile of a canonical seed's first
    nondegenerate disk) or an explicit t:d boundary profile."""
    if text == "face":
        return SeedDescriptor(r, 3, 6)
    if text == "vertex":
        return SeedDescriptor(r, r, 3 * r)
    t_text, sep, d_text = text.partition(":")
    if not sep:
        raise ValueError(f"seed must be 'vertex', 'face', or t:d, got {text!r}")
    try:
        t, d = int(t_text), int(d_text)
    except ValueError:
        raise ValueError(f"seed t:d must be integers, got {text!r}") from None
    return SeedDescriptor(r, t, d)


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
    """
    if n_layers < 0:
        raise ValueError(f"layer count must be >= 0, got {n_layers}")
    layers = mesh.measured_layers(r, seed_kind, n_layers, budget)
    first = next(layers)  # checks the seed kind before anything else
    base_layer = 0 if seed_kind == "face" else 1
    descriptor = seed_descriptor_for(seed_kind, r)

    # predicted[k] is what explicit layer k is checked against
    base = {"n": None, "cum": counts_to_json_obj(counts_from_boundary(descriptor))}
    predicted = [None] * base_layer + [base]
    if n_layers > base_layer:
        predicted += map(prediction_to_json_obj, predict_layers(descriptor, n_layers - base_layer))

    def record(k: int) -> dict:
        return {"layer": k, "explicit": None, "census": None, "predicted": predicted[k],
                "match": None, "census_match": None}

    records = []
    all_match = True
    for measured in chain([first], layers):
        rec = record(measured.layer)
        counts = counts_to_json_obj(measured.counts)
        rec["explicit"] = dict(counts)
        if measured.profile is not None:
            rec["explicit"].update(profile_to_json_obj(measured.profile))
        census, pred = measured.census, rec["predicted"]
        if census is not None:
            rec["census"] = {"a": int_to_json(census.a), "b": int_to_json(census.b)}
        if pred is not None:
            rec["match"] = pred["cum"] == counts
            all_match = all_match and rec["match"]
        if measured.layer > base_layer:  # an analytic layer n >= 1, so both censuses exist
            rec["census_match"] = rec["census"] == {"a": pred["a"], "b": pred["b"]}
            all_match = all_match and rec["census_match"]
        records.append(rec)
    truncated = measured.layer < n_layers
    records += [record(k) for k in range(measured.layer + 1, n_layers + 1)]

    closed = mesh_invariants(r)
    from_seed = mesh_invariants_from_seed(descriptor)
    inv_obj = invariants_to_json_obj(r, closed)
    inv_obj["seed_descriptor"] = profile_to_json_obj(descriptor)
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
    return report, measured.disk


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
            entry["seed_descriptor"] = profile_to_json_obj(seed)
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
        "config": {"r": seed.r, "seed": profile_to_json_obj(seed), "layers": n_layers},
        "base": counts_to_json_obj(counts_from_boundary(seed)),
        "layers_predicted": layers,
    }
