"""Growth, prediction and invariants reports and disk JSON, in a canonical JSON form.

Reports are serialized with sorted keys, two-space indent, and a trailing
newline.  Exact counts are decimal strings and rationals are {"num",
"den"} objects, so a report round-trips byte for byte: parse,
re-serialize, same bytes.  Growth, prediction and invariants reports are
written to a stream one list entry at a time, and disk JSON straight from
a disk's arrays, in exactly the bytes ``canonical_json`` would give the
whole dict.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from decimal import Decimal
from itertools import chain
from typing import TextIO

from . import mesh
from .exact import int_to_json, rational_to_json
from .growth import (
    LayerPrediction,
    SeedDescriptor,
    check_layer_count,
    counts_from_boundary,
    layer_predictions,
)
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


def disk_json(disk: CombinatorialDisk) -> str:
    """``canonical_json`` of the portable disk form {"boundary", "layer", "r",
    "rotation"}, written straight from the CSR arrays: each vertex id's
    decimal string is made once and looked up per slot."""
    graph = disk.graph
    nv, ids, bounds = graph.vertex_count, graph.neighbors, graph.offsets.tolist()
    in_range = not ids.size or (ids.min() >= 0 and ids.max() < nv)
    slots = list(map(list(map(str, range(nv))).__getitem__ if in_range else str, ids.tolist()))
    rows = [
        "[\n      " + ",\n      ".join(slots[a:b]) + "\n    ]" if a < b else "[]"
        for a, b in zip(bounds, bounds[1:])
    ]
    boundary, rotation = (
        "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"
        for items in (list(map(str, disk.boundary.tolist())), rows)
    )
    return '{\n  "boundary": %s,\n  "layer": %d,\n  "r": %d,\n  "rotation": %s\n}\n' % (
        boundary, disk.layer_index, disk.ambient_degree, rotation
    )


_ENTRIES = "@entries@"


def _write_canonical(out: TextIO, report: dict, key: str, entries: Iterable[str]) -> None:
    """Write ``canonical_json`` of ``report`` with ``report[key]`` a list
    whose entries arrive one at a time, each already in its canonical JSON
    at the list's depth (``key`` is a top-level key).  Only one entry is
    held at a time.
    """
    entries = iter(entries)
    first = next(entries, None)
    if first is None:
        out.write(canonical_json({**report, key: []}))
        return
    head, tail = canonical_json({**report, key: [_ENTRIES]}).split(f'    "{_ENTRIES}"')
    out.write(head + first)
    for text in entries:
        out.write(",\n" + text)
    out.write(tail)


def _entry_json(entry) -> str:
    """``canonical_json`` of one entry of a top-level list, at the list's depth."""
    return "    " + canonical_json(entry)[:-1].replace("\n", "\n    ")


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

    Returns the report dict and the largest disk actually built.  The
    report's "layers" is an iterator, to be read once: the built layers'
    records are held, and the layers the budget rules out follow one at a
    time from the analytic side alone, with a null match flag.  The
    analytic base for the vertex seed is its first expansion (the fan), so
    explicit layer k matches analytic layer k-1.  Every layer, built or
    not, is predicted by one exact ``Decimal`` stream, the one ``predict``
    writes: a built layer is checked against the very digits the report
    prints, and no digit limit applies.
    """
    if n_layers < 0:
        raise ValueError(f"layer count must be >= 0, got {n_layers}")
    layers = mesh.measured_layers(r, seed_kind, n_layers, budget)
    first = next(layers)  # checks the seed kind before anything else
    base_layer = 0 if seed_kind == "face" else 1
    descriptor = seed_descriptor_for(seed_kind, r)
    n_analytic = n_layers - base_layer
    analytic = ()
    if n_analytic > 0:
        check_layer_count(n_analytic)  # before growing anything
        analytic = layer_predictions(descriptor, n_analytic, Decimal)
    # what layer k = 0, 1, ... is checked against, built or not
    predicted = chain(
        [None] * base_layer,
        [{"n": None, "cum": counts_to_json_obj(counts_from_boundary(descriptor))}],
        map(prediction_to_json_obj, analytic),
    )

    def record(k: int, pred: dict | None) -> dict:
        return {"layer": k, "explicit": None, "census": None, "predicted": pred,
                "match": None, "census_match": None}

    records = []
    all_match = True
    for measured, pred in zip(chain([first], layers), predicted):
        k, profile, census = measured.layer, measured.profile, measured.census
        rec = record(k, pred)
        counts = counts_to_json_obj(measured.counts)
        rec["explicit"] = dict(counts)
        if profile is not None:
            rec["explicit"].update(profile_to_json_obj(profile))
        if census is not None:
            rec["census"] = {"a": int_to_json(census.a), "b": int_to_json(census.b)}
        if pred is not None:
            rec["match"] = pred["cum"] == counts
            all_match = all_match and rec["match"]
        if k > base_layer:  # an analytic layer n >= 1, so both censuses exist
            rec["census_match"] = rec["census"] == {"a": pred["a"], "b": pred["b"]}
            all_match = all_match and rec["census_match"]
        records.append(rec)
    truncated = measured.layer < n_layers
    analytic_records = map(record, range(measured.layer + 1, n_layers + 1), predicted)

    inv_obj = invariants_entry(r, descriptor)
    del inv_obj["via_seed"]
    all_match = all_match and inv_obj["seed_match"]

    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "growth-report",
        "config": {"r": r, "seed": seed_kind, "n_max": n_layers, "budget": budget},
        "layers": chain(records, analytic_records),
        "invariants": inv_obj,
        "truncated_at_budget": truncated,
        "all_match": all_match,
    }
    return report, measured.disk


def write_growth_report(report: dict, out: TextIO) -> None:
    """Write a ``growth_report`` report as canonical JSON, reading its
    layers once, one record at a time."""
    _write_canonical(out, report, "layers", map(_entry_json, report["layers"]))


def invariants_entry(r: int, seed: SeedDescriptor | None = None) -> dict:
    """Closed-form invariants of degree r; at the seed's degree also the
    seed-routed values and an exact equality flag, ``seed_match``."""
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
    return entry


# One unseeded "degrees" entry exactly as canonical_json lays it out.
_INVARIANTS_ENTRY = """\
    {
      "eM": %s,
      "euler_check": %s,
      "fM": %s,
      "r": %d,
      "vM": %s
    }"""


def _rational(q: dict) -> str:
    return f'{{\n        "den": "{q["den"]}",\n        "num": "{q["num"]}"\n      }}'


def _invariants_json(entry: dict) -> str:
    """An ``invariants_entry`` as ``canonical_json`` lays it out in the list."""
    if "seed_match" in entry:  # the seed's degree: at most once per report
        return _entry_json(entry)
    eM, fM, vM = (_rational(entry[k]) for k in ("eM", "fM", "vM"))
    euler = "true" if entry["euler_check"] else "false"
    return _INVARIANTS_ENTRY % (eM, euler, fM, entry["r"], vM)


def invariants_report(degrees: Sequence[int], seed: SeedDescriptor | None, out: TextIO) -> bool:
    """Write ``invariants_entry`` of every degree as canonical JSON, one
    entry at a time; returns ``all_match``.

    ``all_match`` sorts before the entries, so it is settled first: only
    the seed's own degree can fail it.
    """
    all_match = (
        seed is None or seed.r not in degrees or invariants_entry(seed.r, seed)["seed_match"]
    )
    head = {"schema_version": SCHEMA_VERSION, "kind": "invariants-report", "all_match": all_match}
    entries = (_invariants_json(invariants_entry(r, seed)) for r in degrees)
    _write_canonical(out, head, "degrees", entries)
    return all_match


# One "layers_predicted" entry exactly as canonical_json lays it out.
_PREDICTED_LAYER = """\
    {
      "a": "%s",
      "b": "%s",
      "cum": {
        "e": "%s",
        "f": "%s",
        "s": "%s",
        "v": "%s"
      },
      "de": "%s",
      "df": "%s",
      "dv": "%s",
      "n": %d
    }"""


def _predicted_layer(p: LayerPrediction) -> str:
    census, deltas, cum = p.census, p.deltas, p.cumulative
    values = (census.a, census.b, cum.e, cum.f, cum.s, cum.v, deltas.de, deltas.df, deltas.dv)
    return _PREDICTED_LAYER % (*map(int_to_json, values), p.n)


def prediction_report(seed: SeedDescriptor, n_layers: int, out: TextIO) -> None:
    """Write the pure analytic layer table for an arbitrary valid seed as
    canonical JSON, one layer at a time."""
    layers = layer_predictions(seed, n_layers, Decimal)
    first = next(layers)  # checks n_layers before anything is written
    head = {
        "schema_version": SCHEMA_VERSION,
        "kind": "prediction-report",
        "config": {"r": seed.r, "seed": profile_to_json_obj(seed), "layers": n_layers},
        "base": counts_to_json_obj(counts_from_boundary(seed)),
    }
    _write_canonical(out, head, "layers_predicted", map(_predicted_layer, chain([first], layers)))
