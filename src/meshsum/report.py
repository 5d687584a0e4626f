"""Growth, prediction and invariants reports and disk JSON, in a canonical JSON form.

Reports are serialized with sorted keys, two-space indent, and a trailing
newline.  Exact counts are decimal strings and rationals are {"num",
"den"} objects, so a report round-trips byte for byte: parse,
re-serialize, same bytes.  Growth, prediction and invariants reports are
written to a stream one list entry at a time, and disk JSON straight from
a disk's arrays, in exactly the bytes ``canonical_json`` would give the
whole dict.  Every predicted layer ``grow`` and ``predict`` print, as JSON
or as a table, comes from one text stream of ``census_stream`` layers,
``_layer_texts``; ``layer_predictions`` and ``prediction_to_json_obj`` are gone.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from decimal import Decimal
from itertools import chain
from typing import TYPE_CHECKING, TextIO

from .exact import brief, int_from_text, int_to_json, rational_to_json
from .growth import (
    DEFAULT_VERTEX_BUDGET,
    DiskCounts,
    SeedDescriptor,
    census_stream,
    check_layer_count,
    counts_from_boundary,
)
from .summation import (
    MeshInvariants,
    euler_formula_check,
    mesh_invariants,
    mesh_invariants_from_seed,
)

if TYPE_CHECKING:
    from .mesh import BoundaryProfile, CombinatorialDisk

SCHEMA_VERSION = "meshsum/1"
FAULT_MODES = ("census", "invariants")


def canonical_json(obj) -> str:
    """The one serialization used everywhere bytes must be reproducible."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _json_int_list(ids, indent: int, offsets=None) -> bytes:
    """Canonical JSON of the int32 array ``ids`` with its items at ``indent``:
    one list or, cut into rows at CSR ``offsets``, the list of those rows."""
    import numpy as np
    from .textcells import int_cells, row, text

    bounds = np.asarray([0, ids.size] if offsets is None else offsets)
    if bounds.size == 1:
        return b"[]"
    item, close, outer = (b"\n" + b" " * k for k in (indent, indent - 2, indent - 4))
    sizes = np.diff(bounds)
    empty, counts = sizes == 0, np.maximum(sizes, 1)  # an empty row is one cell: "["
    first = np.cumsum(counts) - counts
    cells = row(counts.sum(), bytes(1), b"," + item,  # a lead byte, ",item", the digits
                int_cells(np.insert(ids, bounds[:-1][empty], 0)))  # "0" for an empty row
    cells[first, 1] = ord("[")
    cells[first[empty], 2:] = 0
    # a row's lead byte closes the row before it: ";" after items, ":" after "["
    cells[first[1:], 0] = np.where(empty[:-1], ord(":"), ord(";"))
    body = text(cells).replace(b";", close + b"]," + close).replace(b":", b"]," + close)
    end = b"]" if empty[-1] else close + b"]"
    return body + end if offsets is None else b"[%s%s%s%s]" % (close, body, end, outer)


def disk_json(disk: CombinatorialDisk) -> str:
    """``canonical_json`` of the portable disk form, written straight from the CSR arrays."""
    return (b'{\n  "boundary": %s,\n  "layer": %d,\n  "r": %d,\n  "rotation": %s\n}\n' % (
        _json_int_list(disk.boundary, 4), disk.layer_index, disk.ambient_degree,
        _json_int_list(disk.graph.neighbors, 6, disk.graph.offsets),
    )).decode("ascii")


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
    return {key: int_to_json(getattr(counts, key)) for key in "vefs"}


def profile_to_json_obj(profile: BoundaryProfile | SeedDescriptor) -> dict:
    return {"t": int_to_json(profile.t), "d": int_to_json(profile.d)}


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
        raise ValueError(f"seed must be 'vertex', 'face', or t:d, got {brief(text)}")
    try:
        t, d = int_from_text(t_text), int_from_text(d_text)
    except ValueError:
        raise ValueError(f"seed t:d must be integers, got {brief(text)}") from None
    return SeedDescriptor(r, t, d)


def growth_report(
    r: int,
    seed_kind: str,
    n_layers: int,
    budget: int = DEFAULT_VERTEX_BUDGET,
) -> tuple[dict, CombinatorialDisk]:
    """Grow explicitly, predict analytically, and reconcile layer by layer.

    Returns the report dict and the largest disk actually built.  The
    report's "layers" is an iterator, to be read once: the built layers'
    records are held, and the layers the budget rules out follow one at a
    time from the analytic side alone, with a null match flag.  The
    analytic base for the vertex seed is its first expansion (the fan), so
    explicit layer k matches analytic layer k-1.  Every layer, built or
    not, is predicted by ``_layer_texts``, the stream ``predict`` writes: a
    built layer is checked against the very digits the report prints, and
    no digit limit applies.
    """
    from .mesh import measured_layers
    if n_layers < 0:
        raise ValueError(f"layer count must be >= 0, got {n_layers}")
    layers = measured_layers(r, seed_kind, n_layers, budget)
    first = next(layers)  # checks the seed kind before anything else
    base_layer = 0 if seed_kind == "face" else 1
    descriptor = seed_descriptor_for(seed_kind, r)
    n_analytic = n_layers - base_layer
    if n_analytic > 0:
        check_layer_count(n_analytic)  # before growing anything
    texts = _layer_texts(descriptor, n_analytic)  # read only past the base layer
    base = {"n": None, "cum": counts_to_json_obj(counts_from_boundary(descriptor))}

    def record(k: int) -> dict:
        """Layer k's record with what it is checked against, built or not."""
        pred = None if k < base_layer else base if k == base_layer else _prediction(next(texts))
        return {"layer": k, "explicit": None, "census": None, "predicted": pred,
                "match": None, "census_match": None}

    records = []
    all_match = True
    for measured in chain([first], layers):
        k, profile, census = measured.layer, measured.profile, measured.census
        rec = record(k)
        pred = rec["predicted"]
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
    analytic_records = map(record, range(measured.layer + 1, n_layers + 1))

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


def _record_json(rec: dict) -> str:
    """A growth record at the list's depth: an analytic-only layer n >= 1
    through ``_ANALYTIC_RECORD``, any other through ``canonical_json``."""
    pred = rec["predicted"]
    if rec["explicit"] is not None or pred["n"] is None:
        return _entry_json(rec)
    cum = pred["cum"]
    return _ANALYTIC_RECORD % (
        rec["layer"], pred["a"], pred["b"], cum["e"], cum["f"], cum["s"], cum["v"],
        pred["de"], pred["df"], pred["dv"], pred["n"],
    )


def write_growth_report(report: dict, out: TextIO) -> None:
    """Write a ``growth_report`` report as canonical JSON, reading its
    layers once, one record at a time."""
    _write_canonical(out, report, "layers", map(_record_json, report["layers"]))


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


# One analytic-only "layers" record of a growth report: _PREDICTED_LAYER at record depth.
_ANALYTIC_RECORD = """\
    {
      "census": null,
      "census_match": null,
      "explicit": null,
      "layer": %d,
      "match": null,
      "predicted": """ + _PREDICTED_LAYER.lstrip().replace("\n", "\n  ") + "\n    }"


def _layer_texts(seed: SeedDescriptor, n_layers: int, cumulative: bool = True) -> Iterator[tuple]:
    """The one text stream: each exact ``census_stream`` layer as
    ``(n, a, b, dv, de, df, v, e, f, s)``, every count a decimal string.
    Two strings a layer are reused, not made: s_1 = v_0 and b_1 = t, the
    base's v and the seed's t, and after that s_n = v_{n-1} and
    b_n = dv_{n-1}.  Without ``cumulative`` a layer stops at df, and
    v, e and f are never converted."""
    s_text = int_to_json(counts_from_boundary(seed).v) if cumulative else None
    b_text = int_to_json(seed.t)
    for n, a, _, dv, de, df, v, e, f in census_stream(seed, n_layers, Decimal):
        if cumulative:
            v_text, dv_text = int_to_json(v), int_to_json(dv)
            yield (n, int_to_json(a), b_text, dv_text, int_to_json(de), int_to_json(df),
                   v_text, int_to_json(e), int_to_json(f), s_text)
            s_text = v_text
        else:
            dv_text = int_to_json(dv)
            yield n, int_to_json(a), b_text, dv_text, int_to_json(de), int_to_json(df)
        b_text = dv_text


def _prediction(texts: tuple) -> dict:
    """A ``_layer_texts`` layer as the "predicted" object of a growth record."""
    n, a, b, dv, de, df, v, e, f, s = texts
    return {"n": n, "a": a, "b": b, "dv": dv, "de": de, "df": df,
            "cum": {"v": v, "e": e, "f": f, "s": s}}


def prediction_report(seed: SeedDescriptor, n_layers: int, out: TextIO) -> None:
    """Write the pure analytic layer table for an arbitrary valid seed as
    canonical JSON, one layer at a time."""
    check_layer_count(n_layers)  # before anything is written
    profile, base = profile_to_json_obj(seed), counts_to_json_obj(counts_from_boundary(seed))
    head = {
        "schema_version": SCHEMA_VERSION,
        "kind": "prediction-report",
        "config": {"r": seed.r, "seed": profile, "layers": n_layers},
        "base": base,
    }
    entries = (
        _PREDICTED_LAYER % (a, b, e, f, s, v, de, df, dv, n)
        for n, a, b, dv, de, df, v, e, f, s in _layer_texts(seed, n_layers)
    )
    _write_canonical(out, head, "layers_predicted", entries)
