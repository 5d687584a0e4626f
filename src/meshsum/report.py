"""Growth, prediction and invariants reports, in a canonical JSON form.

Reports are serialized with sorted keys, two-space indent, and a trailing
newline.  Exact counts are decimal strings and rationals are {"num",
"den"} objects, so a report round-trips byte for byte: parse,
re-serialize, same bytes.  Reports are written to a stream one list entry
at a time, in exactly the bytes ``canonical_json`` would give the whole
dict; the ``%`` templates of the most common entries are ``canonical_json``
of sample entries, made once at import.  Every predicted layer ``grow``
and ``predict`` print, as JSON or as a table, comes from one text stream
of ``census_stream`` layers, ``layer_texts``.  The disk file is
``mesh``'s: ``mesh.disk_json`` writes it.  Seeds are ``growth``'s:
``CANONICAL_SEEDS`` and ``seed_descriptor_for``.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from typing import TYPE_CHECKING, TextIO

from .exact import int_to_json, rational_to_json
from .growth import (
    CANONICAL_SEEDS,
    DEFAULT_VERTEX_BUDGET,
    SeedDescriptor,
    census_stream,
    check_layer_count,
    counts_from_boundary,
    seed_descriptor_for,
)
from .summation import euler_formula_check, mesh_invariants, mesh_invariants_from_seed

if TYPE_CHECKING:
    from .mesh import CombinatorialDisk

SCHEMA_VERSION = "meshsum/1"
FAULT_MODES = ("census", "invariants")


def canonical_json(obj) -> str:
    """The one serialization used everywhere bytes must be reproducible."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_HOLE = "@"  # a sample value that ``_template`` makes a bare %s
# A growth record's fields before its layer is measured, and for good if it is not built.
_UNMEASURED = dict.fromkeys(("explicit", "census", "match", "census_match"))


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
    head, tail = canonical_json({**report, key: [_HOLE]}).split(f'    "{_HOLE}"')
    out.write(head + first)
    for text in entries:
        out.write(",\n" + text)
    out.write(tail)


def _entry_json(entry) -> str:
    """``canonical_json`` of one entry of a top-level list, at the list's depth."""
    return "    " + canonical_json(entry)[:-1].replace("\n", "\n    ")


def _template(entry) -> str:
    """``_entry_json`` of a sample entry, each ``_HOLE`` value a bare %s and each "%s" a
    quoted one: the holes take their values in ``canonical_json``'s sorted key order."""
    return _entry_json(entry).replace(f'"{_HOLE}"', "%s")


def _ints(obj, fields: str) -> dict:
    """The integer attributes of ``obj`` named by the letters of ``fields``, as decimal strings."""
    return {key: int_to_json(getattr(obj, key)) for key in fields}


def _rationals(inv) -> dict:
    """The vM, eM and fM objects of a ``MeshInvariants``."""
    return {"vM": rational_to_json(inv.v), "eM": rational_to_json(inv.e),
            "fM": rational_to_json(inv.f)}


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
    time from the analytic side alone, with a null match flag.  Explicit
    layer k matches analytic layer k minus the seed's base layer in
    ``CANONICAL_SEEDS`` (the vertex seed's is 1, the fan).  Every layer,
    built or not, is predicted by ``layer_texts``, the stream ``predict``
    writes: a built layer is checked against the very digits the report
    prints, and no digit limit applies.
    """
    from .mesh import measured_layers
    if n_layers < 0:
        raise ValueError(f"layer count must be >= 0, got {n_layers}")
    layers = measured_layers(r, seed_kind, n_layers, budget)
    first = next(layers)  # mesh checks the seed name, then the degree, before anything else
    base_layer = CANONICAL_SEEDS[seed_kind][2]
    descriptor = seed_descriptor_for(seed_kind, r)
    n_analytic = n_layers - base_layer
    if n_analytic > 0:
        check_layer_count(n_analytic)  # before growing anything
    texts = layer_texts(descriptor, n_analytic)  # read only past the base layer
    base = {"n": None, "cum": _ints(counts_from_boundary(descriptor), "vefs")}

    def record(k: int) -> dict:
        """Layer k's record with what it is checked against, built or not."""
        pred = None if k < base_layer else base if k == base_layer else _prediction(next(texts))
        return {"layer": k, "predicted": pred, **_UNMEASURED}

    records = []
    for measured in chain([first], layers):
        k, profile, census = measured.layer, measured.profile, measured.census
        rec = record(k)
        pred = rec["predicted"]
        counts = _ints(measured.counts, "vefs")
        rec["explicit"] = dict(counts)
        if profile is not None:
            rec["explicit"].update(_ints(profile, "td"))
        if census is not None:
            rec["census"] = _ints(census, "ab")
        if pred is not None:
            rec["match"] = pred["cum"] == counts
        if k > base_layer:  # an analytic layer n >= 1, so both censuses exist
            rec["census_match"] = rec["census"] == {"a": pred["a"], "b": pred["b"]}
        records.append(rec)
    truncated = measured.layer < n_layers
    analytic_records = map(record, range(measured.layer + 1, n_layers + 1))

    inv_obj = invariants_entry(r, descriptor)
    del inv_obj["via_seed"]
    all_match = inv_obj["seed_match"] and all(
        False not in (rec["match"], rec["census_match"]) for rec in records)

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
    entry = {"r": r, **_rationals(closed), "euler_check": euler_formula_check(closed)}
    if seed is not None and seed.r == r:
        via_seed = mesh_invariants_from_seed(seed)
        entry["seed_descriptor"] = _ints(seed, "td")
        entry["via_seed"] = _rationals(via_seed)
        entry["seed_match"] = via_seed == closed
    return entry


# One unseeded "degrees" entry; its holes in key order: eM's den and num,
# euler_check, fM's den and num, r, vM's den and num.
_INVARIANTS_ENTRY = _template({"r": _HOLE, "euler_check": _HOLE,
                               **dict.fromkeys(("vM", "eM", "fM"), {"num": "%s", "den": "%s"})})


def _invariants_json(entry: dict) -> str:
    """An ``invariants_entry`` as ``canonical_json`` lays it out in the list."""
    if "seed_match" in entry:  # the seed's degree: at most once per report
        return _entry_json(entry)
    eM, fM, vM = entry["eM"], entry["fM"], entry["vM"]
    euler = "true" if entry["euler_check"] else "false"
    return _INVARIANTS_ENTRY % (eM["den"], eM["num"], euler, fM["den"], fM["num"], entry["r"],
                                vM["den"], vM["num"])


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


def layer_texts(seed: SeedDescriptor, n_layers: int, cumulative: bool = True) -> Iterator[tuple]:
    """The one text stream: each exact ``census_stream`` layer as
    ``(n, a, b, dv, de, df, v, e, f, s)``, every count a decimal string.
    Two strings a layer are reused, not made: s_1 = v_0 and b_1 = t, the
    base's v and the seed's t, and after that s_n = v_{n-1} and
    b_n = dv_{n-1}.  Without ``cumulative`` a layer stops at df, and
    v, e and f are never converted."""
    s_text = int_to_json(counts_from_boundary(seed).v) if cumulative else None
    b_text = int_to_json(seed.t)
    for n, a, _, dv, de, df, v, e, f in census_stream(seed, n_layers):
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
    """A ``layer_texts`` layer as the "predicted" object of a growth record."""
    n, a, b, dv, de, df, v, e, f, s = texts
    return {"n": n, "a": a, "b": b, "dv": dv, "de": de, "df": df,
            "cum": {"v": v, "e": e, "f": f, "s": s}}


# One "layers_predicted" entry; its holes in key order: a, b, cum's e, f, s, v, de, df, dv, n.
_PREDICTION = _prediction((_HOLE,) + ("%s",) * 9)
_PREDICTED_LAYER = _template(_PREDICTION)
# One analytic-only growth record: layer, then _PREDICTED_LAYER's holes.
_ANALYTIC_RECORD = _template({"layer": _HOLE, "predicted": _PREDICTION, **_UNMEASURED})


def prediction_report(seed: SeedDescriptor, n_layers: int, out: TextIO) -> None:
    """Write the pure analytic layer table for an arbitrary valid seed as canonical
    JSON, one layer at a time; ``census_stream`` checks ``n_layers`` first."""
    head = {
        "schema_version": SCHEMA_VERSION,
        "kind": "prediction-report",
        "config": {"r": seed.r, "seed": _ints(seed, "td"), "layers": n_layers},
        "base": _ints(counts_from_boundary(seed), "vefs"),
    }
    entries = (
        _PREDICTED_LAYER % (a, b, e, f, s, v, de, df, dv, n)
        for n, a, b, dv, de, df, v, e, f, s in layer_texts(seed, n_layers)
    )
    _write_canonical(out, head, "layers_predicted", entries)
