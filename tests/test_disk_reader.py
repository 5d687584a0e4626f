"""The byte-level disk JSON reader, ``mesh.disk_from_canonical_json``.

It reads the exact bytes ``mesh.disk_json`` writes straight into arrays
and returns None for any other layout, on which ``mesh.read_disk`` falls
back to the json module.  Wherever it returns a disk, the json path
returns an equal one; wherever it raises, the json path raises the same
error; and the render command answers every file, canonical or not, with
the exit code, error line and SVG it gives with the reader switched off.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsum import CombinatorialDisk, disk_from_json_obj, expand, grow, seed_face, seed_vertex
from meshsum.cli import main
from meshsum.mesh import disk_from_canonical_json, disk_json
from support import convex_disks

BASE = disk_json(expand(seed_face(7))).encode("ascii")  # 15 vertices, layer 1
FIRST_ID = BASE.index(b'"rotation": [\n    [\n      ') + len(b'"rotation": [\n    [\n      ')


def first_id(text: bytes) -> bytes:
    """BASE with its first rotation id written as ``text``."""
    return BASE[:FIRST_ID] + text + BASE[BASE.index(b",", FIRST_ID):]


def json_path(data: bytes) -> CombinatorialDisk | Exception:
    """The disk the json module's path reads from ``data``, or its error."""
    try:
        return disk_from_json_obj(json.load(io.TextIOWrapper(io.BytesIO(data), "utf-8")))
    except (ValueError, RecursionError) as exc:
        return exc


def read_both(data: bytes) -> CombinatorialDisk | Exception | None:
    """The reader's answer, checked against the json path's."""
    expected = json_path(data)
    try:
        disk = disk_from_canonical_json(data)
    except ValueError as exc:
        assert (type(exc), str(exc)) == (type(expected), str(expected))
        return exc
    if disk is not None:
        assert isinstance(expected, CombinatorialDisk) and disk == expected
        graph = disk.graph
        assert (graph.offsets.dtype, graph.neighbors.dtype, disk.boundary.dtype) == (
            np.int64, np.int32, np.int32
        )
        assert not (graph.offsets.flags.writeable or graph.neighbors.flags.writeable)
    return disk


def render(data: bytes, reader: bool = True) -> tuple[int, str, str, bytes | None]:
    """Exit code, stdout, stderr and SVG of ``meshsum render`` on a file
    holding ``data``; ``reader=False`` switches the byte reader off, and
    checks that render asked it, so the switch cannot miss the reader."""
    with tempfile.TemporaryDirectory() as tmp:
        path, svg = os.path.join(tmp, "disk.json"), os.path.join(tmp, "disk.svg")
        with open(path, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        off = mock.patch("meshsum.mesh.disk_from_canonical_json", return_value=None)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with off if not reader else contextlib.nullcontext() as switch:
                code = main(["render", path, "-o", svg])
        if not reader:
            switch.assert_called_once_with(data)
        drawn = None
        if os.path.exists(svg):
            with open(svg, "rb") as fh:
                drawn = fh.read()
        return code, out.getvalue().replace(tmp, "<tmp>"), err.getvalue(), drawn


def test_the_reader_reads_what_disk_json_writes():
    for disk in (seed_face(7), grow(seed_vertex(7), 2), grow(seed_face(8), 3), seed_vertex(9)):
        got = read_both(disk_json(disk).encode())
        assert got is None if disk.is_degenerate else got == disk  # its one row is empty


@pytest.mark.parametrize(
    "data",
    [
        first_id(b"01"), first_id(b"+1"), first_id(b"1.0"), first_id(b"1 2"), first_id(b"x"),
        BASE.replace(b"\n      0,", b"\n      -0,", 1),
        BASE.replace(b"1,\n      2", b"1\n      ,2", 1),  # a moved comma
        b"\xef\xbb\xbf" + BASE,
        BASE.replace(b"\n", b"\r\n"),
        first_id(b"123456789"),  # past the reader's 8 digits: the json path reads it
        BASE.replace(b'"r": 7', b'"r": 07'),
        BASE[:-1],
        disk_json(seed_vertex(7)).encode().replace(b"\n    []\n", b"\n    [\n    ]\n"),
        BASE.replace(b"\n    ],\n    [", b"\n    ],\n      5,\n    [", 1),
        BASE.replace(b"\n    ],\n    [", b"\n    ]\n    ],\n    [", 1),
        BASE.replace(b"\n      1,", b"\n    [\n      1,", 1),
        BASE.replace(b"\n    [\n", b"\n    {\n", 1),
        BASE.replace(b"\n    ],", b"\n    x,", 1),
        BASE.replace(b"\n    [\n", b"\nx    [\n", 1),
        BASE.replace(b"\n    [\n", b"\n\t    [\n", 1),
        BASE.replace(b'"rotation": [\n', b'"rotation": [x\n'),
        BASE.replace(b'"layer": 1', b'"layer": 01'),
        BASE.replace(b'"layer": 1', b'"layer": -0'),
        BASE[:-2] + b"]\n",
        BASE[:BASE.index(b",", 17) + 1] + b"\n    [\n    ]," + BASE[BASE.index(b",", 17) + 1:],
    ],
    ids=["leading-zero", "plus", "float", "two-numbers", "letter", "minus-zero", "moved-comma",
         "bom", "crlf", "nine-digits", "r-leading-zero", "no-last-newline", "split-empty-row",
         "id-between-rows", "two-closes", "nested-open", "brace", "letter-for-bracket",
         "letter-before-bracket", "tab-before-bracket", "byte-after-open", "layer-leading-zero",
         "layer-minus-zero", "bracket-for-brace", "row-in-boundary"],
)
def test_the_reader_leaves_every_other_layout_to_json(data):
    assert data != BASE
    assert disk_from_canonical_json(data) is None
    read_both(data)


# Each file's exit code and error line as render gave them before the byte
# reader; a negative layer alone now exits 2 (it rendered with exit 0).
NAMED = {
    "float": (first_id(b"1.0"), 2, "error: vertex ids must be integers\n"),
    "true": (first_id(b"true"), 2, "error: vertex ids must be integers\n"),
    "false-layer": (
        BASE.replace(b'"layer": 1', b'"layer": false'), 2,
        "error: 'r' and 'layer' must be integers\n",
    ),
    "nan": (first_id(b"NaN"), 2, "error: vertex ids must be integers\n"),
    "bom": (
        b"\xef\xbb\xbf" + BASE, 2,
        "error: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n",
    ),
    "not-utf8": (
        first_id(b"\xff"), 2,
        "error: 'utf-8' codec can't decode byte 0xff in position 163: invalid start byte\n",
    ),
    "duplicate-key": (BASE.replace(b'"r": 7,', b'"r": 8,\n  "r": 7,'), 0, ""),
    "huge-id": (first_id(b"1" + b"0" * 400), 2, "error: a vertex id does not fit in 32 bits\n"),
    "deep": (b"[" * 100_000 + b"]" * 100_000, 2, "error: disk JSON nests too deeply\n"),
    "leading-zero": (
        first_id(b"01"), 2, "error: Expecting ',' delimiter: line 20 column 8 (char 164)\n"
    ),
    "plus": (first_id(b"+1"), 2, "error: Expecting value: line 20 column 7 (char 163)\n"),
    "exponent": (first_id(b"1e2"), 2, "error: vertex ids must be integers\n"),
    "minus-zero": (BASE.replace(b"\n      0,", b"\n      -0,", 1), 0, ""),
    "dropped-bracket": (
        BASE.replace(b"\n    ],", b"", 1), 2,
        "error: Expecting ',' delimiter: line 27 column 5 (char 224)\n",
    ),
    "extra-space": (BASE.replace(b"\n      0,", b"\n       0,", 1), 0, ""),
    "trailing-comma": (
        BASE.replace(b"\n    ]\n  ]", b",\n    ]\n  ]"), 2,
        "error: Expecting value: line 108 column 5 (char 886)\n",
    ),
    "crlf-trailing-comma": (  # the json path reads text as open() does: "\r\n" is one char
        BASE.replace(b"\n    ]\n  ]", b",\n    ]\n  ]").replace(b"\n", b"\r\n"), 2,
        "error: Expecting value: line 108 column 5 (char 886)\n",
    ),
    "negative-layer": (BASE.replace(b'"layer": 1', b'"layer": -1'), 2,
                       "error: 'layer' must not be negative\n"),
    "negative-layer-compact": (
        json.dumps({**json.loads(BASE), "layer": -1}).encode(), 2,
        "error: 'layer' must not be negative\n",
    ),
}


@pytest.mark.parametrize("name", NAMED)
def test_a_named_malformed_file_gets_its_error_line(name):
    data, code, err = NAMED[name]
    assert data != BASE
    got = render(data)
    assert got[0] == code and got[2] == err
    assert got == render(data, reader=False)
    read_both(data)


@st.composite
def grown_disks(draw) -> CombinatorialDisk:
    r = draw(st.integers(min_value=7, max_value=12))
    seed = draw(st.sampled_from([seed_face, seed_vertex]))
    return grow(seed(r), draw(st.integers(min_value=0, max_value=3)))


EDITS = ("none", "none", "replace", "insert", "delete", "swap")
BYTES = [b"0", b"1", b"9", b" ", b"\n", b",", b"[", b"]", b"-", b"+", b".", b"e", b"\r",
         b"\t", b'"', b"x", b"\xff", b"\xef\xbb\xbf", b"00", b"  ", b"\n  ", b"[]"]


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(grown_disks(), convex_disks()),
    st.sampled_from([None, -1, 0, 5, 10**9, 10**12]),
    st.sampled_from(EDITS),
    st.data(),
)
def test_reader_and_render_agree_with_the_json_path(disk, layer, edit, data):
    if layer is not None:
        disk = CombinatorialDisk(disk.graph, disk.ambient_degree, disk.boundary, layer)
    text = disk_json(disk).encode()
    i = data.draw(st.integers(min_value=0, max_value=len(text) - 2))
    byte = data.draw(st.sampled_from(BYTES))
    text = {
        "none": text,
        "replace": text[:i] + byte + text[i + 1:],
        "insert": text[:i] + byte + text[i:],
        "delete": text[:i] + text[i + 1:],
        "swap": text[:i] + text[i + 1:i + 2] + text[i:i + 1] + text[i + 2:],
    }[edit]
    got = read_both(text)
    if edit == "none" and disk.layer_index >= 10**9:
        assert got is None  # past the reader's 9 digits: the json path's file
    elif edit == "none" and not disk.is_degenerate:
        assert isinstance(got, ValueError) if disk.layer_index < 0 else got == disk
    assert render(text) == render(text, reader=False)


@pytest.mark.parametrize("r", [*range(7, 13), 1000])
def test_every_grown_disk_renders_without_the_json_module(r, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("render fell back to the json module")

    for seed in ("face", "vertex"):
        for layers in range(1, 5 if r < 1000 else 2):
            disk = tmp_path / f"{seed}{layers}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["grow", "-r", str(r), "--seed", seed, "-n", str(layers),
                             "--emit-disk", str(disk)]) == 0
            with mock.patch("json.loads", refuse), mock.patch("json.load", refuse):
                assert render(disk.read_bytes())[0] == 0


def test_the_reader_peaks_no_higher_than_the_json_path_per_byte():
    # on this 9.6 MB file of 118,803 vertices the json path peaks at 5.0
    # traced bytes per file byte and the reader at 3.3
    data = disk_json(grow(seed_face(7), 10)).encode()
    assert len(data) == 9_595_465
    peaks = []
    tracemalloc.start()
    try:
        for read in (disk_from_canonical_json,
                     lambda d: disk_from_json_obj(json.loads(d.decode()))):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            disk = read(data)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            assert disk.graph.vertex_count == 118_803
            del disk
    finally:
        tracemalloc.stop()
    assert peaks[0] <= peaks[1]
