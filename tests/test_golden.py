"""Report, disk and SVG bytes pinned by sha256.

The grow and verify digests were recorded before grow and verify read
their explicit layers from ``mesh.measured_layers``; the predict and sum
digests before those reports were streamed; the disk and SVG digests
before disk JSON was written from the CSR arrays and each vertex's
coordinates were formatted once; the two budget-cut vertex-seed grows
before grow's report was streamed (in the first the fan itself is over
budget, so the ``{"n": null}`` base record is streamed; the second is a
table with analytic-only rows).  The vertex-seed drawing pins a disk
with a centre vertex.  So any drift in a canonical report, a human
table, an emitted disk or its drawing fails here.  ``predict -r 9 --seed
5:12`` is not a valid seed (its v count is 17/3) and pins the empty
output of that exit 2.
"""

from __future__ import annotations

import hashlib

import pytest

from meshsum.cli import main

# command -> (exit code, sha256 of stdout, of the --emit-disk file, of its SVG)
GOLDEN = {
    "grow -r 7 --seed face -n 6 --json --emit-disk": (
        0,
        "93749cbd9c39e3c3d6caadd01f44d0126ebd004d58cd87f12514709aa3a6bbd6",
        "ff1b30e1a9d59b82204441ff3c5603ab3bc34ce5984806a38d6394a18a580196",
        "dda836c00a6a703daaa67777d1d64796fcc2401c2cd92c1323b765a236064bb4",
    ),
    "grow -r 9 --seed vertex -n 4 --json --emit-disk": (
        0,
        "e7544b5e118b342719a78128ac5a934444e5eb7b6d642ea6fe1f32d090fd8125",
        "d935f1f6fbab21a61a172e2da567e66165c3b04a27f70a2c2e9b6ddad0c5991c",
        "bed20449e39239e7af8feb0200dfb89b4de4123490e5bf936e3d0af5d29fde69",
    ),
    "grow -r 8 --seed face -n 12 --budget 5000 --json": (
        0, "024edb554afee55cb268c75f4570f5abde240a04674148179fdd3a6b0c297ce8", None, None
    ),
    "grow -r 9 --seed vertex -n 3 --budget 5 --json": (
        0, "6df87fa740147ee48ce23c451184359ddc29f503742627222e7dc9af7bbf8cfa", None, None
    ),
    "grow -r 8 --seed vertex -n 6 --budget 100": (
        0, "2be3067a6615663aa0834caaa92b853e24982dc7e9e199aa97ff42bcb01c2c66", None, None
    ),
    "grow -r 7 -n 5": (
        0, "46295b48ddec2b5982026d6e7f55c2921425dd7a2e8748d0e821992ead83d111", None, None
    ),
    "verify -r 7:9 -n 3 --json": (
        0, "d5b6978b5b07a3998af94e3f45a62414565552a54c43f6ba1df426ee39e50f9d", None, None
    ),
    "verify -r 7 --inject-fault census --json": (
        1, "a2d702b2a621c2ae90d9b173822d661c751faa06a30b5bfcf8d5a1a698c22e73", None, None
    ),
    "verify -r 7:9 -n 3 --inject-fault invariants": (
        1, "9078753c4fff2a4275f48380780c9142659212dd517dbfcd7ccae7237cea91b0", None, None
    ),
    "predict -r 9 --seed 5:12 -n 100 --json": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None, None
    ),
    "predict -r 9 --seed 5:14 -n 100 --json": (
        0, "371f9bb7af474835f63a90ba516afc39949adf5f22c5231ed0f85c9979732aa9", None, None
    ),
    "predict -r 7 --seed 3:6 -n 5": (
        0, "102cc279534f33ed204f510207c31bf4a1a56a764cb6c9ef382df96c83c62597", None, None
    ),
    "sum -r 7:12 --json": (
        0, "b50e1abe9afb1fdcc8ee06abcab0e2050488f273d599e60cb77ea0f066d8b319", None, None
    ),
    "sum -r 7 --seed 3:6 --json": (
        0, "6ef426b2d50fef4bb090b29e3f5c6c2e696adc9740d4bd02b57c12ab55dbf690", None, None
    ),
    "sum -r 7:12": (
        0, "8ae03243a216f0603f1cc20b609a0dbdefd1741ff96f9789e75bc26cb7a060b3", None, None
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", list(GOLDEN))
def test_output_bytes_are_pinned(capsys, tmp_path, command):
    code, out_sha, disk_sha, svg_sha = GOLDEN[command]
    disk, svg = tmp_path / "disk.json", tmp_path / "disk.svg"
    argv = command.split() + ([str(disk)] if disk_sha else [])
    assert main(argv) == code
    assert _sha256(capsys.readouterr().out.encode()) == out_sha
    if disk_sha:
        assert _sha256(disk.read_bytes()) == disk_sha
    if svg_sha:
        assert main(["render", str(disk), "-o", str(svg)]) == 0
        assert _sha256(svg.read_bytes()) == svg_sha
