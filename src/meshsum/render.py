"""Deterministic schematic rendering of a grown disk as SVG.

Vertices sit on concentric rings, one ring per growth layer, evenly
spaced in id order; edges are straight lines.  The output is a pure
function of the disk: same disk, same bytes.  Coordinates are fixed to
two decimals so the byte stream never depends on float formatting quirks.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .mesh import CombinatorialDisk
from .textcells import fixed2_cells, row, text

CANVAS = 1000.0


class LayoutError(ValueError):
    """The disk does not expose usable layer structure."""


@dataclass(frozen=True)
class DiskLayout:
    """Vertex positions plus the ring index assigned to each vertex."""

    positions: tuple[tuple[float, float], ...]
    ring: tuple[int, ...]


def _rings_by_peeling(disk: CombinatorialDisk) -> np.ndarray:
    """Recover per-vertex layers by peeling boundaries inward.

    Every vertex of the current outermost ring was created by one
    expansion, and its neighbors not on that ring form the previous
    boundary.  Works for any disk built by repeated expansion; anything
    else raises LayoutError.
    """
    nv = disk.graph.vertex_count
    src, dst = disk.graph.slot_sources(), disk.graph.neighbors
    if dst.size and (dst.min() < 0 or dst.max() >= nv):
        raise LayoutError("a rotation lists a vertex outside the disk")
    ring = np.full(nv, -1, dtype=np.int64)
    current = disk.boundary
    depth = 0
    while current.size:
        if current.min() < 0 or current.max() >= nv or (ring[current] != -1).any():
            raise LayoutError("boundary peeling revisited a vertex")
        ring[current] = depth
        reached = np.zeros(nv, dtype=bool)
        reached[dst[ring[src] == depth]] = True
        current = np.flatnonzero(reached & (ring == -1))
        depth += 1
    if (ring == -1).any():
        raise LayoutError("disk is not connected to its boundary")
    return depth - 1 - ring


def layout_disk(disk: CombinatorialDisk) -> DiskLayout:
    """Place layer-k vertices on ring k (id order fixes angles).

    Layers are recovered by boundary peeling.  A single innermost vertex
    sits at the center; otherwise the innermost layer already occupies
    ring 1.  Each ring must be a contiguous id range, which holds for
    every disk produced by expansion.
    """
    if disk.is_degenerate:
        c = CANVAS / 2
        return DiskLayout(((c, c),), (0,))

    layers = _rings_by_peeling(disk)
    if (np.diff(layers) < 0).any():
        raise LayoutError("layers are not contiguous id ranges; no growth provenance")
    sizes = np.bincount(layers).tolist()
    shift = 0 if sizes[0] == 1 else 1
    spacing = CANVAS / (2 * max(len(sizes) - 1 + shift, 1) + 2)
    center = CANVAS / 2

    positions: list[tuple[float, float]] = []
    for k, size in enumerate(sizes):
        radius, step = (k + shift) * spacing, 2 * math.pi / size
        for a in (idx * step for idx in range(size)):
            positions.append((center + radius * math.cos(a), center + radius * math.sin(a)))
    return DiskLayout(tuple(positions), tuple((layers + shift).tolist()))


def emit_svg(disk: CombinatorialDisk, layout: DiskLayout | None = None) -> str:
    """Serialize the disk: one <line> per edge, one <circle> per vertex.  A position
    not finite or off the canvas [0, CANVAS]^2 raises LayoutError."""
    if layout is None:
        layout = layout_disk(disk)
    n, pos = disk.graph.vertex_count, np.fromiter(chain.from_iterable(layout.positions), float)
    if pos.size != 2 * n:
        raise LayoutError("layout does not cover every vertex of the disk")
    if not ((pos >= 0) & (pos <= CANVAS)).all():  # NaN fails both
        raise LayoutError(f"a vertex position is not finite or off the canvas [0, {CANVAS:.0f}]^2")
    x, y = fixed2_cells(pos[0::2]), fixed2_cells(pos[1::2])
    # an edge v -> u is head[v] + tail[u]: each coordinate is formatted once
    head = row(n, b'<line x1="', x, b'" y1="', y, b'" x2="')
    tail = row(n, x, b'" y2="', y, b'" stroke="#556" stroke-width="1"/>\n')
    src, dst = disk.graph.slot_sources().astype(np.int64), disk.graph.neighbors
    span = int(dst.max(initial=0)) + 1  # an id past the disk still fails, as an index
    edges = np.sort((src * span + dst)[src < dst])  # by (src, dst), as lexsort would
    out = io.BytesIO()
    out.write(b'<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" '
              b'width="%s" height="%s" viewBox="0 0 %s %s">\n' % ((b"%.0f" % CANVAS,) * 4))
    for chunk in np.split(edges, range(1 << 14, edges.size, 1 << 14)):
        out.write(text(np.hstack((head[chunk // span], tail[chunk % span]))))
    out.write(text(row(n, b'<circle cx="', x, b'" cy="', y, b'" r="3" fill="#223"/>\n')))
    out.write(b"</svg>\n")
    del head, tail, edges, src  # before the text is copied into a str
    return out.getvalue().decode("ascii")
