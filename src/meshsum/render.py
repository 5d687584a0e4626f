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

import numpy as np

from .mesh import CombinatorialDisk, validate_disk
from .textcells import fixed2_cells, row, text

CANVAS = 1000.0


class LayoutError(ValueError):
    """The disk is not valid or does not expose usable layer structure."""


@dataclass(frozen=True, eq=False)
class DiskLayout:
    """Vertex positions, an (n, 2) float64 array, plus the ring index assigned to
    each vertex, an int64 array; ``layout_disk`` makes both read-only."""

    positions: np.ndarray
    ring: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, DiskLayout):
            return NotImplemented
        return np.array_equal(self.positions, other.positions) and np.array_equal(
            self.ring, other.ring
        )

    __hash__ = None


def _rings_by_peeling(disk: CombinatorialDisk) -> np.ndarray:
    """Recover per-vertex layers by peeling boundaries inward.

    Every vertex of the current outermost ring was created by one
    expansion, and its neighbors not on that ring form the previous
    boundary.  Each step reads only the rows of the current ring.  A disk
    that passes ``validate_disk`` is connected, so peeling reaches every vertex.
    """
    current = disk.boundary
    ring = np.full(disk.graph.vertex_count, -1, dtype=np.int64)
    ring[current] = 0
    depth = 0
    while current.size:
        reached = disk.graph.neighbors_of(current)
        ring[reached[ring[reached] == -1]] = depth + 1
        depth += 1
        current = np.flatnonzero(ring == depth)
    return depth - 1 - ring


def layout_disk(disk: CombinatorialDisk) -> DiskLayout:
    """Place layer-k vertices on ring k (id order fixes angles).

    A disk that ``validate_disk`` rejects raises LayoutError("malformed
    disk: <kind>: <detail>") for its first violation.  Layers are recovered
    by boundary peeling.  A single innermost vertex sits at the center;
    otherwise the innermost layer already occupies ring 1.  Each ring must
    be a contiguous id range, which holds for every disk produced by
    expansion.
    """
    violations = validate_disk(disk)
    if violations:
        first = violations[0]
        more = f" (and {len(violations) - 1} more)" if len(violations) > 1 else ""
        raise LayoutError(f"malformed disk: {first.kind}: {first.detail}{more}")
    layers = _rings_by_peeling(disk)  # a bare vertex, with no boundary, is layer 0
    if (np.diff(layers) < 0).any():
        raise LayoutError("layers are not contiguous id ranges; no growth provenance")
    sizes = np.bincount(layers)
    shift = 0 if sizes[0] == 1 else 1
    spacing = CANVAS / (2 * max(sizes.size - 1 + shift, 1) + 2)
    center = CANVAS / 2

    # vertex idx of a ring of `size` sits at angle idx * (2 pi / size), as
    # center + radius * (cos, sin): the float operations of a per-vertex loop
    idx = np.arange(layers.size) - (np.cumsum(sizes) - sizes)[layers]
    angle = idx * (2 * math.pi / sizes)[layers]
    radius = ((np.arange(sizes.size) + shift) * spacing)[layers]
    positions = np.empty((layers.size, 2))
    positions[:, 0] = center + radius * np.cos(angle)
    positions[:, 1] = center + radius * np.sin(angle)
    ring = layers + shift
    positions.flags.writeable = False
    ring.flags.writeable = False
    return DiskLayout(positions, ring)


def emit_svg(disk: CombinatorialDisk, layout: DiskLayout | None = None) -> bytes:
    """The SVG file: one <line> per edge, one <circle> per vertex.  A position
    not finite or off the canvas [0, CANVAS]^2 raises LayoutError."""
    if layout is None:
        layout = layout_disk(disk)
    n, pos = disk.graph.vertex_count, np.asarray(layout.positions, float)
    if pos.shape != (n, 2):
        raise LayoutError("layout does not cover every vertex of the disk")
    if not ((pos >= 0) & (pos <= CANVAS)).all():  # NaN fails both
        raise LayoutError(f"a vertex position is not finite or off the canvas [0, {CANVAS:.0f}]^2")
    x, y = fixed2_cells(pos[:, 0]), fixed2_cells(pos[:, 1])  # each coordinate formatted once
    src, dst = disk.graph.slot_sources().astype(np.int64), disk.graph.neighbors
    span = int(dst.max(initial=0)) + 1  # an id past the disk still fails, as an index
    edges = np.sort((src * span + dst)[src < dst])  # by (src, dst), as lexsort would
    out = io.BytesIO()
    out.write(b'<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" '
              b'width="%s" height="%s" viewBox="0 0 %s %s">\n' % ((b"%.0f" % CANVAS,) * 4))
    for chunk in np.split(edges, range(1 << 14, edges.size, 1 << 14)):
        v, u = chunk // span, chunk % span
        out.write(text(row(chunk.size, b'<line x1="', x[v], b'" y1="', y[v], b'" x2="', x[u],
                           b'" y2="', y[u], b'" stroke="#556" stroke-width="1"/>\n')))
    for v in np.split(np.arange(n), range(1 << 14, n, 1 << 14)):
        out.write(text(row(v.size, b'<circle cx="', x[v], b'" cy="', y[v], b'" r="3" fill="#223"/>\n')))
    out.write(b"</svg>\n")
    return out.getvalue()
