"""Deterministic schematic rendering of a grown disk as SVG.

``emit_svg(disk)`` draws the disk as ``layout_disk`` validates and places it:
vertices evenly spaced in id order on concentric rings, one per growth layer,
and straight edges.  Same disk, same bytes: coordinates are fixed to two
decimals so the byte stream never depends on float formatting quirks.
"""

from __future__ import annotations

import io
import math

import numpy as np

from .mesh import CombinatorialDisk, validate_disk
from .textcells import fixed2_cells, row, text

CANVAS = 1000.0


class LayoutError(ValueError):
    """The disk is not valid or does not expose usable layer structure."""


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


def layout_disk(disk: CombinatorialDisk) -> np.ndarray:
    """Vertex positions, a read-only (n, 2) float64 array on the canvas
    [0, CANVAS]^2: layer-k vertices on ring k, id order fixing angles.

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
    positions.flags.writeable = False
    return positions


def emit_svg(disk: CombinatorialDisk) -> bytes:
    """The SVG file: one <line> per edge, one <circle> per vertex, placed by
    ``layout_disk``, whose LayoutError a disk it cannot lay out raises."""
    n, pos = disk.graph.vertex_count, layout_disk(disk)
    x, y = fixed2_cells(pos[:, 0]), fixed2_cells(pos[:, 1])  # each coordinate formatted once
    src, dst = disk.graph.slot_sources().astype(np.int64), disk.graph.neighbors
    edges = np.sort((src * n + dst)[src < dst])  # by (src, dst), as lexsort would
    out = io.BytesIO()
    out.write(b'<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" '
              b'width="%s" height="%s" viewBox="0 0 %s %s">\n' % ((b"%.0f" % CANVAS,) * 4))
    for chunk in np.split(edges, range(1 << 14, edges.size, 1 << 14)):
        v, u = chunk // n, chunk % n
        out.write(text(row(chunk.size, b'<line x1="', x[v], b'" y1="', y[v], b'" x2="', x[u],
                           b'" y2="', y[u], b'" stroke="#556" stroke-width="1"/>\n')))
    for v in np.split(np.arange(n), range(1 << 14, n, 1 << 14)):
        out.write(text(row(v.size, b'<circle cx="', x[v], b'" cy="', y[v], b'" r="3" fill="#223"/>\n')))
    out.write(b"</svg>\n")
    return out.getvalue()
