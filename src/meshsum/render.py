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

from .mesh import CombinatorialDisk

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
    """Serialize the disk: one <line> per edge, one <circle> per vertex."""
    if layout is None:
        layout = layout_disk(disk)
    pos = layout.positions
    if len(pos) != disk.graph.vertex_count:
        raise LayoutError("layout does not cover every vertex of the disk")
    src, dst = disk.graph.slot_sources(), disk.graph.neighbors
    forward = src < dst
    src, dst = src[forward], dst[forward]
    order = np.lexsort((dst, src))
    xy = [(f"{x:.2f}", f"{y:.2f}") for x, y in pos]
    # an edge v -> u is head[v] + tail[u]: each coordinate is formatted once
    head = [f'<line x1="{x}" y1="{y}" x2="' for x, y in xy]
    tail = [f'{x}" y2="{y}" stroke="#556" stroke-width="1"/>\n' for x, y in xy]
    out = io.StringIO()
    out.write(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS:.0f}" '
        f'height="{CANVAS:.0f}" viewBox="0 0 {CANVAS:.0f} {CANVAS:.0f}">\n'
    )
    out.writelines(
        head[v] + tail[u] for v, u in zip(src[order].tolist(), dst[order].tolist())
    )
    out.writelines(f'<circle cx="{x}" cy="{y}" r="3" fill="#223"/>\n' for x, y in xy)
    out.write("</svg>\n")
    return out.getvalue()
