"""Deterministic schematic rendering of a grown disk as SVG.

Vertices sit on concentric rings, one ring per growth layer, evenly
spaced in id order; edges are straight lines.  The output is a pure
function of the disk: same disk, same bytes.  Coordinates are fixed to
two decimals so the byte stream never depends on float formatting quirks.
"""

from __future__ import annotations

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


def _rings_by_peeling(disk: CombinatorialDisk) -> list[int]:
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
    current = np.fromiter(disk.boundary, dtype=np.int64, count=len(disk.boundary))
    if not current.size:
        raise LayoutError("disk has no boundary to peel from")
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
    return (depth - 1 - ring).tolist()


def layout_disk(disk: CombinatorialDisk) -> DiskLayout:
    """Place layer-k vertices on ring k (id order fixes angles).

    Layers are recovered by boundary peeling.  A single innermost vertex
    sits at the center; otherwise the innermost layer already occupies
    ring 1.  Each ring must be a contiguous id range, which holds for
    every disk produced by expansion.
    """
    nv = disk.graph.vertex_count
    if disk.is_degenerate:
        c = CANVAS / 2
        return DiskLayout(((c, c),), (0,))

    layers = _rings_by_peeling(disk)
    groups: dict[int, list[int]] = {}
    for v, k in enumerate(layers):
        groups.setdefault(k, []).append(v)
    labels = sorted(groups)
    start = 0
    for k in labels:
        members = groups[k]
        if members != list(range(start, start + len(members))):
            raise LayoutError("layers are not contiguous id ranges; no growth provenance")
        start += len(members)

    shift = 0 if len(groups[labels[0]]) == 1 else 1
    ring_of = {k: i + shift for i, k in enumerate(labels)}
    max_ring = ring_of[labels[-1]]
    spacing = CANVAS / (2 * max(max_ring, 1) + 2)
    center = CANVAS / 2

    positions: list[tuple[float, float]] = [(0.0, 0.0)] * nv
    ring = [0] * nv
    for k in labels:
        members = groups[k]
        radius = ring_of[k] * spacing
        step = 2 * math.pi / len(members)
        for idx, v in enumerate(members):
            angle = idx * step
            positions[v] = (
                center + radius * math.cos(angle),
                center + radius * math.sin(angle),
            )
            ring[v] = ring_of[k]
    return DiskLayout(tuple(positions), tuple(ring))


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
    edges = zip(src[order].tolist(), dst[order].tolist())
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS:.0f}" '
        f'height="{CANVAS:.0f}" viewBox="0 0 {CANVAS:.0f} {CANVAS:.0f}">',
    ]
    for v, u in edges:
        (x1, y1), (x2, y2) = pos[v], pos[u]
        out.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            'stroke="#556" stroke-width="1"/>'
        )
    for v, (x, y) in enumerate(pos):
        out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#223"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
