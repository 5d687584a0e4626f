"""Convex combinatorial disks in a degree-r triangulation, grown layer by layer.

A disk is a finite planar triangulated graph given by a rotation system:
for every vertex, the cyclic counterclockwise order of its neighbors.  The
boundary is a simple cycle listed counterclockwise (outer face on the left
of reversed boundary edges).  Interior vertices have degree exactly r;
boundary vertices keep degree at most floor(1 + r/2), which is the
convexity condition that makes one more growth layer well defined.

Expansion attaches every face of the ambient mesh that shares a vertex
with the current disk.  Each boundary edge (w_j, w_j+1) contributes one
shared new vertex of final degree 4, and each boundary vertex w_j of
current degree k contributes r - 2 - k private new vertices of final
degree 3.  New vertices are created in counterclockwise boundary order,
so the new boundary cycle is exactly the id range [v_old, v_new).

Face counts are measured, never assumed: faces are orbits of the
next-edge permutation next(u -> v) = (v, predecessor of u in the rotation
at v), so every count here is independent of the closed-form layer
predictions it is later checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

MIN_DEGREE = 7
DEFAULT_VERTEX_BUDGET = 1_000_000


class ConvexityError(ValueError):
    """A boundary vertex exceeds the convex degree bound."""


class BudgetExceededError(RuntimeError):
    """Expansion would push the vertex count past the budget."""

    def __init__(self, needed: int, budget: int):
        self.needed = needed
        self.budget = budget
        super().__init__(f"expansion needs {needed} vertices, budget is {budget}")


class MalformedDiskError(ValueError):
    """The rotation system or boundary violates the disk invariants."""


class CensusContradiction(RuntimeError):
    """A freshly added boundary vertex has degree outside {3, 4}."""


@dataclass(frozen=True)
class RotationGraph:
    """Undirected graph as counterclockwise neighbor lists per vertex id.

    Vertex ids are 0..n-1.  The lists are treated as immutable once the
    graph is built; expansion shares untouched lists with its input.
    """

    rotations: list[list[int]]

    @property
    def vertex_count(self) -> int:
        return len(self.rotations)


@dataclass(frozen=True)
class CombinatorialDisk:
    """A grown disk: rotation graph, ambient degree, ccw boundary cycle.

    The degenerate seed (one vertex, no boundary) is flagged by an empty
    boundary.
    """

    graph: RotationGraph
    ambient_degree: int
    boundary: tuple[int, ...]
    layer_index: int

    @property
    def is_degenerate(self) -> bool:
        return not self.boundary


@dataclass(frozen=True)
class BoundaryProfile:
    """Boundary length t and total boundary degree d = sum of deg(w_j)."""

    t: int
    d: int
    degrees: tuple[int, ...]


@dataclass(frozen=True)
class LayerCensus:
    """New-layer boundary split: a vertices of degree 3, b of degree 4."""

    a: int
    b: int


@dataclass(frozen=True)
class DiskCounts:
    """Exact counts: vertices, edges, interior faces, interior vertices."""

    v: int
    e: int
    f: int
    s: int


@dataclass(frozen=True)
class DeltaCounts:
    """Counts added by one expansion layer."""

    dv: int
    de: int
    df: int


def _require_degree(r: int) -> None:
    if not isinstance(r, int) or isinstance(r, bool) or r < MIN_DEGREE:
        raise ValueError(f"ambient degree must be an integer >= {MIN_DEGREE}, got {r!r}")


def convexity_bound(r: int) -> int:
    """Largest boundary degree allowed in a convex disk: floor(1 + r/2)."""
    _require_degree(r)
    return 1 + r // 2


def seed_face(r: int) -> CombinatorialDisk:
    """Single triangle: vertices 0,1,2 counterclockwise."""
    _require_degree(r)
    graph = RotationGraph([[1, 2], [2, 0], [0, 1]])
    return CombinatorialDisk(graph, r, (0, 1, 2), 0)


def seed_vertex(r: int) -> CombinatorialDisk:
    """Single vertex, no faces; degenerate until the first expansion."""
    _require_degree(r)
    return CombinatorialDisk(RotationGraph([[]]), r, (), 0)


def _fan(r: int, layer_index: int) -> CombinatorialDisk:
    """All r triangles around one vertex: the first layer of seed_vertex."""
    center = list(range(1, r + 1))
    rotations = [center]
    for i in range(1, r + 1):
        succ = i + 1 if i < r else 1
        pred = i - 1 if i > 1 else r
        rotations.append([succ, 0, pred])
    return CombinatorialDisk(RotationGraph(rotations), r, tuple(range(1, r + 1)), layer_index)


def is_convex(disk: CombinatorialDisk) -> bool:
    """True iff every boundary degree is within the convex bound."""
    if disk.is_degenerate:
        raise ValueError("degenerate disk has no boundary to test")
    bound = convexity_bound(disk.ambient_degree)
    rotations = disk.graph.rotations
    return all(len(rotations[w]) <= bound for w in disk.boundary)


def boundary_profile(disk: CombinatorialDisk) -> BoundaryProfile:
    """Boundary length and degree sum, in boundary order."""
    if disk.is_degenerate:
        raise ValueError("degenerate disk has no boundary profile")
    rotations = disk.graph.rotations
    degrees = tuple(len(rotations[w]) for w in disk.boundary)
    return BoundaryProfile(len(degrees), sum(degrees), degrees)


def expand(disk: CombinatorialDisk, budget: int = DEFAULT_VERTEX_BUDGET) -> CombinatorialDisk:
    """One growth layer; the input disk is left untouched.

    Raises ConvexityError if a boundary vertex exceeds floor(1 + r/2),
    and BudgetExceededError if the result would exceed ``budget`` vertices.
    """
    r = disk.ambient_degree
    if disk.is_degenerate:
        if 1 + r > budget:
            raise BudgetExceededError(1 + r, budget)
        return _fan(r, disk.layer_index + 1)

    rotations = disk.graph.rotations
    boundary = disk.boundary
    t = len(boundary)
    bound = convexity_bound(r)
    degs = [len(rotations[w]) for w in boundary]
    for w, k in zip(boundary, degs):
        if k > bound:
            raise ConvexityError(
                f"boundary vertex {w} has degree {k} > {bound}, disk is not convex"
            )

    v_old = len(rotations)
    n_new = t + t * (r - 2) - sum(degs)
    if v_old + n_new > budget:
        raise BudgetExceededError(v_old + n_new, budget)
    v_new = v_old + n_new
    first, last = v_old, v_new - 1

    # Creation order fixes ids: for each boundary slot j, the private
    # vertices of w_j then the vertex shared with the next slot.  The new
    # boundary is then the plain id range in ccw order.
    u_ids = []
    priv_start = []
    next_id = v_old
    for k in degs:
        priv_start.append(next_id)
        next_id += r - 2 - k
        u_ids.append(next_id)
        next_id += 1

    out = list(rotations)

    for j in range(t):
        w = boundary[j]
        w_prev = boundary[j - 1]
        w_next = boundary[j + 1] if j + 1 < t else boundary[0]
        rot = rotations[w]
        i = rot.index(w_prev)
        if rot[(i + 1) % len(rot)] != w_next:
            raise MalformedDiskError(
                f"boundary vertex {w}: outer gap is not between {w_prev} and {w_next}"
            )
        u_prev = u_ids[j - 1]
        grown = rot[: i + 1]
        grown.append(u_prev)
        grown.extend(range(priv_start[j], u_ids[j]))
        grown.append(u_ids[j])
        grown.extend(rot[i + 1 :])
        out[w] = grown

    append = out.append
    for j in range(t):
        w = boundary[j]
        w_next = boundary[j + 1] if j + 1 < t else boundary[0]
        u_j = u_ids[j]
        for x in range(priv_start[j], u_j):
            append([x + 1, w, x - 1 if x > first else last])
        append([u_j + 1 if u_j < last else first, w_next, w, u_j - 1 if u_j > first else last])

    assert len(out) == v_new
    return CombinatorialDisk(
        RotationGraph(out), r, tuple(range(v_old, v_new)), disk.layer_index + 1
    )


def grow(
    seed: CombinatorialDisk, layers: int, budget: int = DEFAULT_VERTEX_BUDGET
) -> CombinatorialDisk:
    """Expand ``layers`` times."""
    disk = seed
    for _ in range(layers):
        disk = expand(disk, budget)
    return disk


def layer_census(prev: CombinatorialDisk, new: CombinatorialDisk) -> LayerCensus:
    """Count degree-3 and degree-4 vertices on the new boundary.

    ``new`` must be expand(prev).  Any other boundary degree means the
    construction contradicts the two-kinds classification and raises
    CensusContradiction.
    """
    if new.layer_index != prev.layer_index + 1 or new.graph.vertex_count - len(
        new.boundary
    ) != prev.graph.vertex_count:
        raise ValueError("census requires consecutive disks of one expansion")
    rotations = new.graph.rotations
    a = b = 0
    for w in new.boundary:
        k = len(rotations[w])
        if k == 3:
            a += 1
        elif k == 4:
            b += 1
        else:
            raise CensusContradiction(
                f"new boundary vertex {w} has degree {k}, expected 3 or 4"
            )
    return LayerCensus(a, b)


def delta_counts(before: DiskCounts, after: DiskCounts) -> DeltaCounts:
    """Per-layer increments of (v, e, f) between two measured disks."""
    return DeltaCounts(after.v - before.v, after.e - before.e, after.f - before.f)


def count_explicit(disk: CombinatorialDisk) -> DiskCounts:
    """Measure (v, e, f, s) from the rotation system alone.

    Faces are counted as orbits of the next-edge permutation; the outer
    face is identified with the (reversed) boundary cycle and excluded.
    Raises MalformedDiskError if the orbit structure is not one outer
    face plus triangles.
    """
    if disk.is_degenerate:
        return DiskCounts(1, 0, 0, 1)
    rotations = disk.graph.rotations
    nv = len(rotations)
    total, nxt, off = _next_edge_permutation(rotations)
    outer = _outer_orbit_slots(rotations, disk.boundary, nxt, off)

    is_outer = np.zeros(total, dtype=bool)
    is_outer[outer] = True
    inner = np.flatnonzero(~is_outer)
    n1 = nxt[inner]
    n2 = nxt[n1]
    n3 = nxt[n2]
    bad = (n3 != inner) | (n1 == inner) | (n2 == inner)
    if bad.any():
        slot = int(inner[int(np.argmax(bad))])
        raise MalformedDiskError(f"interior face through edge slot {slot} is not a triangle")

    t = len(disk.boundary)
    e = total // 2
    f = (total - t) // 3
    return DiskCounts(nv, e, f, nv - t)


def _next_edge_permutation(rotations: list[list[int]]):
    """Build the directed-edge tables and the left-face successor permutation.

    Directed edges are numbered by their slot in the concatenated rotation
    lists.  next(u -> v) = (v, neighbor before u in the rotation at v),
    which walks each face counterclockwise (outer face clockwise).
    """
    nv = len(rotations)
    deg = np.fromiter(map(len, rotations), dtype=np.int64, count=nv)
    total = int(deg.sum())
    if total % 2:
        raise MalformedDiskError("odd number of directed edges; adjacency is asymmetric")
    off = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(deg, out=off[1:])
    nbr = np.fromiter(chain.from_iterable(rotations), dtype=np.int64, count=total)
    if total and (nbr.min() < 0 or nbr.max() >= nv):
        raise MalformedDiskError("neighbor id out of range")
    src = np.repeat(np.arange(nv, dtype=np.int64), deg)

    lo = np.minimum(src, nbr)
    hi = np.maximum(src, nbr)
    if (lo == hi).any():
        raise MalformedDiskError("loop edge")
    key = lo * nv + hi
    order = np.argsort(key, kind="stable")
    key_sorted = key[order]
    even, odd = order[0::2], order[1::2]
    if not np.array_equal(key_sorted[0::2], key_sorted[1::2]):
        raise MalformedDiskError("adjacency is not symmetric")
    if key_sorted[0::2].size > 1 and (key_sorted[0::2][1:] == key_sorted[0::2][:-1]).any():
        raise MalformedDiskError("duplicate edge")
    if (src[even] == src[odd]).any():
        raise MalformedDiskError("repeated neighbor entry")
    rev = np.empty(total, dtype=np.int64)
    rev[even] = odd
    rev[odd] = even

    pos_in_dst = rev - off[nbr]
    nxt = off[nbr] + (pos_in_dst - 1) % deg[nbr]
    return total, nxt, off


def _outer_orbit_slots(rotations, boundary, nxt, off):
    """Locate the outer face and confirm it is exactly the reversed boundary."""
    t = len(boundary)
    off_list = off.tolist()
    slots = np.empty(t, dtype=np.int64)
    for j in range(t):
        w = boundary[j]
        u = boundary[j + 1] if j + 1 < t else boundary[0]
        try:
            slots[j] = off_list[u] + rotations[u].index(w)
        except ValueError:
            raise MalformedDiskError(f"boundary edge ({w}, {u}) is missing") from None
    if len(set(boundary)) != t or t < 3:
        raise MalformedDiskError("boundary is not a simple cycle")
    if not np.array_equal(nxt[slots], np.roll(slots, 1)):
        raise MalformedDiskError("outer face does not trace the boundary")
    return slots


@dataclass(frozen=True)
class Violation:
    """One broken invariant found by validate_disk."""

    kind: str
    detail: str


def validate_disk(disk: CombinatorialDisk) -> list[Violation]:
    """Check every disk invariant; returns violations instead of raising.

    Covers id ranges, loops, duplicate entries, adjacency symmetry,
    boundary cycle shape, interior degrees (= r), boundary degree bounds,
    and the face structure (one outer face of length t, all others
    triangles).
    """
    out: list[Violation] = []
    rotations = disk.graph.rotations
    nv = len(rotations)
    r = disk.ambient_degree

    neighbor_sets: list[set[int]] = []
    clean = True
    for v, rot in enumerate(rotations):
        seen = set(rot)
        neighbor_sets.append(seen)
        if any(not isinstance(u, int) or u < 0 or u >= nv for u in rot):
            out.append(Violation("id-range", f"vertex {v} lists an out-of-range neighbor"))
            clean = False
            continue
        if v in seen:
            out.append(Violation("loop", f"vertex {v} lists itself"))
            clean = False
        if len(seen) != len(rot):
            out.append(Violation("duplicate-neighbor", f"vertex {v} repeats a neighbor"))
            clean = False
    if clean:
        for v, rot in enumerate(rotations):
            for u in rot:
                if v not in neighbor_sets[u]:
                    out.append(
                        Violation("symmetry", f"edge ({v}, {u}) has no reverse entry")
                    )
                    clean = False

    boundary = disk.boundary
    if disk.is_degenerate:
        if nv != 1 or rotations[0]:
            out.append(
                Violation("degenerate", "empty boundary is only valid for a single bare vertex")
            )
        return out

    t = len(boundary)
    on_boundary = set(boundary)
    if len(on_boundary) != t or t < 3:
        out.append(Violation("boundary-cycle", "boundary vertices are not distinct or t < 3"))
        return out
    if any(w < 0 or w >= nv for w in boundary):
        out.append(Violation("boundary-cycle", "boundary vertex id out of range"))
        return out
    for j in range(t):
        w, u = boundary[j], boundary[(j + 1) % t]
        if clean and u not in neighbor_sets[w]:
            out.append(Violation("boundary-cycle", f"boundary edge ({w}, {u}) is missing"))

    bound = convexity_bound(r)
    for v in range(nv):
        k = len(rotations[v])
        if v in on_boundary:
            if not 2 <= k <= bound:
                out.append(
                    Violation(
                        "boundary-degree",
                        f"boundary vertex {v} has degree {k}, outside [2, {bound}]",
                    )
                )
        elif k != r:
            out.append(Violation("interior-degree", f"interior vertex {v} has degree {k} != {r}"))

    if clean and not any(v.kind == "boundary-cycle" for v in out):
        try:
            count_explicit(disk)
        except MalformedDiskError as exc:
            out.append(Violation("face-structure", str(exc)))
    return out


def disk_to_json_obj(disk: CombinatorialDisk) -> dict:
    """Portable disk form: {"r", "layer", "boundary", "rotation"}."""
    return {
        "r": disk.ambient_degree,
        "layer": disk.layer_index,
        "boundary": list(disk.boundary),
        "rotation": [list(rot) for rot in disk.graph.rotations],
    }


def disk_from_json_obj(obj: dict) -> CombinatorialDisk:
    """Parse the portable form; ids must be integers (not booleans) in [0, len(rotation))."""
    if not isinstance(obj, dict):
        raise MalformedDiskError("disk JSON must be an object")
    missing = {"r", "layer", "boundary", "rotation"} - set(obj)
    if missing:
        raise MalformedDiskError(f"disk JSON missing keys: {sorted(missing)}")
    r, layer, boundary, rotation = obj["r"], obj["layer"], obj["boundary"], obj["rotation"]
    if type(r) is not int or type(layer) is not int:
        raise MalformedDiskError("'r' and 'layer' must be integers")
    if not isinstance(boundary, list) or not isinstance(rotation, list):
        raise MalformedDiskError("'boundary' and 'rotation' must be arrays")
    if not all(isinstance(rot, list) for rot in rotation):
        raise MalformedDiskError("rotation rows must be arrays of integers")
    # Whole-array passes that run in C cost less than a Python check per row.
    ids = list(chain.from_iterable(rotation))
    if set(map(type, ids)) - {int}:
        raise MalformedDiskError("rotation rows must be arrays of integers")
    nv = len(rotation)
    if ids and (min(ids) < 0 or max(ids) >= nv):
        raise MalformedDiskError(f"rotation rows list a vertex id outside [0, {nv})")
    rotations = [list(rot) for rot in rotation]
    if any(type(w) is not int or not 0 <= w < nv for w in boundary):
        raise MalformedDiskError(f"boundary must contain vertex ids in [0, {nv})")
    _require_degree(r)
    return CombinatorialDisk(RotationGraph(rotations), r, tuple(boundary), layer)
