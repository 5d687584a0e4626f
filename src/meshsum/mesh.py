"""Convex combinatorial disks in a degree-r triangulation, grown layer by layer.

A disk is a finite planar triangulated graph given by a rotation system:
for every vertex, the cyclic counterclockwise order of its neighbors.  The
boundary is a simple cycle listed counterclockwise (outer face on the left
of reversed boundary edges).  Interior vertices have degree exactly r;
boundary vertices keep degree at most ``growth.convexity_bound(r)``, the
convexity condition that makes one more growth layer well defined.

The rotation system is stored in CSR form ("compressed sparse row"): an
int64 array ``offsets`` of length nv + 1 and an int32 array ``neighbors``
of length 2e, so that ``neighbors[offsets[v]:offsets[v + 1]]`` is the
rotation at v.  Every function here works on these two arrays with
whole-array numpy operations; ``RotationGraph.rotations`` is a derived
list-of-lists copy for tests.  This module alone knows the disk file:
``disk_json`` writes it from the arrays through one byte template, and
``read_disk`` reads it back, straight into arrays when laid out as written.
Slot numbers (positions in ``neighbors``) are int32: a disk has at most MAX_SLOTS slots.

Expansion attaches every face of the ambient mesh that shares a vertex
with the current disk.  Each boundary edge (w_j, w_j+1) contributes one
shared new vertex u_j of final degree 4, and each boundary vertex w_j of
current degree k contributes r - 2 - k private new vertices of final
degree 3.  New vertices are created in counterclockwise boundary order,
so the new boundary cycle is exactly the id range [v_old, v_new).

Gap at the end: every boundary vertex lists its successor w_next on the
boundary first and its predecessor w_prev last, so the outer gap of its
rotation sits at the end of its row.  Expansion relies on this and keeps
it: a boundary row w_j only gains the contiguous id run u_{j-1}, the
privates of w_j, u_j at its end, and every new row reads [successor,
boundary neighbors, predecessor] on the new cycle.  A boundary row whose
gap sits elsewhere is rotated into this form first, which leaves the
rotation system unchanged.

The one layer pipeline is ``measured_layers``: it expands a canonical seed
under the vertex budget and yields each layer with its counts, boundary
profile and census.  The grow and verify commands only compare and record.

Face counts are measured, never assumed: faces are orbits of the
next-edge permutation next(u -> v) = (v, predecessor of u in the rotation
at v) (Mohar & Thomassen, Graphs on Surfaces, 2001), so every count here
is independent of the gap-at-end invariant and of the closed-form layer
predictions it is later checked against.  The measurement pass pairs each
directed edge with its reverse by sorting the two halves apart: the slots
u -> v with u < v by (u, v), the others by (v, u).  Triangles are then
tested by value, one gather per slot instead of composing next three times.
"""

from __future__ import annotations

import io
import json
import re
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .growth import CANONICAL_SEEDS, DEFAULT_VERTEX_BUDGET, DeltaCounts, DiskCounts, LayerCensus
from .growth import check_degree, convexity_bound
from .textcells import int_cells, row, text

# Ids and slot numbers are int32; a vertex has 2 slots or more, so ids stay below 2^30.
INT32 = np.iinfo(np.int32)
MAX_SLOTS = int(INT32.max)
_FACE, _VERTEX = CANONICAL_SEEDS.values()  # the rows seed_face and seed_vertex build


class ConvexityError(ValueError):
    """A boundary vertex exceeds the convex degree bound."""


class BudgetExceededError(RuntimeError):
    """Expansion would push the vertex count past the budget, or the slots past MAX_SLOTS."""

    def __init__(self, needed: int, budget: int, unit: str = "vertices"):
        self.needed = needed
        self.budget = budget
        super().__init__(f"expansion needs {needed} {unit}, budget is {budget}")


class MalformedDiskError(ValueError):
    """The rotation system or boundary violates the disk invariants."""


class CensusContradiction(RuntimeError):
    """A freshly added boundary vertex has degree outside {3, 4}."""


def _not_an_id(x) -> bool:
    return type(x) is bool or not isinstance(x, (int, np.integer))


def _id_array(ids) -> np.ndarray:
    """Vertex ids as a read-only int32 array: the one type-and-width check.

    Ids must be integers (booleans are not) that fit in 32 bits, else
    MalformedDiskError.  A read-only int32 array passes through uncopied.
    """
    if isinstance(ids, np.ndarray):
        if ids.dtype == np.int32 and not ids.flags.writeable:
            return ids
        ids = ids.tolist()
    elif not isinstance(ids, (list, tuple)):
        ids = list(ids)
    try:
        flat = np.frombuffer(array("q", ids), np.int64)
    except (TypeError, OverflowError):  # not an integer, or one past 64 bits
        flat = None
    # that one pass refused every other non-integer, but a boolean reads as 0 or 1
    if flat is None or any(map(_not_an_id, (ids[i] for i in np.flatnonzero(flat >> 1 == 0)))):
        if any(map(_not_an_id, ids)):
            raise MalformedDiskError("vertex ids must be integers")
    if flat is None or flat.size and (flat.min() < INT32.min or flat.max() > INT32.max):
        raise MalformedDiskError("a vertex id does not fit in 32 bits")
    out = flat.astype(np.int32)
    out.flags.writeable = False
    return out


class RotationGraph:
    """Undirected graph as counterclockwise rotations in CSR form.

    ``RotationGraph(rows)`` builds the arrays from per-vertex neighbor
    lists; ids are not range-checked here (validate_disk does that).
    ``RotationGraph.from_arrays`` wraps arrays already in CSR form.  Both
    arrays are read-only, so expansion never changes its input graph.
    """

    __slots__ = ("offsets", "neighbors")

    def __init__(self, rows):
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        self._init(offsets, _id_array(chain.from_iterable(rows)))

    @classmethod
    def from_arrays(cls, offsets: np.ndarray, neighbors: np.ndarray) -> RotationGraph:
        graph = cls.__new__(cls)
        graph._init(offsets, neighbors)
        return graph

    def _init(self, offsets: np.ndarray, neighbors: np.ndarray) -> None:
        if neighbors.size > MAX_SLOTS:
            raise MalformedDiskError(f"a disk holds at most {MAX_SLOTS} slots")
        offsets.flags.writeable = False
        neighbors.flags.writeable = False
        self.offsets = offsets
        self.neighbors = neighbors

    @property
    def vertex_count(self) -> int:
        return len(self.offsets) - 1

    def slot_sources(self) -> np.ndarray:
        """The vertex whose row holds each slot: the tail of each directed edge."""
        return np.repeat(np.arange(self.vertex_count, dtype=np.int32), np.diff(self.offsets))

    def neighbors_of(self, vertices: np.ndarray) -> np.ndarray:
        """The rotations at ``vertices``, one after another."""
        starts = self.offsets[vertices]
        return self.neighbors[_ranges(starts, self.offsets[vertices + 1] - starts)]

    @property
    def rotations(self) -> list[list[int]]:
        """Per-vertex neighbor lists, copied out of the arrays on each access."""
        flat = self.neighbors.tolist()
        bounds = self.offsets.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    def __eq__(self, other):
        if not isinstance(other, RotationGraph):
            return NotImplemented
        return np.array_equal(self.offsets, other.offsets) and np.array_equal(
            self.neighbors, other.neighbors
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"RotationGraph(vertices={self.vertex_count}, slots={self.neighbors.size})"


@dataclass(frozen=True, eq=False)
class CombinatorialDisk:
    """A grown disk: rotation graph, ambient degree, ccw boundary cycle.

    The boundary is stored as a read-only int32 array; an empty boundary
    flags the degenerate seed (one vertex, no faces).
    """

    graph: RotationGraph
    ambient_degree: int
    boundary: np.ndarray
    layer_index: int

    def __post_init__(self):
        object.__setattr__(self, "boundary", _id_array(self.boundary))

    @property
    def is_degenerate(self) -> bool:
        return not self.boundary.size

    @cached_property
    def _boundary_degrees(self) -> np.ndarray:
        """Degrees of the boundary vertices, in boundary order.

        Read once per disk: the measurement pass, the profile, the census
        and the next expansion share them.  Raises MalformedDiskError (on
        every access) for a boundary id outside the graph.
        """
        nv = self.graph.vertex_count
        w = self.boundary
        if w.size and (w.min() < 0 or w.max() >= nv):
            raise MalformedDiskError(f"boundary vertex id outside [0, {nv})")
        degs = self.graph.offsets[w + 1] - self.graph.offsets[w]
        degs.flags.writeable = False
        return degs

    def __eq__(self, other):
        if not isinstance(other, CombinatorialDisk):
            return NotImplemented
        return (self.graph, self.ambient_degree, self.layer_index) == (
            other.graph, other.ambient_degree, other.layer_index
        ) and np.array_equal(self.boundary, other.boundary)

    __hash__ = None


@dataclass(frozen=True)
class BoundaryProfile:
    """Boundary length t and total boundary degree d = sum of deg(w_j)."""

    t: int
    d: int


def _seed_disk(r: int, rows, boundary, *_) -> CombinatorialDisk:
    check_degree(r)
    return CombinatorialDisk(RotationGraph(rows), r, boundary, 0)


def seed_face(r: int) -> CombinatorialDisk:
    """Single triangle: vertices 0,1,2 counterclockwise."""
    return _seed_disk(r, *_FACE)


def seed_vertex(r: int) -> CombinatorialDisk:
    """Single vertex, no faces; degenerate until the first expansion."""
    return _seed_disk(r, *_VERTEX)


def _fan(r: int, layer_index: int) -> CombinatorialDisk:
    """All r triangles around one vertex: the first layer of seed_vertex."""
    rim = np.arange(1, r + 1, dtype=np.int32)
    rim.flags.writeable = False
    spokes = np.stack([np.roll(rim, -1), np.zeros_like(rim), np.roll(rim, 1)], axis=1)
    offsets = np.concatenate([[0], r + 3 * np.arange(r + 1)])
    graph = RotationGraph.from_arrays(offsets, np.concatenate([rim, spokes.ravel()]))
    return CombinatorialDisk(graph, r, rim, layer_index)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + n) over the pairs (s, n)."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + lengths, lengths) + np.arange(total)


def _require_simple_cycle(w: np.ndarray, nv: int) -> None:
    seen = np.zeros(nv, dtype=bool)
    seen[w] = True
    if w.size < 3 or np.count_nonzero(seen) != w.size:
        raise MalformedDiskError("boundary is not a simple cycle")


def is_convex(disk: CombinatorialDisk) -> bool:
    """True iff every boundary degree is within the convex bound."""
    if disk.is_degenerate:
        raise ValueError("degenerate disk has no boundary to test")
    bound = convexity_bound(disk.ambient_degree)
    return bool((disk._boundary_degrees <= bound).all())


def boundary_profile(disk: CombinatorialDisk) -> BoundaryProfile:
    """Boundary length and degree sum, in boundary order."""
    if disk.is_degenerate:
        raise ValueError("degenerate disk has no boundary profile")
    return BoundaryProfile(len(disk.boundary), int(disk._boundary_degrees.sum()))


def expand(disk: CombinatorialDisk, budget: int = DEFAULT_VERTEX_BUDGET) -> CombinatorialDisk:
    """One growth layer; the input disk is left untouched.

    Raises ConvexityError if a boundary vertex exceeds convexity_bound(r),
    BudgetExceededError if the result would exceed ``budget`` vertices
    or ``MAX_SLOTS`` slots, and MalformedDiskError if the boundary is not
    a simple cycle of ids whose rotations have an outer gap.
    """
    r = disk.ambient_degree
    if disk.is_degenerate:
        _require_room(1 + r, 4 * r, budget)
        return _fan(r, disk.layer_index + 1)

    offsets = disk.graph.offsets
    v_old = disk.graph.vertex_count
    w, degs = disk.boundary, disk._boundary_degrees
    _require_simple_cycle(w, v_old)
    bound = convexity_bound(r)
    over = np.flatnonzero(degs > bound)
    if over.size:
        j = over[0]
        raise ConvexityError(
            f"boundary vertex {w[j]} has degree {degs[j]} > {bound}, disk is not convex"
        )

    t, d = len(w), int(degs.sum())
    v_new = v_old + t * (r - 1) - d
    _require_room(v_new, disk.graph.neighbors.size + 4 * t * r - 2 * t - 4 * d, budget)
    w_next = np.roll(w, -1)
    neighbors = _gaps_last(offsets, disk.graph.neighbors, w, degs, np.roll(w, 1), w_next)

    # Creation order fixes ids: for each boundary slot j, the private
    # vertices of w_j, then u_j, shared with slot j + 1.  The new boundary
    # is then the plain id range in ccw order.
    private = r - 2 - degs
    u = v_old - 1 + np.cumsum(private + 1)

    # Old rows keep their order; row w_j grows by the run u_{j-1} .. u_j.
    run = private + 2
    extra = np.zeros(v_old, dtype=np.int64)
    extra[w] = run
    shift = np.zeros(v_old + 1, dtype=np.int64)
    np.cumsum(extra, out=shift[1:])
    head = offsets + shift
    new_degree = np.full(v_new - v_old, 3, dtype=np.int64)
    new_degree[u - v_old] = 4
    out_offsets = np.concatenate([head, head[-1] + np.cumsum(new_degree)])
    out = np.empty(int(out_offsets[-1]), dtype=np.int32)

    low = int(w.min())  # rows before the first boundary vertex do not move
    cut = int(offsets[low])
    out[:cut] = neighbors[:cut]
    moved = np.arange(cut, len(neighbors))
    out[moved + np.repeat(shift[low:-1], np.diff(offsets[low:]))] = neighbors[cut:]

    run_start = head[w + 1] - run
    slots = _ranges(run_start, run)
    out[slots] = slots + np.repeat(u - private - 1 - run_start, run)
    out[run_start[0]] = v_new - 1  # the run of w_0 starts at u_{t-1}

    # New rows: successor on the new cycle, the boundary vertices the new
    # vertex hangs from, predecessor on the new cycle.
    ids = np.arange(v_old, v_new, dtype=np.int32)
    ids.flags.writeable = False
    row = out_offsets[v_old:-1]
    out[row] = np.roll(ids, -1)
    out[out_offsets[v_old + 1 :] - 1] = np.roll(ids, 1)
    out[row + 1] = np.repeat(w, private + 1)
    shared = row[u - v_old]
    out[shared + 1] = w_next
    out[shared + 2] = w

    return CombinatorialDisk(
        RotationGraph.from_arrays(out_offsets, out), r, ids, disk.layer_index + 1
    )


def _require_room(vertices: int, slots: int, budget: int) -> None:
    """Refuse a disk past ``budget`` vertices or ``MAX_SLOTS`` slots, before allocating;
    expansion adds r - k slots to each boundary row of degree k, 3 or 4 to each new vertex."""
    if vertices > budget:
        raise BudgetExceededError(vertices, budget)
    if slots > MAX_SLOTS:
        raise BudgetExceededError(slots, MAX_SLOTS, "slots")


def _gaps_last(offsets, neighbors, w, degs, w_prev, w_next) -> np.ndarray:
    """Neighbors with each boundary row listing w_next first and w_prev last.

    Rows already in that form are kept; a row whose gap (w_prev, w_next)
    sits elsewhere is rotated, which keeps the rotation system.  Raises
    MalformedDiskError if a boundary row has no such gap at all.
    """
    start = offsets[w]
    fits = degs >= 2
    fits[fits] = (neighbors[start[fits]] == w_next[fits]) & (
        neighbors[start[fits] + degs[fits] - 1] == w_prev[fits]
    )
    if fits.all():
        return neighbors

    off = np.flatnonzero(~fits)
    lengths = degs[off]
    slots = _ranges(start[off], lengths)
    owner = np.repeat(np.arange(off.size), lengths)
    row_start, row_len = start[off][owner], lengths[owner]
    pos = slots - row_start
    gap = (neighbors[slots] == w_prev[off][owner]) & (
        neighbors[row_start + (pos + 1) % row_len] == w_next[off][owner]
    )
    found = np.bincount(owner[gap], minlength=off.size)
    if (found != 1).any():
        j = off[np.argmax(found != 1)]
        raise MalformedDiskError(
            f"boundary vertex {w[j]}: no outer gap between {w_prev[j]} and {w_next[j]}"
        )
    turn = np.zeros(off.size, dtype=np.int64)
    turn[owner[gap]] = pos[gap] + 1
    rotated = neighbors.copy()
    rotated[slots] = neighbors[row_start + (pos + turn[owner]) % row_len]
    return rotated


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
    w, degs = new.boundary, new._boundary_degrees
    odd = np.flatnonzero((degs != 3) & (degs != 4))
    if odd.size:
        j = odd[0]
        raise CensusContradiction(
            f"new boundary vertex {w[j]} has degree {degs[j]}, expected 3 or 4"
        )
    a = int(np.count_nonzero(degs == 3))
    return LayerCensus(a, len(degs) - a)


def delta_counts(before: DiskCounts, after: DiskCounts) -> DeltaCounts:
    """Per-layer increments of (v, e, f) between two measured disks."""
    return DeltaCounts(after.v - before.v, after.e - before.e, after.f - before.f)


def count_explicit(disk: CombinatorialDisk) -> DiskCounts:
    """Measure (v, e, f, s) from the rotation system alone.

    Faces are counted as orbits of the next-edge permutation; the outer
    face is identified with the (reversed) boundary cycle and excluded.
    The two halves of the directed edges, u -> v with u < v and the rest,
    are sorted apart; the rows are symmetric without repeats iff the two
    sorted key lists are equal and ascend, and then they pair each slot
    with its reverse.  Every face off the boundary is a triangle iff, for
    each slot u -> v there, next(u -> v) points at the successor of v in
    the row of u (``_face_problem`` has the proof).
    Raises MalformedDiskError("<kind>: <detail>") naming the first
    violation that validate_disk reports, so it raises for exactly the
    disks that validate_disk rejects.
    """
    counts, violations = _inspect(disk)
    if violations:
        first = violations[0]
        raise MalformedDiskError(f"{first.kind}: {first.detail}")
    return counts


@dataclass(frozen=True, eq=False)
class MeasuredLayer:
    """One grown layer and its measurements (no profile for a bare vertex, no census at 0)."""

    layer: int
    disk: CombinatorialDisk
    counts: DiskCounts
    profile: BoundaryProfile | None
    census: LayerCensus | None


def measured_layers(
    r: int, seed_kind: str, n_layers: int, budget: int = DEFAULT_VERTEX_BUDGET
) -> Iterator[MeasuredLayer]:
    """Layers 0..n_layers of a canonical seed, each counted, profiled and censused.

    Stops quietly before the first expansion past ``budget``.  A layer that
    fails measurement (or runs out of memory) re-raises its MalformedDiskError
    or CensusContradiction (or a MemoryError) with "r=<r> seed=<kind> layer=<k>: " in front.
    Only the current disk and its predecessor are kept alive.
    """
    if seed_kind not in CANONICAL_SEEDS:
        names = " and ".join(CANONICAL_SEEDS)
        raise ValueError(f"only the canonical seeds {names} can grow, got {seed_kind!r}")
    disk = _seed_disk(r, *CANONICAL_SEEDS[seed_kind])
    prev = None
    for layer in range(n_layers + 1):
        where = f"r={r} seed={seed_kind} layer={layer}"
        try:
            if layer:
                prev = disk  # drop the older disk before building the next one
                disk = expand(prev, budget)
            counts = count_explicit(disk)
            profile = None if disk.is_degenerate else boundary_profile(disk)
            census = None if prev is None else layer_census(prev, disk)
        except BudgetExceededError:
            return
        except (MalformedDiskError, CensusContradiction) as exc:
            raise type(exc)(f"{where}: {exc}") from None
        except MemoryError:
            raise MemoryError(f"{where}: out of memory, lower --budget") from None
        yield MeasuredLayer(layer, disk, counts, profile, census)


def _packed(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """high << 32 | low as int64, for non-negative ids and slot numbers."""
    key = high.astype(np.int64)
    key <<= 32
    key |= low
    return key


def _forward_half(src: np.ndarray, dst: np.ndarray):
    """The slots with src < dst in (src, dst) order, and their keys src << 32 | dst.

    Slot numbers ascend with src, so the stable sort only has to order the
    entries of each row by dst, and rows from expand mostly list them so.
    """
    slots = np.flatnonzero(src < dst)
    keys = _packed(src[slots], dst[slots])
    order = np.argsort(keys, kind="stable")
    return slots[order].astype(np.int32), keys[order]


def _backward_half(src: np.ndarray, dst: np.ndarray):
    """The slots with src >= dst in (dst, src) order, and their keys dst << 32 | src.

    Slot numbers ascend with src, so ordering by dst with ties kept in slot
    order is ordering by (dst, src): one sort of the values dst << 32 | slot.
    """
    slots = np.flatnonzero(src >= dst)
    keys = _packed(dst[slots], slots)
    keys.sort()
    np.bitwise_and(keys, 0xFFFFFFFF, out=slots)
    keys &= -(1 << 32)
    keys |= src[slots]
    return slots.astype(np.int32), keys


def _lone_slots(slots: np.ndarray, keys: np.ndarray, other: np.ndarray) -> np.ndarray:
    """The slots whose key the other half (sorted) does not hold: no reverse edge."""
    if not other.size:
        return slots
    pos = np.minimum(np.searchsorted(other, keys), other.size - 1)
    return slots[other[pos] != keys]


def _outer_slots(offsets, nbr, rev, w, degs):
    """Slots of the reversed boundary edges w_j+1 -> w_j, or the first j whose edge is missing.

    The edge w_j -> w_j+1 is looked up in the row of w_j; its reverse is the
    outer slot.  Rows repeat no neighbor here, so each row holds it at most
    once.  The first entry of every row is tried first (expand lists w_j+1
    there), and only the rows where it is not are scanned in full.
    """
    w_next = np.roll(w, -1)
    start = offsets[w]
    at_start = degs > 0
    at_start[at_start] = nbr[start[at_start]] == w_next[at_start]
    found = np.where(at_start, start, -1)
    rest = np.flatnonzero(~at_start)
    if rest.size:
        slots = _ranges(start[rest], degs[rest])
        hit = nbr[slots] == np.repeat(w_next[rest], degs[rest])
        found[np.repeat(rest, degs[rest])[hit]] = slots[hit]
    if (found < 0).any():
        return None, int(np.argmax(found < 0))
    return rev[found], None


def _face_problem(offsets, nbr, rev, outer) -> str | None:
    """What breaks "one outer face along ``outer``, triangles elsewhere", or None.

    ``rev`` maps each slot to the slot of its reverse edge and is turned in
    place into next: next(u -> v) is the slot before rev(u -> v) in the row
    of v, cyclically.  ``outer`` holds the slots of the reversed boundary
    edges w_j+1 -> w_j, and next must walk them as one orbit.

    Off that orbit, triangles are tested by value: for u -> v, the head x of
    next(u -> v) = v -> x must be the successor of v in the row of u.  With
    no loops, no repeated neighbors and a closed outer orbit this holds on
    every other slot iff next^3 = id there.  Proof: next(v -> x) = x -> y
    with y the predecessor of v at x, which the test on v -> x (off the
    orbit too, as next keeps the orbit and so its complement) makes the
    successor of x at v, that is u, as x precedes u at v.  Then next(x -> u)
    = u -> z with z the predecessor of x at u, which is v by the test on
    u -> v, so next^3(u -> v) = u -> v.  Conversely a triangle u -> v ->
    x -> u has v before x at u.  No loops also rule out next = id, as
    next(u -> v) lies in the row of v, not of u.  Only when the test fails
    is next^3 composed, to name the first offender.
    """
    rows = np.diff(offsets) > 0
    starts, ends = offsets[:-1][rows], offsets[1:][rows] - 1
    nxt = rev
    wrap = nxt[starts]  # the slots whose reverse opens a row
    nxt -= 1
    nxt[wrap] = ends
    del wrap
    if not np.array_equal(nxt[outer], np.roll(outer, 1)):
        return "outer face does not trace the boundary"
    head = np.take(nbr, nxt)
    bad = np.empty(nbr.size, dtype=bool)
    np.not_equal(head[:-1], nbr[1:], out=bad[:-1])
    bad[ends] = head[ends] != nbr[starts]
    bad[outer] = False
    if not bad.any():
        return None
    del head, bad
    slot = np.arange(nbr.size, dtype=nxt.dtype)
    bad = nxt[nxt[nxt]] != slot
    bad[outer] = False
    return f"interior face through edge slot {int(np.argmax(bad))} is not a triangle"


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
    triangles).  Each broken kind is reported once, naming its first
    offender.
    """
    return _inspect(disk)[1]


def _inspect(disk: CombinatorialDisk) -> tuple[DiskCounts | None, list[Violation]]:
    """The one measurement pass: the violations, and the counts if there are none.

    The two halves of the directed edges are sorted apart and paired; an
    offender is looked up only after a cheap whole-array test failed.
    """
    out: list[Violation] = []
    graph = disk.graph
    nv = graph.vertex_count
    offsets, nbr = graph.offsets, graph.neighbors
    src = graph.slot_sources()

    if nbr.size and (nbr.min() < 0 or nbr.max() >= nv):
        out_of_range = (nbr < 0) | (nbr >= nv)
        out.append(Violation(
            "id-range", f"vertex {src[out_of_range][0]} lists an out-of-range neighbor"
        ))
        bad_row = np.zeros(nv, dtype=bool)
        bad_row[src[out_of_range]] = True
        keep = ~bad_row[src]
        src, nbr = src[keep], nbr[keep]
    if (src == nbr).any():
        out.append(Violation("loop", f"vertex {src[src == nbr][0]} lists itself"))
    first, forward = _forward_half(src, nbr)
    second, backward = _backward_half(src, nbr)
    # the disk is symmetric without repeats iff the two sorted halves are equal and ascend
    paired = np.array_equal(forward, backward) and bool((forward[1:] > forward[:-1]).all())
    if not paired:
        repeated = np.concatenate([  # the tails of the edges listed twice
            forward[1:][forward[1:] == forward[:-1]] >> 32,
            backward[1:][backward[1:] == backward[:-1]] & 0xFFFFFFFF,
        ])
        if repeated.size:
            out.append(
                Violation("duplicate-neighbor", f"vertex {repeated.min()} repeats a neighbor")
            )
        if not out:
            slot = np.concatenate([
                _lone_slots(first, forward, backward), _lone_slots(second, backward, forward)
            ]).min()
            out.append(
                Violation("symmetry", f"edge ({src[slot]}, {nbr[slot]}) has no reverse entry")
            )
    clean = not out
    del src, forward, backward
    if clean:
        rev = np.empty(nbr.size, dtype=np.int32)
        rev[first] = second
        rev[second] = first
    del first, second

    if disk.is_degenerate:
        if nv != 1 or offsets[1]:
            out.append(
                Violation("degenerate", "empty boundary is only valid for a single bare vertex")
            )
        return (None if out else DiskCounts(1, 0, 0, 1)), out

    w = disk.boundary
    try:
        degs = disk._boundary_degrees
        _require_simple_cycle(w, nv)
    except MalformedDiskError as exc:
        out.append(Violation("boundary-cycle", str(exc)))
        return None, out
    if clean:
        outer, j = _outer_slots(offsets, nbr, rev, w, degs)
        if outer is None:
            out.append(Violation(
                "boundary-cycle", f"boundary edge ({w[j]}, {w[(j + 1) % w.size]}) is missing"
            ))
            clean = False

    r = disk.ambient_degree
    bound = convexity_bound(r)
    sharp = (degs < 2) | (degs > bound)
    if sharp.any():
        j = np.argmin(np.where(sharp, w, nv))
        out.append(Violation(
            "boundary-degree", f"boundary vertex {w[j]} has degree {degs[j]}, outside [2, {bound}]"
        ))
    wrong = np.diff(offsets) != r
    wrong[w] = False
    if wrong.any():
        v = np.argmax(wrong)
        out.append(Violation(
            "interior-degree", f"interior vertex {v} has degree {np.diff(offsets)[v]} != {r}"
        ))
    del sharp, wrong

    if clean:
        problem = _face_problem(offsets, nbr, rev, outer)
        if problem:
            out.append(Violation("face-structure", problem))
    if out:
        return None, out
    total, t = nbr.size, w.size
    return DiskCounts(nv, total // 2, (total - t) // 3, nv - t), out


def disk_from_json_obj(obj: dict) -> CombinatorialDisk:
    """Parse the portable form {"r", "layer", "boundary", "rotation"} that
    ``disk_json`` writes; ids must be integers (not booleans) in
    [0, len(rotation)), r passing ``growth.check_degree`` and layer at least 0."""
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
    return _checked_disk(CombinatorialDisk(RotationGraph(rotation), r, boundary, layer))


def _checked_disk(disk: CombinatorialDisk) -> CombinatorialDisk:
    """``disk`` once its ids, r and layer pass the checks both disk JSON readers make."""
    nv = disk.graph.vertex_count
    for ids in (disk.graph.neighbors, disk.boundary):
        if ids.size and (ids.min() < 0 or ids.max() >= nv):
            raise MalformedDiskError(f"rotation or boundary lists a vertex id outside [0, {nv})")
    check_degree(disk.ambient_degree)
    if disk.layer_index < 0:
        raise MalformedDiskError("'layer' must not be negative")
    return disk


# The disk file; the byte reader takes the fixed bytes around its two id lists from here.
_DISK = b'{\n  "boundary": %s,\n  "layer": %d,\n  "r": %d,\n  "rotation": %s\n}\n'
_HEAD, _MIDDLE, _TAIL = _DISK.replace(b"%s", b"[%s]").split(b"%s")
_DISK_MIDDLE = re.compile(re.escape(_MIDDLE).replace(b"%d", rb"(0|-?[1-9][0-9]{0,8})"))


def _json_int_list(ids, indent: int, offsets=None) -> bytes:
    """Canonical JSON of the int32 array ``ids`` with its items at ``indent``:
    one list or, cut into rows at CSR ``offsets``, the list of those rows."""
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
    """The disk file: ``report.canonical_json`` of the portable form, straight from the arrays."""
    return (_DISK % (_json_int_list(disk.boundary, 4), disk.layer_index, disk.ambient_degree,
                     _json_int_list(disk.graph.neighbors, 6, disk.graph.offsets))).decode("ascii")


def _canonical_lines(buf: np.ndarray, lo: int, hi: int, indent: int, rows: bool):
    """The CSR offsets and the int32 ids of buf[lo:hi] if it holds a list
    of ids at ``indent`` (or of rows of them) as ``disk_json`` lays it
    out, else None: empty, or lines between a newline and two spaces, each
    spaces, "[", "]" or an id of at most 8 digits, then maybe a comma."""
    part = buf[lo:hi]
    ends = np.flatnonzero(part == 10).astype(np.int32)
    if ends.size < 2 or ends[0] or ends[-1] != part.size - 3:
        return (np.zeros(1, np.int64), np.zeros(0, np.int32)) if hi == lo else None
    comma = part[ends[1:] - 1] == 44
    size = ends[1:] - comma - ends[:-1] - 1  # bytes in a line, its comma aside
    # the 8 bytes before each line's comma or newline (the head puts over 8 bytes ahead of part)
    words = np.ndarray(part.shape, "<u8", buf, lo - 8, (1,))[ends[1:] - comma]
    lines = np.flatnonzero(words >= 0x5B << 56)  # ending in "[", "]" or a byte past them
    gaps = np.diff(np.r_[-1, lines, size.size])  # ahead of each bracket line, and of the end
    bare = np.ones(size.size, bool)  # the lines with no comma: "[", each before "]", the last
    bare[lines[::2]] = bare[lines[1::2] - 1] = bare[-1] = False
    brackets = words[lines] >> 16  # the newline ahead, 4 spaces and the bracket
    size, words = np.delete(size, lines), np.delete(words, lines)  # now the id lines alone
    shift = (64 + 8 * indent - 8 * size).astype(np.uint64)  # 64 - 8 * digits
    words = (words ^ 0x3030303030303030) >> shift  # digits 0..9 alone, the first in the low byte
    # "    [" and "    ]" lines by turns, ids of 1 to 8 digits between them and nowhere else
    if not (np.array_equal(brackets, np.tile([0x5B202020200A, 0x5D202020200A],
                                             lines.size // 2 * rows))
            and (gaps[rows::2] > 1).all() and (gaps[1 - rows::2] == 1).all()
            and np.array_equal(comma, bare) and ((size > indent) & (size <= indent + 8)).all()
            and np.count_nonzero(part == 32) == 2 + 4 * lines.size + indent * size.size
            and not ((words + 0x7676767676767676 | words) & 0x8080808080808080).any()
            and not ((words & 255 == 0) & (shift < 56)).any()):  # a leading zero
        return None
    words <<= shift  # leading zeros; then join the digits in pairs, fours and eights (SWAR)
    words = (words * 10 + (words >> 8)) & 0x00FF00FF00FF00FF
    words = (words * 100 + (words >> 16)) & 0x0000FFFF0000FFFF
    ids = (words * 10000 + (words >> 32) & 0xFFFFFFFF).astype(np.int32)
    return np.append(lines[::2] - np.arange(0, lines.size, 2), ids.size), ids


def disk_from_canonical_json(data: bytes) -> CombinatorialDisk | None:
    """The disk in ``data`` if it is laid out byte for byte as ``disk_json``
    lays out a disk with no empty row, else None.  The disk it returns, or the
    error it raises, is the one ``disk_from_json_obj`` would."""
    middle = _DISK_MIDDLE.search(data)
    if not (middle and data.startswith(_HEAD) and data.endswith(_TAIL)):
        return None
    buf = np.frombuffer(data, np.uint8)
    boundary = _canonical_lines(buf, len(_HEAD), middle.start(), 4, False)
    rotation = _canonical_lines(buf, middle.end(), buf.size - len(_TAIL), 6, True)
    if boundary is None or rotation is None:
        return None
    # copies made once the scratch is freed take its memory instead of sitting
    # above it, where they would keep the heap from shrinking before render draws
    offsets, neighbors, boundary = (a.copy() for a in (*rotation, boundary[1]))
    boundary.flags.writeable = False
    graph = RotationGraph.from_arrays(offsets, neighbors)
    return _checked_disk(CombinatorialDisk(graph, int(middle[2]), boundary, int(middle[1])))


def read_disk(data: bytes) -> CombinatorialDisk:
    """The disk in a disk file's bytes: straight into arrays if laid out as ``disk_json``
    writes them, else through the json module from the text ``open()`` would decode."""
    try:  # a disk is never false
        return disk_from_canonical_json(data) or disk_from_json_obj(
            json.load(io.TextIOWrapper(io.BytesIO(data), "utf-8")))
    except RecursionError:
        raise MalformedDiskError("disk JSON nests too deeply") from None
