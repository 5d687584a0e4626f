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
rotation at v.  Every function here works on these two arrays with numpy
operations; ``expand`` builds each layer in place, and it and the measurement
pass read a block of _CHUNK rows or slots at a time, so that no temporary grows
with the disk.  ``RotationGraph.rotations`` is a list-of-lists copy for tests.
This module alone knows the disk file: ``disk_json`` writes it from the arrays
through one byte template, and ``read_disk`` reads it back, straight into
arrays when laid out as written.
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
under the vertex budget and yields each layer with its counts, profile (a
``growth.SeedDescriptor``) and census.  Grow and verify only compare and record.

Face counts are measured, never assumed: faces are orbits of the
next-edge permutation next(u -> v) = (v, predecessor of u in the rotation
at v) (Mohar & Thomassen, Graphs on Surfaces, 2001), so every count here
is independent of the gap-at-end invariant and of the closed-form layer
predictions it is later checked against.  The measurement pass pairs each
directed edge with its reverse by sorting the two halves apart, u -> v with
u < v by (u, v) and the rest by (v, u), a run of rows at a time; triangles
are then tested by value, one gather per slot, not by composing next thrice.
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

from .exact import brief
from .growth import CANONICAL_SEEDS, DEFAULT_VERTEX_BUDGET, DeltaCounts, DiskCounts, LayerCensus
from .growth import SeedDescriptor, check_degree, convexity_bound
from .textcells import int_cells, row, text

# Ids and slot numbers are int32; a vertex has 2 slots or more, so ids stay below 2^30.
INT32 = np.iinfo(np.int32)
MAX_SLOTS = int(INT32.max)
# Index entries per gather or scatter in the measurement pass: numpy copies an int32 index to intp.
_CHUNK = 1 << 16
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


def boundary_profile(disk: CombinatorialDisk) -> SeedDescriptor:
    """``SeedDescriptor(r, t, d)``: the boundary length t and degree sum d.  Every
    disk validate_disk accepts has one; for any other, it may raise InvalidSeedError."""
    if disk.is_degenerate:
        raise ValueError("degenerate disk has no boundary profile")
    degrees = disk._boundary_degrees
    return SeedDescriptor(disk.ambient_degree, degrees.size, int(degrees.sum()))


def expand(disk: CombinatorialDisk, budget: int = DEFAULT_VERTEX_BUDGET) -> CombinatorialDisk:
    """One growth layer, built in place a block at a time; the input disk is left untouched.

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
    neighbors = _gaps_last(offsets, disk.graph.neighbors, w, degs, np.roll(w, 1), np.roll(w, -1))

    # Creation order fixes ids: for each boundary slot j, the private
    # vertices of w_j, then u_j, shared with slot j + 1.  The new boundary
    # is then the plain id range in ccw order.  The row lengths, summed in
    # place: row w_j grows by its run u_{j-1} .. u_j, a new row holds 3
    # entries, and 4 for u_j.
    run = r - degs
    u = np.cumsum(run - 1) + (v_old - 1)
    out_offsets = np.full(v_new + 1, 3, dtype=np.int64)
    out_offsets[0] = 0
    np.subtract(offsets[1:], offsets[:-1], out=out_offsets[1 : v_old + 1])
    out_offsets[w + 1] += run
    out_offsets[u + 1] = 4
    np.cumsum(out_offsets, out=out_offsets)
    out = np.empty(int(out_offsets[-1]), dtype=np.int32)

    # Old rows keep their entries in order; from the first boundary row on
    # they move to their new starts, a column of at most _CHUNK rows at a time.
    low = int(w.min())
    out[: offsets[low]] = neighbors[: offsets[low]]
    for a in range(low, v_old, _CHUNK):
        b = min(a + _CHUNK, v_old)
        old, new, degree = offsets[a:b], out_offsets[a:b], np.diff(offsets[a : b + 1])
        for i in range(int(degree.max())):
            rows = degree > i
            out[new[rows] + i] = neighbors[old[rows] + i]

    # Each block of _CHUNK boundary slots writes its runs and its new rows, one id
    # range: [successor on the new cycle, boundary vertices hung from, predecessor].
    for lo in range(0, t, _CHUNK):
        hi = min(lo + _CHUNK, t)
        wb, rb, ub = w[lo:hi], run[lo:hi], u[lo:hi]
        a, b = int(ub[0] - rb[0]) + 2, int(ub[-1]) + 1  # the block's new ids
        out[out_offsets[wb + 1] - rb] = ub - rb + 1  # a run opens with u_{j-1}, then come
        pos = np.repeat(out_offsets[wb + 1] - ub - 1, rb - 1)  # the ids up to u_j, last in the row
        pos += np.arange(a, b)
        out[pos] = np.arange(a, b, dtype=np.int32)
        del pos
        out[out_offsets[a:b]] = np.arange(a + 1, b + 1, dtype=np.int32)
        out[out_offsets[a + 1 : b + 1] - 1] = np.arange(a - 1, b - 1, dtype=np.int32)
        out[out_offsets[a:b] + 1] = np.repeat(wb, rb - 1)
        out[out_offsets[ub] + 1] = w[lo + 1 : hi + 1] if hi < t else np.append(w[lo + 1 :], w[0])
        out[out_offsets[ub] + 2] = wb
    out[out_offsets[v_new - 1]] = v_old  # the new cycle closes
    out[out_offsets[v_old + 1] - 1] = v_new - 1
    out[out_offsets[w[0] + 1] - run[0]] = v_new - 1  # the run of w_0 starts at u_{t-1}

    ids = np.arange(v_old, v_new, dtype=np.int32)
    ids.flags.writeable = False
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

    off = np.flatnonzero(~fits)  # turned one row at a time: only hand-built disks get here
    slots = _ranges(start[off], degs[off])
    values, s = neighbors[slots].tolist(), 0  # the turned rows alone, as one Python list
    for v, k, p, n in zip(*(col[off].tolist() for col in (w, degs, w_prev, w_next))):
        row = values[s : s + k]
        gaps = [i for i in range(k) if row[i - 1] == p and row[i] == n]
        if len(gaps) != 1:
            raise MalformedDiskError(f"boundary vertex {v}: no outer gap between {p} and {n}")
        values[s : s + k] = row[gaps[0] :] + row[: gaps[0]]
        s += k
    rotated = neighbors.copy()
    rotated[slots] = values
    return rotated


def grow(
    seed: CombinatorialDisk, layers: int, budget: int = DEFAULT_VERTEX_BUDGET
) -> CombinatorialDisk:
    """Expand ``layers`` times."""
    disk = seed
    for _ in range(layers):
        disk = expand(disk, budget)
    return disk


def layer_census(disk: CombinatorialDisk) -> LayerCensus:
    """Count degree-3 and degree-4 vertices on the boundary of an expanded disk.

    Any other boundary degree means the construction contradicts the
    two-kinds classification and raises CensusContradiction.
    """
    w, degs = disk.boundary, disk._boundary_degrees
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
    are sorted apart and paired in order; the rows are symmetric without
    repeats iff each slot's partner points back at the slot's tail, and
    then it is the reverse.  Every face off the boundary is a triangle iff,
    for each slot u -> v there, next(u -> v) points at the successor of v
    in the row of u (``_face_problem`` has the proof).  The pass peaks near
    8.5 bytes per slot on the largest layers.  Raises MalformedDiskError("<kind>: <detail>")
    naming the first violation that validate_disk reports: it returns
    counts, with v - e + f = 1, for exactly the disks validate_disk accepts.
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
    profile: SeedDescriptor | None
    census: LayerCensus | None


def measured_layers(
    r: int, seed_kind: str, n_layers: int, budget: int = DEFAULT_VERTEX_BUDGET
) -> Iterator[MeasuredLayer]:
    """Layers 0..n_layers of a canonical seed, each counted, profiled and censused.

    Stops quietly before the first expansion past ``budget``.  A layer that
    fails measurement (or runs out of memory) re-raises its MalformedDiskError
    or CensusContradiction (or a MemoryError) with "r=<r> seed=<kind> layer=<k>: " in front.
    Only the current disk is kept here; a caller that holds the last layer keeps its disk.
    """
    if seed_kind not in CANONICAL_SEEDS:
        names = " and ".join(CANONICAL_SEEDS)
        raise ValueError(f"only the canonical seeds {names} can grow, got {brief(seed_kind)}")
    disk = _seed_disk(r, *CANONICAL_SEEDS[seed_kind])
    for layer in range(n_layers + 1):
        where = f"r={r} seed={seed_kind} layer={layer}"
        try:
            if layer:
                disk = expand(disk, budget)
            counts = count_explicit(disk)
            profile = None if disk.is_degenerate else boundary_profile(disk)
            census = layer_census(disk) if layer else None
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


def _row_spans(offsets: np.ndarray) -> Iterator[tuple[int, int]]:
    """Runs of whole rows of about _CHUNK slots, as (first row, row after the last)."""
    cuts = np.searchsorted(offsets, range(0, offsets[-1], _CHUNK)).tolist() + [offsets.size - 1]
    return zip(cuts, cuts[1:])


def _row_runs(offsets: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Runs of whole rows of about _CHUNK slots: each run's first slot and the row of each slot."""
    for v0, v1 in _row_spans(offsets):
        rows = np.arange(v0, v1, dtype=np.int32)
        yield int(offsets[v0]), np.repeat(rows, np.diff(offsets[v0 : v1 + 1]))


def _row_ends(offsets: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The first and the last slot of each non-empty row, a run of rows at a time."""
    for v0, v1 in _row_spans(offsets):
        starts, ends = offsets[v0:v1], offsets[v0 + 1 : v1 + 1] - 1
        full = ends >= starts
        if full.any():
            yield starts[full], ends[full]


def _forward_half(src: np.ndarray, dst: np.ndarray, lo: int) -> tuple[np.ndarray, bool]:
    """The slots lo + i with src < dst in (src, dst) order, ties in slot order, and
    whether a row lists one dst twice.  ``src`` ascends and holds whole rows, which
    expand lists in dst order but for a few: only a run where some dst fail to ascend is sorted.
    """
    slots = np.flatnonzero(src < dst)
    src, dst = src[slots], dst[slots]
    slots += lo
    if not ((src[1:] == src[:-1]) & (dst[1:] <= dst[:-1])).any():
        return slots, False
    keys = _packed(src, dst)
    del src, dst
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    return slots[order], bool((keys[1:] == keys[:-1]).any())


def _backward_half(nbr: np.ndarray, slots: np.ndarray) -> None:
    """Sort ``slots`` (int32, those with src >= dst) in place into (dst, src) order:
    by dst << 32 | slot, as slot numbers ascend with src."""
    keys = np.empty(slots.size, dtype=np.int64)
    for lo in range(0, slots.size, _CHUNK):
        keys[lo : lo + _CHUNK] = _packed(nbr[slots[lo : lo + _CHUNK]], slots[lo : lo + _CHUNK])
    keys.sort()
    np.bitwise_and(keys, 0xFFFFFFFF, out=slots, casting="unsafe")


def _halves(offsets: np.ndarray, nbr: np.ndarray):
    """The slots with src < dst in (src, dst) order and the others in (dst, src) order,
    read a run of rows at a time into the two ends of one int32 buffer, and whether
    the first half repeats an edge."""
    buf = np.empty(nbr.size, dtype=np.int32)
    f, b, tied = 0, nbr.size, False
    for lo, src in _row_runs(offsets):
        dst = nbr[lo : lo + src.size]
        ahead, repeats = _forward_half(src, dst, lo)
        buf[f : f + ahead.size] = ahead
        f, b, tied = f + ahead.size, b - src.size + ahead.size, tied or repeats
        buf[b : b + src.size - ahead.size] = np.flatnonzero(src >= dst) + lo
        del src, ahead
    _backward_half(nbr, buf[f:])
    return buf[:f], buf[f:], tied


def _reverse_slots(offsets, nbr, first, second) -> np.ndarray | None:
    """rev[first[i]] = second[i] and back, for halves of one size: the slot of each
    edge's reverse, or None if the halves do not pair up.  rev pairs every slot, and
    halves that repeat no edge pair up iff the head of slot rev[x] is the tail of x."""
    rev = np.empty(nbr.size, dtype=np.int32)
    for lo in range(0, first.size, _CHUNK):
        rev[first[lo : lo + _CHUNK]] = second[lo : lo + _CHUNK]
        rev[second[lo : lo + _CHUNK]] = first[lo : lo + _CHUNK]
    paired = all((nbr[rev[lo : lo + src.size]] == src).all() for lo, src in _row_runs(offsets))
    return rev if paired else None


def _outer_slots(offsets, nbr, rev, w, degs):
    """Slots of the reversed boundary edges w_j+1 -> w_j, or the first j whose edge is missing.

    The edge w_j -> w_j+1 is looked up in the row of w_j; its reverse is the
    outer slot.  Rows repeat no neighbor here, so each row holds it at most
    once.  Of _CHUNK rows at a time, the first entry is tried first (expand
    lists w_j+1 there), and only the rows where it is not are scanned in full.
    """
    outer, after = np.empty(w.size, dtype=np.int32), np.roll(w, -1)
    for lo in range(0, w.size, _CHUNK):
        w_next, deg = after[lo : lo + _CHUNK], degs[lo : lo + _CHUNK]
        start = offsets[w[lo : lo + _CHUNK]]
        at_start = deg > 0
        at_start[at_start] = nbr[start[at_start]] == w_next[at_start]
        found = np.where(at_start, start, -1)
        rest = np.flatnonzero(~at_start)
        if rest.size:
            slots = _ranges(start[rest], deg[rest])
            hit = nbr[slots] == np.repeat(w_next[rest], deg[rest])
            found[np.repeat(rest, deg[rest])[hit]] = slots[hit]
        if (found < 0).any():
            return None, lo + int(np.argmax(found < 0))
        outer[lo : lo + _CHUNK] = rev[found]
    return outer, None


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
    nxt = rev
    wrap = [nxt[starts] for starts, _ in _row_ends(offsets)]  # the slots whose reverse opens a row
    nxt -= 1  # only once every wrap slot is read: a wrap slot may itself open a row
    for slots, (_, ends) in zip(wrap, _row_ends(offsets)):
        nxt[slots] = ends
    del wrap
    if not np.array_equal(nxt[outer], np.roll(outer, 1)):
        return "outer face does not trace the boundary"
    bad = np.empty(nbr.size, dtype=bool)
    for starts, ends in _row_ends(offsets):  # each slot against the next in its row
        lo, hi = starts[0], ends[-1]  # the run's slots, of which the last ends a row
        np.not_equal(nbr[nxt[lo:hi]], nbr[lo + 1 : hi + 1], out=bad[lo:hi])
        bad[ends] = nbr[nxt[ends]] != nbr[starts]
    bad[outer] = False
    if not bad.any():
        return None
    del bad
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
    offender.  A disk that passes them all must have v - e + f = 1 (kind
    "euler-characteristic"): a handle lowers v - e + f by 2, and a closed
    component, all of degree r >= 7, adds v (6 - r) / 6 < 0 to it.
    """
    return _inspect(disk)[1]


def _inspect(disk: CombinatorialDisk) -> tuple[DiskCounts | None, list[Violation]]:
    """The one measurement pass: the violations, and the counts if there are none.

    The halves of the directed edges are sorted apart and paired, each gather
    a chunk at a time; an offender is looked up only after a cheap test failed.
    """
    check_degree(disk.ambient_degree)  # first: a degree it refuses raises, whatever the rows
    out: list[Violation] = []
    graph = disk.graph
    nv = graph.vertex_count
    offsets, nbr = graph.offsets, graph.neighbors
    rows = offsets  # the rows the edges are paired from: those with every id in range

    if nbr.size and (nbr.min() < 0 or nbr.max() >= nv):
        src = graph.slot_sources()
        out_of_range = (nbr < 0) | (nbr >= nv)
        out.append(Violation(
            "id-range", f"vertex {src[out_of_range][0]} lists an out-of-range neighbor"
        ))
        bad_row = np.zeros(nv, dtype=bool)
        bad_row[src[out_of_range]] = True
        nbr = nbr[~bad_row[src]]
        rows = np.concatenate([[0], np.cumsum(np.where(bad_row, 0, np.diff(offsets)))])
    first, second, tied = _halves(rows, nbr)
    rev = None if tied or first.size != second.size else _reverse_slots(rows, nbr, first, second)
    if rev is None:  # a loop, a repeat or a lone edge
        src = np.repeat(np.arange(nv, dtype=np.int32), np.diff(rows))
        if (src == nbr).any():
            out.append(Violation("loop", f"vertex {src[src == nbr][0]} lists itself"))
        keys = np.sort(_packed(src, nbr))
        repeated = keys[1:][keys[1:] == keys[:-1]] >> 32  # the tails of the edges listed twice
        if repeated.size:
            out.append(
                Violation("duplicate-neighbor", f"vertex {repeated.min()} repeats a neighbor")
            )
        if not out:
            slot = np.argmin(np.isin(_packed(nbr, src), keys))  # the first with no reverse entry
            out.append(
                Violation("symmetry", f"edge ({src[slot]}, {nbr[slot]}) has no reverse entry")
            )
        del src, keys
    del first, second
    clean = not out

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
    chi = nv - total // 2 + (total - t) // 3  # below 1 for a handle or a closed component
    if chi != 1:
        return None, [Violation("euler-characteristic", f"v - e + f = {chi} != 1")]
    return DiskCounts(nv, total // 2, (total - t) // 3, nv - t), out


def disk_from_json_obj(obj: dict) -> CombinatorialDisk:
    """Parse the portable form {"r", "layer", "boundary", "rotation"} that
    ``disk_json`` writes; ids must be integers (not booleans) in
    [0, len(rotation)), r passing ``growth.check_degree`` and layer in [0, MAX_SLOTS]."""
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
    if disk.layer_index > MAX_SLOTS:  # a disk grown k layers holds more than k slots
        raise MalformedDiskError(f"'layer' must be at most {MAX_SLOTS}")
    return disk


# The disk file; the byte reader takes the fixed bytes around its two id lists from here.
_DISK = b'{\n  "boundary": %s,\n  "layer": %d,\n  "r": %d,\n  "rotation": %s\n}\n'
_HEAD, _MIDDLE, _TAIL = _DISK.replace(b"%s", b"[%s]").split(b"%s")
_DISK_MIDDLE = re.compile(re.escape(_MIDDLE).replace(b"%d", rb"(0|-?[1-9][0-9]{0,8})"))


def _write_int_list(out: io.BytesIO, ids, indent: int, offsets=None) -> None:
    """Write canonical JSON of the int32 array ``ids``, not empty, with its items at
    ``indent``: one list or, cut into rows at CSR ``offsets`` with none empty, the list
    of those rows, a run of whole rows of about _CHUNK slots at a time."""
    bounds = np.asarray([0, ids.size] if offsets is None else offsets)
    item, close, outer = (b"\n" + b" " * k for k in (indent, indent - 2, indent - 4))
    out.write(b"" if offsets is None else b"[" + close)
    for lo, hi in _row_spans(bounds):
        part = bounds[lo : hi + 1]
        first = part[:-1] - part[0]
        cells = row(part[-1] - part[0], bytes(1), b"," + item,  # a lead byte, ",item", the digits
                    int_cells(ids[part[0] : part[-1]]))
        cells[first, 1] = ord("[")
        cells[first[lo == 0 :], 0] = ord(";")  # closes the row before: none before the first
        out.write(text(cells).replace(b";", close + b"]," + close))
    out.write(close + b"]")
    out.write(b"" if offsets is None else outer + b"]")


def disk_json(disk: CombinatorialDisk) -> bytes:
    """The disk file: ``report.canonical_json`` of the portable form, straight from the
    arrays for a disk with a boundary and no empty row, as every grown disk is."""
    if not (disk.boundary.size and disk.graph.neighbors.size and np.diff(disk.graph.offsets).all()):
        from .report import canonical_json
        portable = {"r": disk.ambient_degree, "layer": disk.layer_index,
                    "boundary": disk.boundary.tolist(), "rotation": disk.graph.rotations}
        return canonical_json(portable).encode()
    head, middle, tail = _DISK.split(b"%s")
    out = io.BytesIO()
    out.write(head)
    _write_int_list(out, disk.boundary, 4)
    out.write(middle % (disk.layer_index, disk.ambient_degree))
    _write_int_list(out, disk.graph.neighbors, 6, disk.graph.offsets)
    out.write(tail)
    return out.getvalue()


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
