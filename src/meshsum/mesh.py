"""Convex combinatorial disks in a degree-r triangulation, grown layer by layer.

A disk is a finite planar triangulated graph given by a rotation system:
for every vertex, the cyclic counterclockwise order of its neighbors.  The
boundary is a simple cycle listed counterclockwise (outer face on the left
of reversed boundary edges).  Interior vertices have degree exactly r;
boundary vertices keep degree at most floor(1 + r/2), which is the
convexity condition that makes one more growth layer well defined.

The rotation system is stored in CSR form ("compressed sparse row"): an
int64 array ``offsets`` of length nv + 1 and an int32 array ``neighbors``
of length 2e, so that ``neighbors[offsets[v]:offsets[v + 1]]`` is the
rotation at v.  Every function here works on these two arrays with
whole-array numpy operations; ``RotationGraph.rotations`` is a derived
list-of-lists copy for tests.  Disk JSON (``report.disk_json``) and
drawing (``render.emit_svg``) read the arrays directly.  Slot numbers
(positions in ``neighbors``) are int32 below 2^31 slots, int64 above.

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
predictions it is later checked against.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .growth import DEFAULT_VERTEX_BUDGET, DeltaCounts, DiskCounts, LayerCensus

MIN_DEGREE = 7
# Vertex ids are stored as int32, so a disk holds at most this many vertices.
MAX_VERTICES = int(np.iinfo(np.int32).max)


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


def _id_array(ids) -> np.ndarray:
    """Vertex ids as a read-only int32 array: the one type-and-width check.

    Ids must be integers (booleans are not) that fit in 32 bits, else
    MalformedDiskError.  A read-only int32 array passes through uncopied.
    """
    if isinstance(ids, np.ndarray) and ids.dtype == np.int32 and not ids.flags.writeable:
        return ids
    ids = ids.tolist() if isinstance(ids, np.ndarray) else list(ids)
    if any(t is bool or not issubclass(t, (int, np.integer)) for t in set(map(type, ids))):
        raise MalformedDiskError("vertex ids must be integers")
    too_wide = MalformedDiskError("a vertex id does not fit in 32 bits")
    try:
        flat = np.array(ids, dtype=np.int64)
    except OverflowError:
        raise too_wide from None
    if flat.size and (flat.min() < -MAX_VERTICES or flat.max() > MAX_VERTICES):
        raise too_wide
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


def _boundary_degrees(disk: CombinatorialDisk) -> np.ndarray:
    """Degrees of the boundary vertices, in boundary order."""
    nv = disk.graph.vertex_count
    w = disk.boundary
    if w.size and (w.min() < 0 or w.max() >= nv):
        raise MalformedDiskError(f"boundary vertex id outside [0, {nv})")
    return disk.graph.offsets[w + 1] - disk.graph.offsets[w]


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
    return bool((_boundary_degrees(disk) <= bound).all())


def boundary_profile(disk: CombinatorialDisk) -> BoundaryProfile:
    """Boundary length and degree sum, in boundary order."""
    if disk.is_degenerate:
        raise ValueError("degenerate disk has no boundary profile")
    return BoundaryProfile(len(disk.boundary), int(_boundary_degrees(disk).sum()))


def expand(disk: CombinatorialDisk, budget: int = DEFAULT_VERTEX_BUDGET) -> CombinatorialDisk:
    """One growth layer; the input disk is left untouched.

    Raises ConvexityError if a boundary vertex exceeds floor(1 + r/2),
    BudgetExceededError if the result would exceed ``budget`` vertices
    (or the int32 id range), and MalformedDiskError if the boundary is not
    a simple cycle of ids whose rotations have an outer gap.
    """
    r = disk.ambient_degree
    if disk.is_degenerate:
        _require_room(1 + r, budget)
        return _fan(r, disk.layer_index + 1)

    offsets = disk.graph.offsets
    v_old = disk.graph.vertex_count
    w, degs = disk.boundary, _boundary_degrees(disk)
    _require_simple_cycle(w, v_old)
    bound = convexity_bound(r)
    over = np.flatnonzero(degs > bound)
    if over.size:
        j = over[0]
        raise ConvexityError(
            f"boundary vertex {w[j]} has degree {degs[j]} > {bound}, disk is not convex"
        )

    v_new = v_old + len(w) * (r - 1) - int(degs.sum())
    _require_room(v_new, budget)
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


def _require_room(needed: int, budget: int) -> None:
    """Refuse a disk past the budget or past the int32 id range, before allocating."""
    if needed > budget:
        raise BudgetExceededError(needed, budget)
    if needed > MAX_VERTICES:
        raise BudgetExceededError(needed, MAX_VERTICES)


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
    w, degs = new.boundary, _boundary_degrees(new)
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
    seeds = {"face": seed_face, "vertex": seed_vertex}
    if seed_kind not in seeds:
        raise ValueError(f"only the canonical seeds face and vertex can grow, got {seed_kind!r}")
    disk = seeds[seed_kind](r)
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


def _sorted_edge_keys(src: np.ndarray, dst: np.ndarray, nv: int):
    """Sort directed edges so that the two directions of an edge are adjacent.

    The key of u -> v is 2 * (lo * nv + hi) + (u > v) with lo, hi the
    smaller and larger end, so an edge sorts as lo -> hi, then hi -> lo.
    Returns the slot order and the sorted keys.
    """
    key = _edge_keys(src, dst, nv)
    order = np.argsort(key, kind="stable").astype(_index_dtype(key.size), copy=False)
    return order, key[order]


def _index_dtype(slots: int) -> type:
    """Width of slot numbers: int32 below 2^31 slots, int64 from there on."""
    return np.int32 if slots < 2**31 else np.int64


def _edge_keys(src: np.ndarray, dst: np.ndarray, nv: int) -> np.ndarray:
    key = np.minimum(src, dst).astype(np.int64)
    key *= nv
    key += np.maximum(src, dst)
    key *= 2
    key += src > dst
    return key


def _pairs_reversed(keys: np.ndarray) -> bool:
    """Sorted keys without repeats pair up as (lo -> hi, hi -> lo) edges."""
    return (
        keys.size % 2 == 0
        and not (keys[0::2] & 1).any()
        and np.array_equal(keys[1::2], keys[0::2] + 1)
    )


def _find_slots(order, keys, src, dst, nv) -> np.ndarray:
    """Slot of each directed edge src -> dst, or -1 where there is none."""
    if not keys.size:
        return np.full(len(src), -1, dtype=order.dtype)
    wanted = _edge_keys(src, dst, nv)
    pos = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    return np.where(keys[pos] == wanted, order[pos], -1)


def _check_faces(offsets: np.ndarray, order: np.ndarray, outer: np.ndarray) -> str | None:
    """What breaks "one outer face along ``outer``, triangles elsewhere", or None.

    ``order`` pairs each directed edge with its reverse (positions 2i and
    2i + 1).  next(u -> v) is the slot before the reverse v -> u in the
    row of v, cyclically; ``outer`` holds the slots of the reversed
    boundary edges w_j+1 -> w_j.
    """
    total, index = len(order), order.dtype
    before = np.arange(-1, total - 1, dtype=index)
    rows = np.diff(offsets) > 0
    before[offsets[:-1][rows]] = offsets[1:][rows] - 1
    nxt = np.empty(total, dtype=index)
    first, second = order[0::2].copy(), order[1::2].copy()
    nxt[first] = before[second]
    nxt[second] = before[first]
    del before, first, second

    if not np.array_equal(nxt[outer], np.roll(outer, 1)):
        return "outer face does not trace the boundary"
    # next has order exactly 3 on every other slot: next^3 = id, next != id
    slot = np.arange(total, dtype=index)
    bad = nxt[nxt[nxt]] != slot
    bad |= nxt == slot
    bad[outer] = False
    if bad.any():
        return f"interior face through edge slot {int(np.argmax(bad))} is not a triangle"
    return None


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

    An offender is looked up only after a cheap whole-array test failed,
    and the sort keys are dropped before the face trace.
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
    order, keys = _sorted_edge_keys(src, nbr, nv)
    if (keys[1:] == keys[:-1]).any():
        repeated = src[order[1:][keys[1:] == keys[:-1]]]
        out.append(Violation("duplicate-neighbor", f"vertex {repeated.min()} repeats a neighbor"))
    clean = not out
    if clean and not _pairs_reversed(keys):
        reverse = keys ^ 1
        pos = np.minimum(np.searchsorted(keys, reverse), keys.size - 1)
        slot = order[keys[pos] != reverse].min()
        out.append(
            Violation("symmetry", f"edge ({src[slot]}, {nbr[slot]}) has no reverse entry")
        )
        clean = False
    del src

    if disk.is_degenerate:
        if nv != 1 or offsets[1]:
            out.append(
                Violation("degenerate", "empty boundary is only valid for a single bare vertex")
            )
        return (None if out else DiskCounts(1, 0, 0, 1)), out

    w = disk.boundary
    try:
        degs = _boundary_degrees(disk)
        _require_simple_cycle(w, nv)
    except MalformedDiskError as exc:
        out.append(Violation("boundary-cycle", str(exc)))
        return None, out
    if clean:
        w_next = np.roll(w, -1)
        outer = _find_slots(order, keys, w_next, w, nv)
        if (outer < 0).any():
            j = np.argmax(outer < 0)
            out.append(
                Violation("boundary-cycle", f"boundary edge ({w[j]}, {w_next[j]}) is missing")
            )
            clean = False
    del keys

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
    del degs, sharp, wrong

    if clean:
        problem = _check_faces(offsets, order, outer)
        if problem:
            out.append(Violation("face-structure", problem))
    if out:
        return None, out
    total, t = len(order), len(w)
    return DiskCounts(nv, total // 2, (total - t) // 3, nv - t), out


def disk_from_json_obj(obj: dict) -> CombinatorialDisk:
    """Parse the portable form {"r", "layer", "boundary", "rotation"} that
    ``report.disk_json`` writes; ids must be integers (not booleans) in
    [0, len(rotation))."""
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
    disk = CombinatorialDisk(RotationGraph(rotation), r, boundary, layer)
    nv = disk.graph.vertex_count
    for ids in (disk.graph.neighbors, disk.boundary):
        if ids.size and (ids.min() < 0 or ids.max() >= nv):
            raise MalformedDiskError(f"rotation or boundary lists a vertex id outside [0, {nv})")
    _require_degree(r)
    return disk
