"""Shared helpers: slow list-based references, seed generators and test disks."""

from __future__ import annotations

import dataclasses
import math
import sys
from collections import deque
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from meshsum import (
    CombinatorialDisk,
    DiskCounts,
    MalformedDiskError,
    RotationGraph,
    SeedDescriptor,
    census_step,
    counts_from_boundary,
    deltas_from_census,
    initial_census,
    mesh,
    platonic_counts,
    verify,
)
from meshsum.growth import MIN_DEGREE
from meshsum.mesh import Violation
from meshsum.render import CANVAS, LayoutError
from meshsum.report import SCHEMA_VERSION, canonical_json, invariants_entry


def reference_face_lengths(rotations: list[list[int]]) -> list[int]:
    """Orbit lengths of the next-edge permutation, dict-and-loop style.

    Independent of the array implementation in the package: same face
    convention (left of u -> v via the predecessor of u at v), no numpy,
    no shortcuts.  Returns all orbit lengths sorted, outer face included.
    """
    position = {
        (v, u): i for v, rot in enumerate(rotations) for i, u in enumerate(rot)
    }
    seen: set[tuple[int, int]] = set()
    lengths = []
    for v, rot in enumerate(rotations):
        for u in rot:
            if (v, u) in seen:
                continue
            steps = 0
            edge = (v, u)
            while edge not in seen:
                seen.add(edge)
                steps += 1
                a, b = edge
                rot_b = rotations[b]
                edge = (b, rot_b[(position[(b, a)] - 1) % len(rot_b)])
            lengths.append(steps)
    return sorted(lengths)


# A triangular embedding of K19 (genus 20, v - e + f = -38): vertex i's rotation
# lists i + s mod 19 for these steps s, so every vertex has degree 18.
K19_STEPS = (1, 3, 7, 6, 14, 10, 2, 18, 12, 15, 5, 11, 9, 4, 16, 17, 8, 13)


def beside_k19(disk: CombinatorialDisk) -> CombinatorialDisk:
    """``disk`` with a closed K19 surface on 19 more vertices, disjoint from
    it: for r = 18 every check but v - e + f = 1 passes, and v - e + f = -37."""
    nv = disk.graph.vertex_count
    surface = [[nv + (i + s) % 19 for s in K19_STEPS] for i in range(19)]
    graph = RotationGraph(disk.graph.rotations + surface)
    return CombinatorialDisk(graph, disk.ambient_degree, disk.boundary, disk.layer_index)


def pentagon_fan(r: int) -> CombinatorialDisk:
    """Four triangles sharing boundary vertex 0, which has degree 5.

    Convex for r >= 8 but not for r = 7, so it exercises both sides of
    the convexity bound.
    """
    rotations = [
        [1, 2, 3, 4, 5],
        [2, 0],
        [3, 0, 1],
        [4, 0, 2],
        [5, 0, 3],
        [0, 4],
    ]
    return CombinatorialDisk(RotationGraph(rotations), r, (0, 1, 2, 3, 4, 5), 0)


def reference_expand(disk: CombinatorialDisk) -> CombinatorialDisk:
    """One growth layer on plain lists: the pre-array expansion, kept as is.

    Walks the boundary, finds each outer gap with ``list.index`` and
    splices the new ids in; new rows are appended in creation order.
    """
    r = disk.ambient_degree
    if disk.is_degenerate:
        rim = list(range(1, r + 1))
        rows = [rim] + [[i + 1 if i < r else 1, 0, i - 1 if i > 1 else r] for i in rim]
        return CombinatorialDisk(RotationGraph(rows), r, tuple(rim), disk.layer_index + 1)

    rotations = disk.graph.rotations
    boundary = disk.boundary
    t = len(boundary)
    degs = [len(rotations[w]) for w in boundary]
    assert max(degs) <= 1 + r // 2, "disk is not convex"
    v_old = len(rotations)
    v_new = v_old + t + t * (r - 2) - sum(degs)
    first, last = v_old, v_new - 1

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
        assert rot[(i + 1) % len(rot)] == w_next, "outer gap is not between w_prev and w_next"
        grown = rot[: i + 1]
        grown.append(u_ids[j - 1])
        grown.extend(range(priv_start[j], u_ids[j]))
        grown.append(u_ids[j])
        grown.extend(rot[i + 1 :])
        out[w] = grown

    for j in range(t):
        w = boundary[j]
        w_next = boundary[j + 1] if j + 1 < t else boundary[0]
        u_j = u_ids[j]
        for x in range(priv_start[j], u_j):
            out.append([x + 1, w, x - 1 if x > first else last])
        out.append([u_j + 1 if u_j < last else first, w_next, w, u_j - 1 if u_j > first else last])

    assert len(out) == v_new
    return CombinatorialDisk(
        RotationGraph(out), r, tuple(range(v_old, v_new)), disk.layer_index + 1
    )


def reference_validate_kinds(disk: CombinatorialDisk) -> set[str]:
    """Kinds of broken invariants, found with sets and loops.

    The pre-array validate_disk rule for rule; the face structure is
    traced with dicts as in reference_face_lengths: the orbit through
    w_1 -> w_0 must be exactly the reversed boundary and every other
    orbit a triangle.  A disk that breaks nothing else must be one planar
    disk, by its own route: a breadth-first search from the boundary
    reaches every vertex, and the traced orbits give v - e + f = 2.
    """
    kinds: set[str] = set()
    rotations = disk.graph.rotations
    nv = len(rotations)
    r = disk.ambient_degree

    neighbor_sets: list[set[int]] = []
    clean = True
    for v, rot in enumerate(rotations):
        seen = set(rot)
        neighbor_sets.append(seen)
        if any(u < 0 or u >= nv for u in rot):
            kinds.add("id-range")
            clean = False
            continue
        if v in seen:
            kinds.add("loop")
            clean = False
        if len(seen) != len(rot):
            kinds.add("duplicate-neighbor")
            clean = False
    if clean:
        for v, rot in enumerate(rotations):
            for u in rot:
                if v not in neighbor_sets[u]:
                    kinds.add("symmetry")
                    clean = False

    boundary = disk.boundary
    if disk.is_degenerate:
        if nv != 1 or rotations[0]:
            kinds.add("degenerate")
        return kinds

    t = len(boundary)
    on_boundary = set(boundary)
    if len(on_boundary) != t or t < 3 or any(w < 0 or w >= nv for w in boundary):
        kinds.add("boundary-cycle")
        return kinds
    edges_present = True
    for j in range(t):
        w, u = boundary[j], boundary[(j + 1) % t]
        if clean and u not in neighbor_sets[w]:
            kinds.add("boundary-cycle")
            edges_present = False

    bound = 1 + r // 2
    for v in range(nv):
        k = len(rotations[v])
        if v in on_boundary:
            if not 2 <= k <= bound:
                kinds.add("boundary-degree")
        elif k != r:
            kinds.add("interior-degree")

    if clean and edges_present and not _reference_faces_ok(rotations, boundary):
        kinds.add("face-structure")
    if not kinds and not _reference_one_disk(rotations, boundary.tolist()):
        kinds.add("euler-characteristic")
    return kinds


def _reference_one_disk(rotations: list[list[int]], boundary: list[int]) -> bool:
    """Whether a breadth-first search from the boundary reaches every vertex
    and the traced faces, the outer one included, give v - e + f = 2."""
    seen, queue = set(boundary), deque(boundary)
    while queue:
        for u in rotations[queue.popleft()]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    v, e = len(rotations), sum(map(len, rotations)) // 2
    return len(seen) == v and v - e + len(reference_face_lengths(rotations)) == 2


def _reference_faces_ok(rotations: list[list[int]], boundary: tuple[int, ...]) -> bool:
    position = {
        (v, u): i for v, rot in enumerate(rotations) for i, u in enumerate(rot)
    }

    def next_edge(edge):
        a, b = edge
        rot_b = rotations[b]
        return (b, rot_b[(position[(b, a)] - 1) % len(rot_b)])

    t = len(boundary)
    reversed_boundary = {(boundary[(j + 1) % t], boundary[j]) for j in range(t)}
    edge = (boundary[1], boundary[0])
    outer = set()
    while edge not in outer:
        outer.add(edge)
        edge = next_edge(edge)
    if edge != (boundary[1], boundary[0]) or outer != reversed_boundary:
        return False
    for start in position:
        if start in outer:
            continue
        edge, steps = start, 0
        while True:
            edge, steps = next_edge(edge), steps + 1
            if edge == start or steps > 3:
                break
        if steps != 3:
            return False
    return True


def reference_inspect(disk: CombinatorialDisk) -> tuple[DiskCounts | None, list[Violation]]:
    """The measurement pass as it was before the two edge halves were
    paired apart: one global sort of all directed edges, and next^3
    composed on every slot.  The violations, and the counts if there are none.

    An offender is looked up only after a cheap whole-array test failed,
    and the sort keys are dropped before the face trace.  The counts of a
    disk that breaks nothing else must give v - e + f = 1.
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
        degs = _reference_boundary_degrees(disk)
        mesh._require_simple_cycle(w, nv)
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
    bound = mesh.convexity_bound(r)
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
    counts = DiskCounts(nv, total // 2, (total - t) // 3, nv - t)
    chi = counts.v - counts.e + counts.f
    if chi != 1:
        return None, [Violation("euler-characteristic", f"v - e + f = {chi} != 1")]
    return counts, out


def _reference_boundary_degrees(disk: CombinatorialDisk) -> np.ndarray:
    """Degrees of the boundary vertices, in boundary order."""
    nv = disk.graph.vertex_count
    w = disk.boundary
    if w.size and (w.min() < 0 or w.max() >= nv):
        raise MalformedDiskError(f"boundary vertex id outside [0, {nv})")
    return disk.graph.offsets[w + 1] - disk.graph.offsets[w]


def _sorted_edge_keys(src: np.ndarray, dst: np.ndarray, nv: int):
    """Sort directed edges so that the two directions of an edge are adjacent.

    The key of u -> v is 2 * (lo * nv + hi) + (u > v) with lo, hi the
    smaller and larger end, so an edge sorts as lo -> hi, then hi -> lo.
    Returns the slot order and the sorted keys.
    """
    key = _edge_keys(src, dst, nv)
    order = np.argsort(key, kind="stable").astype(np.int32)
    return order, key[order]


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


@st.composite
def valid_seeds(draw, max_r: int = 30, max_t: int = 40):
    """Valid boundary descriptors, built rather than filtered.

    (r, t, s) with 0 <= s <= (2t - 6)/(r - 6) parametrizes exactly the
    valid descriptors via d = 4t - 6 - s(r - 6): integrality of all four
    counts is automatic and both degree-sum bounds hold by the cap on s.
    """
    r = draw(st.integers(min_value=7, max_value=max_r))
    t = draw(st.integers(min_value=3, max_value=max_t))
    s = draw(st.integers(min_value=0, max_value=(2 * t - 6) // (r - 6)))
    return SeedDescriptor(r, t, 4 * t - 6 - s * (r - 6))


@st.composite
def convex_disks(draw, degrees=(7, 8, 9, 10, 12, 20), max_moves=16) -> CombinatorialDisk:
    """Convex disks grown from expand(seed_face(r)) by closing boundary
    vertices, then relabelled at random with every row turned cyclically.

    Closing w_j (boundary order w_{j-1}, w_j, w_{j+1}) makes it interior:
    k = r - deg(w_j) new vertices x_1..x_k go, in increasing order, at the
    end of its row (the outer gap); x_i gets the row [next, w_j, prev]; x_1
    goes first in the row of w_{j-1} and x_k last in the row of w_{j+1};
    and x_1..x_k replace w_j on the boundary.  Every face stays a triangle.
    A move that would push w_{j-1} or w_{j+1} past convexity_bound(r) is
    skipped.  The relabelling and the turned rows leave the rotation system
    as it is, but expand must then find each outer gap itself.
    """
    r = draw(st.sampled_from(degrees))
    start = mesh.expand(mesh.seed_face(r))
    rows, boundary = start.graph.rotations, start.boundary.tolist()
    bound = mesh.convexity_bound(r)
    for _ in range(draw(st.integers(min_value=0, max_value=max_moves))):
        j = draw(st.integers(min_value=0, max_value=len(boundary) - 1))
        w, prev, nxt = boundary[j], boundary[j - 1], boundary[(j + 1) % len(boundary)]
        if max(len(rows[prev]), len(rows[nxt])) >= bound:
            continue
        xs = list(range(len(rows), len(rows) + r - len(rows[w])))
        path = [prev, *xs, nxt]
        rows[w].extend(xs)
        rows.extend([path[i + 2], w, path[i]] for i in range(len(xs)))
        rows[prev].insert(0, xs[0])
        rows[nxt].append(xs[-1])
        boundary[j : j + 1] = xs

    rng = draw(st.randoms(use_true_random=False))
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    turned: list[list[int]] = [[] for _ in rows]
    for v, row in enumerate(rows):
        k = rng.randrange(len(row))
        turned[perm[v]] = [perm[u] for u in row[k:] + row[:k]]
    k = rng.randrange(len(boundary))
    return CombinatorialDisk(
        RotationGraph(turned), r, [perm[w] for w in boundary[k:] + boundary[:k]], 0
    )


def reference_layers(seed: SeedDescriptor, n: int) -> list[tuple[int, ...]]:
    """Layers 1..n as ``(n, a, b, dv, de, df, v, e, f, s)`` ints, by the
    textbook loop: ``initial_census``, then ``deltas_from_census`` and
    ``census_step`` once per layer, with s = v - a - b."""
    base, census = counts_from_boundary(seed), initial_census(seed)
    v, e, f = base.v, base.e, base.f
    layers = []
    for k in range(1, n + 1):
        d = deltas_from_census(census)
        v, e, f = v + d.dv, e + d.de, f + d.df
        layers.append((k, census.a, census.b, d.dv, d.de, d.df, v, e, f, v - census.a - census.b))
        census = census_step(seed.r, census)
    return layers


def reference_prediction_json(seed: SeedDescriptor, n: int) -> str:
    """The prediction report as it was built before it was streamed: a dict
    of ``reference_layers``' ints, each through ``str``, then
    ``canonical_json``.

    Quadratic in the digit count.  The interpreter's integer digit limit is
    lifted while it runs and restored afterwards.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        base = counts_from_boundary(seed)
        layers = [
            {
                "n": k,
                "a": str(a),
                "b": str(b),
                "dv": str(dv),
                "de": str(de),
                "df": str(df),
                "cum": {"v": str(v), "e": str(e), "f": str(f), "s": str(s)},
            }
            for k, a, b, dv, de, df, v, e, f, s in reference_layers(seed, n)
        ]
        return canonical_json(
            {
                "schema_version": "meshsum/1",
                "kind": "prediction-report",
                "config": {"r": seed.r, "seed": {"t": str(seed.t), "d": str(seed.d)}, "layers": n},
                "base": {k: str(getattr(base, k)) for k in "vefs"},
                "layers_predicted": layers,
            }
        )
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def reference_invariants_json(degrees, seed: SeedDescriptor | None) -> str:
    """The invariants report as it was built before it was streamed: the
    whole report dict of ``invariants_entry`` objects, then ``canonical_json``."""
    entries = [invariants_entry(r, seed) for r in degrees]
    return canonical_json({
        "schema_version": SCHEMA_VERSION,
        "kind": "invariants-report",
        "all_match": all(entry.get("seed_match", True) for entry in entries),
        "degrees": entries,
    })


@st.composite
def cli_seeds(draw, r: int) -> tuple[str, SeedDescriptor]:
    """A predict --seed text for degree r and the descriptor it names: face,
    vertex, or the t:d profile of either after one or two more expansions
    (each expansion maps (t, d) to (a + b, 3a + 4b), a = t(r-2) - d, b = t)."""
    kind = draw(st.sampled_from(["face", "vertex"]))
    t, d = (3, 6) if kind == "face" else (r, 3 * r)
    grown = draw(st.integers(min_value=0, max_value=2))
    for _ in range(grown):
        a, b = t * (r - 2) - d, t
        t, d = a + b, 3 * a + 4 * b
    return (f"{t}:{d}" if grown else kind), SeedDescriptor(r, t, d)


def reference_disk_to_json_obj(disk: CombinatorialDisk) -> dict:
    """Portable disk form: {"r", "layer", "boundary", "rotation"}, built
    from ``RotationGraph.rotations``."""
    return {
        "r": disk.ambient_degree,
        "layer": disk.layer_index,
        "boundary": disk.boundary.tolist(),
        "rotation": disk.graph.rotations,
    }


def reference_disk_json(disk: CombinatorialDisk) -> str:
    """The disk JSON as it was written before ``mesh.disk_json``: the
    portable dict through ``canonical_json``."""
    return canonical_json(reference_disk_to_json_obj(disk))


def reference_layout_disk(disk: CombinatorialDisk) -> tuple[np.ndarray, list[int]]:
    """The positions ``render.layout_disk`` computed before it worked on whole
    arrays, and each vertex's ring: layers by peeling the rotation lists ring
    by ring, then one ``math.cos`` and ``math.sin`` per vertex in id order."""
    center = CANVAS / 2
    if disk.is_degenerate:
        return np.array([[center, center]]), [0]
    rows, nv = disk.graph.rotations, disk.graph.vertex_count
    if any(not 0 <= u < nv for row in rows for u in row):
        raise LayoutError("a rotation lists a vertex outside the disk")
    current = disk.boundary.tolist()
    if any(not 0 <= w < nv for w in current):
        raise LayoutError("the boundary lists a vertex outside the disk")
    if len(set(current)) != len(current):
        raise LayoutError("boundary peeling revisited a vertex")
    ring, depth = [-1] * nv, 0
    while current:
        for w in current:
            ring[w] = depth
        current = sorted({u for w in current for u in rows[w] if ring[u] == -1})
        depth += 1
    if -1 in ring:
        raise LayoutError("disk is not connected to its boundary")
    layers = [depth - 1 - k for k in ring]
    if any(b < a for a, b in zip(layers, layers[1:])):
        raise LayoutError("layers are not contiguous id ranges; no growth provenance")
    sizes = [layers.count(k) for k in range(layers[-1] + 1)]
    shift = 0 if sizes[0] == 1 else 1
    spacing = CANVAS / (2 * max(len(sizes) - 1 + shift, 1) + 2)

    positions: list[tuple[float, float]] = []
    for k, size in enumerate(sizes):
        radius, step = (k + shift) * spacing, 2 * math.pi / size
        for a in (idx * step for idx in range(size)):
            positions.append((center + radius * math.cos(a), center + radius * math.sin(a)))
    return np.array(positions), [k + shift for k in layers]


def reference_emit_svg(disk: CombinatorialDisk, pos: np.ndarray) -> str:
    """The SVG of the vertex positions ``pos`` as it was drawn before
    ``render.emit_svg`` formatted each vertex once: one f-string per edge and
    per vertex, joined at the end."""
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


def reference_run_verification(
    degrees, layers=6, budget=mesh.DEFAULT_VERTEX_BUDGET, trials=100, rng_seed=0, fault=None
) -> dict:
    """The verify report as it was built before the degrees ran on a pool:
    ``verify_degree`` for each degree, one after another in sorted order,
    then the tallies and violations merged in that order."""
    if fault is not None and fault not in verify.FAULT_MODES:
        raise ValueError(f"unknown fault mode {fault!r}")
    if layers < 0 or trials < 0:
        raise ValueError("layers and trials must be >= 0")
    degrees = sorted(set(degrees))
    if not degrees or degrees[0] < MIN_DEGREE or degrees[-1] > verify.MAX_VERIFY_DEGREE:
        raise ValueError("no degrees, or a degree outside the range")
    results = [verify.verify_degree(r, layers, budget, trials, rng_seed, fault) for r in degrees]

    merged: dict[str, dict[str, int]] = {}
    violations: list[str] = []
    for res in results:
        for name, counts in res["checks"].items():
            slot = merged.setdefault(name, {"pass": 0, "fail": 0})
            slot["pass"] += counts["pass"]
            slot["fail"] += counts["fail"]
        violations.extend(res["violations"])

    pv, pe, pf = platonic_counts(3), platonic_counts(4), platonic_counts(5)
    platonic_ok = (pv, pe, pf) == ((4, 6, 4), (6, 12, 8), (12, 30, 20))
    merged["platonic"] = {"pass": int(platonic_ok), "fail": int(not platonic_ok)}
    if not platonic_ok:
        violations.append("platonic: closed surfaces disagree with the reference counts")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "verify-report",
        "config": {
            "degrees": degrees,
            "layers": layers,
            "budget": budget,
            "trials": trials,
            "rng_seed": rng_seed,
            "fault": fault,
        },
        "checks": {name: merged[name] for name in sorted(merged)},
        "per_degree": results,
        "violations": violations,
        "all_pass": all(c["fail"] == 0 for c in merged.values()),
    }


def bumped(result):
    """``result`` plus 1: a number, or a dataclass with 1 added to its last field."""
    if isinstance(result, (int, Fraction)):
        return result + 1
    last = dataclasses.fields(result)[-1].name
    return dataclasses.replace(result, **{last: getattr(result, last) + 1})


# One fault per check that holds the oracle to the closed forms, plus convexity,
# the one restating check that verify computes by its own call: the name that
# ``verify`` reads (``is_convex`` through ``mesh``), patched to return its real
# result ``bumped`` (or False, for the two predicates), and the first violation
# of run_verification([7], layers=3, trials=2), the only check that then fails.
CHECK_FAULTS = {
    "counts_from_boundary": "closed-form-counts: r=7 seed=face layer=0: "
                            "boundary profile does not reproduce measured counts",
    "initial_census": "census-formulas: r=7 seed=face layer=1: census (9, 3) != predicted (9, 4)",
    "census_step": "census-recursion: r=7 seed=face layer=2: "
                   "census disagrees with the linear recursion",
    "deltas_from_census": "delta-linear-map: r=7 seed=face layer=1: "
                          "measured deltas disagree with the census map",
    "mesh_invariants_from_seed": "seed-independence: r=7 seed=face layer=0: "
                                 "invariants depend on the seed profile",
    "second_order_step": "recurrence-equivalence: r=7 seed=face dv: "
                         "coupled and second-order forms disagree",
    "partial_sum": "convergence: r=7 seed=face: partial sums stall away from F(t)",
    "euler_sum_by_lemma": "sum-routes-agree: r=7 x1=-878728 x2=438778: Euler sum routes disagree",
    "euler_formula_check": "invariants-euler-formula: r=7: v - e + f != 1",
    "is_convex": "convexity: r=7 seed=face layer=0: boundary degree too high",
}
PREDICATES = ("euler_formula_check", "is_convex")


def break_check(monkeypatch, name: str) -> None:
    """Patch ``name`` as ``CHECK_FAULTS`` says, for the rest of the test."""
    owner = mesh if name == "is_convex" else verify
    real = getattr(owner, name)
    fake = (lambda *args: False) if name in PREDICATES else (lambda *args: bumped(real(*args)))
    monkeypatch.setattr(owner, name, fake)


class Poly:
    """An exact polynomial in r, t and d: a dict from exponent triples to
    nonzero ``int`` coefficients, with +, -, * and == against ints too."""

    def __init__(self, terms: dict[tuple[int, int, int], int]):
        self.terms = {power: c for power, c in terms.items() if c}

    @staticmethod
    def of(value) -> Poly:
        return value if isinstance(value, Poly) else Poly({(0, 0, 0): value})

    def __add__(self, other) -> Poly:
        terms = dict(self.terms)
        for power, c in Poly.of(other).terms.items():
            terms[power] = terms.get(power, 0) + c
        return Poly(terms)

    def __mul__(self, other) -> Poly:
        terms: dict[tuple[int, int, int], int] = {}
        for p, c in self.terms.items():
            for q, k in Poly.of(other).terms.items():
                power = (p[0] + q[0], p[1] + q[1], p[2] + q[2])
                terms[power] = terms.get(power, 0) + c * k
        return Poly(terms)

    def __sub__(self, other) -> Poly:
        return self + Poly.of(other) * -1

    def __rsub__(self, other) -> Poly:
        return Poly.of(other) - self

    __radd__, __rmul__ = __add__, __mul__

    def __eq__(self, other) -> bool:
        return self.terms == Poly.of(other).terms

    def __call__(self, r: int, t: int, d: int) -> int:
        return sum(c * r**i * t**j * d**k for (i, j, k), c in self.terms.items())


R, T, D = Poly({(1, 0, 0): 1}), Poly({(0, 1, 0): 1}), Poly({(0, 0, 1): 1})
