"""Shared helpers: an independent face tracer and seed generators."""

from __future__ import annotations

from hypothesis import strategies as st

from meshsum import CombinatorialDisk, RotationGraph, SeedDescriptor


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
