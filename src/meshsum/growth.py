"""Closed-form layer counts for convex disks in a degree-r triangulation.

Everything here is driven by the boundary profile (t, d) alone: t boundary
vertices with total degree d determine the full counts of a convex disk,

    (r-6) v = t r - 2 t - d - 6        (r-6) e = 2 t r - 3 d - 3 r
    (r-6) f = t r + 2 t - 2 d - 2 r    (r-6) s = 4 t - d - 6,

and the first expansion layer splits into a = t(r-2) - d new degree-3
vertices and b = t new degree-4 vertices.  Later layers follow the linear
census recursion, or equivalently a single second-order recurrence
x_{n+2} = (r-4) x_{n+1} - x_n shared by the v, e, f delta sequences.

``check_degree`` is the one degree rule, ``convexity_bound`` the one convexity
bound, ``CANONICAL_SEEDS`` the one seed table, ``seed_descriptor_for`` the one
seed parser and ``census_stream`` the one census loop, in exact ``Decimal``:
``predict_layers`` turns its layers into ints and ``report.layer_texts`` into
the one text stream every report and table writes.  ``census_step``,
``deltas_from_census`` and ``second_order_step`` are the textbook steps, the
independent route it is checked against.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from decimal import Decimal

from .exact import EXACT, brief, int_from_text

MAX_PREDICT_LAYERS = 10_000
DEFAULT_VERTEX_BUDGET = 1_000_000
MIN_DEGREE = 7


def check_degree(r: int) -> None:
    """Reject an ambient degree that is not an integer >= MIN_DEGREE."""
    if not isinstance(r, int) or isinstance(r, bool) or r < MIN_DEGREE:
        raise ValueError(f"ambient degree must be an integer >= {MIN_DEGREE}, got {brief(r)}")


def convexity_bound(r: int) -> int:
    """Largest boundary degree allowed in a convex disk: floor(1 + r/2)."""
    check_degree(r)
    return 1 + r // 2


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


class InvalidSeedError(ValueError):
    """A boundary profile that no convex disk can realize."""


@dataclass(frozen=True)
class SeedDescriptor:
    """Abstract disk: ambient degree r, boundary length t, degree sum d.

    Validity is checked on construction: ``check_degree``, the degree
    bounds 2 t <= d <= t * convexity_bound(r) and the integrality and
    nonnegativity of all four derived counts.
    """

    r: int
    t: int
    d: int

    def __post_init__(self):
        r, t, d = self.r, self.t, self.d
        try:
            bound = convexity_bound(r)
        except ValueError as exc:
            raise InvalidSeedError(exc) from None
        for name, value in (("t", t), ("d", d)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidSeedError(f"{name} must be an integer, got {value!r}")
        if t < 3:
            raise InvalidSeedError(f"boundary length t = {brief(t)} must be >= 3")
        if not 2 * t <= d <= t * bound:
            raise InvalidSeedError(
                f"degree sum d = {brief(d)} outside [{brief(2 * t)}, {brief(t * bound)}] "
                f"for t = {brief(t)}"
            )
        for name, numerator in _count_numerators(r, t, d):
            q, rem = divmod(numerator, r - 6)
            if rem:
                raise InvalidSeedError(
                    f"count {name} is not integral: (r-6) {name} = {brief(numerator)}"
                )
            if q < 0:
                raise InvalidSeedError(f"count {name} = {brief(q)} is negative")


# The seeds grow builds, face then vertex: layer 0's rotation rows and ccw boundary, the
# analytic base layer (the first nondegenerate disk) and its boundary profile (t, d) at r.
CANONICAL_SEEDS = {
    "face": (((1, 2), (2, 0), (0, 1)), (0, 1, 2), 0, lambda r: (3, 6)),
    "vertex": (((),), (), 1, lambda r: (r, 3 * r)),
}


def seed_descriptor_for(text: str, r: int) -> SeedDescriptor:
    """A ``CANONICAL_SEEDS`` name (its base's profile) or an explicit t:d profile."""
    if text in CANONICAL_SEEDS:
        return SeedDescriptor(r, *CANONICAL_SEEDS[text][3](r))
    t_text, sep, d_text = text.partition(":")
    if not sep:
        names = ", ".join(map(repr, reversed(CANONICAL_SEEDS)))
        raise ValueError(f"seed must be {names}, or t:d, got {brief(text)}")
    try:
        t, d = int_from_text(t_text), int_from_text(d_text)
    except ValueError:
        raise ValueError(f"seed t:d must be integers, got {brief(text)}") from None
    return SeedDescriptor(r, t, d)


def _count_numerators(r: int, t: int, d: int):
    return (
        ("v", t * r - 2 * t - d - 6),
        ("e", 2 * t * r - 3 * d - 3 * r),
        ("f", t * r + 2 * t - 2 * d - 2 * r),
        ("s", 4 * t - d - 6),
    )


def counts_from_boundary(seed: SeedDescriptor) -> DiskCounts:
    """Full counts of the disk determined by its boundary profile."""
    r, t, d = seed.r, seed.t, seed.d
    v, e, f, s = (num // (r - 6) for _, num in _count_numerators(r, t, d))
    return DiskCounts(v, e, f, s)


def initial_census(seed: SeedDescriptor) -> LayerCensus:
    """Census of the first expansion layer: a = t(r-2) - d, b = t.  A valid seed
    has d <= t floor(1 + r/2), so a >= t(ceil(r/2) - 3) >= t: never negative."""
    return LayerCensus(seed.t * (seed.r - 2) - seed.d, seed.t)


def census_step(r: int, census: LayerCensus) -> LayerCensus:
    """Census of the next layer from the current one."""
    check_degree(r)
    a, b = census.a, census.b
    return LayerCensus((r - 5) * a + (r - 6) * b, a + b)


def deltas_from_census(census: LayerCensus) -> DeltaCounts:
    """Per-layer (v, e, f) increments as a linear image of the census."""
    a, b = census.a, census.b
    return DeltaCounts(a + b, 2 * a + 3 * b, a + 2 * b)


def second_order_step(r: int, x_n: int, x_n1: int) -> int:
    """x_{n+2} = (r-4) x_{n+1} - x_n, shared by all three delta sequences."""
    check_degree(r)
    return (r - 4) * x_n1 - x_n


@dataclass(frozen=True)
class LayerPrediction:
    """Layer n census, increments, and cumulative counts after the layer."""

    n: int
    census: LayerCensus
    deltas: DeltaCounts
    cumulative: DiskCounts


def check_layer_count(n_max: int) -> None:
    """Reject a prediction depth outside 1..MAX_PREDICT_LAYERS."""
    if not 1 <= n_max <= MAX_PREDICT_LAYERS:
        raise ValueError(f"n_max must be in [1, {MAX_PREDICT_LAYERS}], got {n_max}")


def census_stream(seed: SeedDescriptor, n_max: int) -> Iterator[tuple]:
    """The one census loop: layers 1..n_max of repeated expansion from
    ``seed`` as plain tuples ``(n, a, b, dv, de, df, v, e, f)``, every count
    an exact ``Decimal`` (for linear-time decimal output; a ``Decimal`` that
    would round raises instead).  The arithmetic goes through ``EXACT``'s
    methods, so it neither reads nor changes the thread's context.

    Per layer: dv = a + b, df = dv + b, de = dv + df, the cumulative counts
    grow by them, and the next census is (a + (r-6) dv, dv).  So
    b_{n+1} = dv_n, and the interior count s_n = v_n - dv_n is v_{n-1}.
    """
    check_layer_count(n_max)
    add, mul = EXACT.add, EXACT.multiply
    base, first = counts_from_boundary(seed), initial_census(seed)
    v, e, f = Decimal(base.v), Decimal(base.e), Decimal(base.f)
    a, b, k = Decimal(first.a), Decimal(first.b), Decimal(seed.r - 6)
    for n in range(1, n_max + 1):
        dv = add(a, b)
        df = add(dv, b)
        de = add(dv, df)
        v, e, f = add(v, dv), add(e, de), add(f, df)
        yield n, a, b, dv, de, df, v, e, f
        a, b = add(a, mul(k, dv)), dv


def predict_layers(seed: SeedDescriptor, n_max: int) -> list[LayerPrediction]:
    """Predict layers 1..n_max of repeated expansion from ``seed``, as ints."""
    layers = (map(int, layer) for layer in census_stream(seed, n_max))
    return [
        LayerPrediction(n, LayerCensus(a, b), DeltaCounts(dv, de, df), DiskCounts(v, e, f, v - dv))
        for n, a, b, dv, de, df, v, e, f in layers
    ]


def platonic_counts(r: int) -> tuple[int, int, int]:
    """(v, e, f) of the closed surface with all degrees r in {3, 4, 5}.

    These are the Platonic deltahedra: v = 12/(6-r), e = 6r/(6-r),
    f = 4r/(6-r), the bounded counterpart of the r >= 7 mesh invariants.
    """
    if r not in (3, 4, 5):
        raise ValueError(f"closed triangulated surfaces need r in {{3, 4, 5}}, got {r}")
    return 12 // (6 - r), 6 * r // (6 - r), 4 * r // (6 - r)
