"""Closed-form layer counts for convex disks in a degree-r triangulation.

Everything here is driven by the boundary profile (t, d) alone: t boundary
vertices with total degree d determine the full counts of a convex disk,

    (r-6) v = t r - 2 t - d - 6        (r-6) e = 2 t r - 3 d - 3 r
    (r-6) f = t r + 2 t - 2 d - 2 r    (r-6) s = 4 t - d - 6,

and the first expansion layer splits into a = t(r-2) - d new degree-3
vertices and b = t new degree-4 vertices.  Later layers follow the linear
census recursion, or equivalently a single second-order recurrence
x_{n+2} = (r-4) x_{n+1} - x_n shared by the v, e, f delta sequences.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from decimal import localcontext

from .exact import EXACT
from .mesh import DeltaCounts, DiskCounts, LayerCensus

MAX_PREDICT_LAYERS = 10_000


class InvalidSeedError(ValueError):
    """A boundary profile that no convex disk can realize."""


@dataclass(frozen=True)
class SeedDescriptor:
    """Abstract disk: ambient degree r, boundary length t, degree sum d.

    Validity is checked on construction: the degree bounds
    2 t <= d <= t * floor(1 + r/2) and the integrality/nonnegativity of
    all four derived counts.
    """

    r: int
    t: int
    d: int

    def __post_init__(self):
        r, t, d = self.r, self.t, self.d
        for name, value in (("r", r), ("t", t), ("d", d)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidSeedError(f"{name} must be an integer, got {value!r}")
        if r < 7:
            raise InvalidSeedError(f"ambient degree r = {r} must be >= 7")
        if t < 3:
            raise InvalidSeedError(f"boundary length t = {t} must be >= 3")
        if not 2 * t <= d <= t * (1 + r // 2):
            raise InvalidSeedError(
                f"degree sum d = {d} outside [{2 * t}, {t * (1 + r // 2)}] for t = {t}"
            )
        for name, numerator in _count_numerators(r, t, d):
            q, rem = divmod(numerator, r - 6)
            if rem:
                raise InvalidSeedError(
                    f"count {name} is not integral: (r-6) {name} = {numerator}"
                )
            if q < 0:
                raise InvalidSeedError(f"count {name} = {q} is negative")


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
    """Census of the first expansion layer: a = t(r-2) - d, b = t."""
    a = seed.t * (seed.r - 2) - seed.d
    if a < 0:
        raise InvalidSeedError(f"first-layer census a = {a} is negative")
    return LayerCensus(a, seed.t)


def census_step(r: int, census: LayerCensus) -> LayerCensus:
    """Census of the next layer from the current one."""
    if r < 7:
        raise ValueError(f"ambient degree r = {r} must be >= 7")
    a, b = census.a, census.b
    return LayerCensus((r - 5) * a + (r - 6) * b, a + b)


def deltas_from_census(census: LayerCensus) -> DeltaCounts:
    """Per-layer (v, e, f) increments as a linear image of the census."""
    a, b = census.a, census.b
    return DeltaCounts(a + b, 2 * a + 3 * b, a + 2 * b)


def second_order_step(r: int, x_n: int, x_n1: int) -> int:
    """x_{n+2} = (r-4) x_{n+1} - x_n, shared by all three delta sequences."""
    if r < 7:
        raise ValueError(f"ambient degree r = {r} must be >= 7")
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


def layer_predictions(
    seed: SeedDescriptor, n_max: int, ring: type = int
) -> Iterator[LayerPrediction]:
    """Layers 1..n_max of repeated expansion from ``seed``, one at a time,
    every value of type ``ring``: ``int``, or ``Decimal`` for linear-time
    decimal output.  The recursion runs inside an ``EXACT`` context, so a
    ``Decimal`` that would round raises instead."""
    check_layer_count(n_max)
    base, first = counts_from_boundary(seed), initial_census(seed)
    v, e, f = ring(base.v), ring(base.e), ring(base.f)
    census = LayerCensus(ring(first.a), ring(first.b))
    for n in range(1, n_max + 1):
        # no yield inside the block: a suspended localcontext leaks into the caller
        with localcontext(EXACT):
            deltas = deltas_from_census(census)
            v, e, f = v + deltas.dv, e + deltas.de, f + deltas.df
            cumulative = DiskCounts(v, e, f, v - census.a - census.b)
            layer = LayerPrediction(n, census, deltas, cumulative)
            census = census_step(seed.r, census)
        yield layer


def predict_layers(seed: SeedDescriptor, n_max: int) -> list[LayerPrediction]:
    """Predict layers 1..n_max of repeated expansion from ``seed``, as ints."""
    return list(layer_predictions(seed, n_max))


def platonic_counts(r: int) -> tuple[int, int, int]:
    """(v, e, f) of the closed surface with all degrees r in {3, 4, 5}.

    These are the Platonic deltahedra: v = 12/(6-r), e = 6r/(6-r),
    f = 4r/(6-r), the bounded counterpart of the r >= 7 mesh invariants.
    """
    if r not in (3, 4, 5):
        raise ValueError(f"closed triangulated surfaces need r in {{3, 4, 5}}, got {r}")
    return 12 // (6 - r), 6 * r // (6 - r), 4 * r // (6 - r)
