"""Euler summation of the divergent layer series and the mesh invariants.

Each delta sequence satisfies x_{n+2} = gamma x_{n+1} - x_n with
gamma = r - 4 > 2, so the layer totals diverge.  Abel/Euler summation
evaluates the generating function

    F(t) = sum x_n t^n = ((t - gamma t^2) x_1 + t^2 x_2) / (1 - gamma t + t^2)

at t = 1, giving the finite regularized total

    EulerSum(x) = ((1 - gamma) x_1 + x_2) / (2 - gamma),     gamma != 2.

Adding the seed counts yields invariants independent of the seed:

    v_M = -6/(r-6),  e_M = -3r/(r-6),  f_M = -2r/(r-6),

which satisfy v_M - e_M + f_M = 1, the Euler formula a growing disk never
loses in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import RationalLike
from .growth import SeedDescriptor, counts_from_boundary, predict_layers


class UndefinedSumError(ValueError):
    """gamma = 2 (degree 6): the regularized total has no finite value."""


class PoleError(ZeroDivisionError):
    """Generating function evaluated at a root of 1 - gamma t + t^2."""

    def __init__(self, at: Fraction, roots: tuple[Fraction, Fraction]):
        self.at = at
        self.roots = roots
        super().__init__(f"t = {at} is a pole; denominator roots are {roots[0]} and {roots[1]}")


@dataclass(frozen=True)
class RecurrenceSeries:
    """Sequence x_{n+2} = gamma x_{n+1} - x_n pinned by (x_1, x_2)."""

    gamma: int
    x1: int
    x2: int

    def __post_init__(self):
        if self.gamma == 2:
            raise UndefinedSumError("gamma = 2 makes the Euler sum undefined")

    def term(self, n: int) -> int:
        """x_n by direct iteration; n >= 1."""
        if n < 1:
            raise ValueError(f"terms are indexed from 1, got {n}")
        a, b = self.x1, self.x2
        for _ in range(n - 1):
            a, b = b, self.gamma * b - a
        return a


def generating_value(series: RecurrenceSeries, t: RationalLike) -> Fraction:
    """Exact F(t); raises PoleError on the two reciprocal denominator roots."""
    t = Fraction(t)
    gamma = series.gamma
    denom = 1 - gamma * t + t * t
    if denom == 0:
        # the two roots multiply to 1, so t != 0 here and 1/t is the other
        raise PoleError(t, (t, 1 / t))
    numer = (t - gamma * t * t) * series.x1 + t * t * series.x2
    return numer / denom


def euler_sum(series: RecurrenceSeries) -> Fraction:
    """Regularized total F(1) = ((1 - gamma) x_1 + x_2) / (2 - gamma)."""
    return Fraction((1 - series.gamma) * series.x1 + series.x2, 2 - series.gamma)


def euler_sum_by_lemma(r: int, x1: int, x2: int) -> Fraction:
    """Same total via the telescoping identity (r-6) S = (r-5) x_1 - x_2."""
    if r == 6:
        raise UndefinedSumError("degree 6 is flat; the regularized total is undefined")
    return Fraction((r - 5) * x1 - x2, r - 6)


def partial_sum(series: RecurrenceSeries, t: RationalLike, n_terms: int) -> Fraction:
    """Exact sum of the first ``n_terms`` terms of F's power series at t."""
    if n_terms < 0:
        raise ValueError(f"n_terms must be >= 0, got {n_terms}")
    t = Fraction(t)
    total = Fraction(0)
    power = t
    a, b = series.x1, series.x2
    for _ in range(n_terms):
        total += a * power
        power *= t
        a, b = b, series.gamma * b - a
    return total


@dataclass(frozen=True)
class MeshInvariants:
    """Regularized (v, e, f) of the whole infinite mesh."""

    v: Fraction
    e: Fraction
    f: Fraction


def mesh_invariants(r: int) -> MeshInvariants:
    """Closed forms v_M = -6/(r-6), e_M = -3r/(r-6), f_M = -2r/(r-6)."""
    if not isinstance(r, int) or isinstance(r, bool) or r < 7:
        raise ValueError(f"mesh degree must be an integer >= 7, got {r!r}")
    return MeshInvariants(
        Fraction(-6, r - 6), Fraction(-3 * r, r - 6), Fraction(-2 * r, r - 6)
    )


def mesh_invariants_from_seed(seed: SeedDescriptor) -> MeshInvariants:
    """Seed counts plus the Euler-summed layer series, one per count.

    Agrees with mesh_invariants(seed.r) for every valid seed; the whole
    point is that the seed drops out.
    """
    gamma = seed.r - 4
    base = counts_from_boundary(seed)
    d1, d2 = (layer.deltas for layer in predict_layers(seed, 2))
    return MeshInvariants(
        base.v + euler_sum(RecurrenceSeries(gamma, d1.dv, d2.dv)),
        base.e + euler_sum(RecurrenceSeries(gamma, d1.de, d2.de)),
        base.f + euler_sum(RecurrenceSeries(gamma, d1.df, d2.df)),
    )


def euler_formula_check(inv: MeshInvariants) -> bool:
    """Exact test of v - e + f = 1."""
    return inv.v - inv.e + inv.f == 1
