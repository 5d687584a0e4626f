from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsum import (
    MeshInvariants,
    PoleError,
    RecurrenceSeries,
    SeedDescriptor,
    UndefinedSumError,
    census_step,
    counts_from_boundary,
    deltas_from_census,
    euler_formula_check,
    euler_sum,
    euler_sum_by_lemma,
    generating_value,
    initial_census,
    mesh_invariants,
    mesh_invariants_from_seed,
    partial_sum,
    platonic_counts,
    second_order_step,
)
from support import D, R, T, valid_seeds


def test_generating_value_examples():
    assert generating_value(RecurrenceSeries(3, 12, 33), 1) == -9
    assert generating_value(RecurrenceSeries(3, 1, 1), 0) == 0
    # hand value: ((1/2 - 3/4)*12 + (1/4)*33) / (1 - 3/2 + 1/4) = (21/4)/(-1/4)
    assert generating_value(RecurrenceSeries(3, 12, 33), Fraction(1, 2)) == -21


def test_generating_value_matches_power_series():
    series = RecurrenceSeries(3, 1, 3)
    t = Fraction(1, 6)
    target = generating_value(series, t)
    assert partial_sum(series, t, 3) == Fraction(31, 108)
    gap = abs(partial_sum(series, t, 60) - target)
    assert gap < abs(target) * Fraction(1, 10**12)
    assert gap != 0  # the tail is small but never exactly zero


def test_partial_sum_basics():
    series = RecurrenceSeries(5, 2, 7)
    assert partial_sum(series, 0, 10) == 0
    assert partial_sum(series, 1, 1) == 2
    assert partial_sum(series, 1, 2) == 9
    with pytest.raises(ValueError):
        partial_sum(series, 1, -1)


def test_euler_sum_examples():
    assert euler_sum(RecurrenceSeries(3, 12, 33)) == -9
    assert euler_sum(RecurrenceSeries(3, 1, 1)) == 1
    assert euler_sum(RecurrenceSeries(4, 0, 0)) == 0


def test_euler_sum_by_lemma_examples():
    assert euler_sum_by_lemma(7, 12, 33) == -9
    assert euler_sum_by_lemma(7, 27, 75) == -21
    assert euler_sum_by_lemma(8, 0, 0) == 0


def test_gamma_two_is_undefined():
    with pytest.raises(UndefinedSumError):
        RecurrenceSeries(2, 1, 1)
    with pytest.raises(UndefinedSumError):
        euler_sum_by_lemma(6, 1, 1)


def test_pole_reports_both_roots():
    series = RecurrenceSeries(-2, 5, 7)
    with pytest.raises(PoleError) as err:
        generating_value(series, -1)
    assert err.value.at == -1
    assert err.value.roots == (-1, -1)


def test_partial_sums_follow_the_recurrence():
    # at t = 1 the n-th partial sum adds x_n; here x_1..x_5 = 1, 3, 8, 21, 55
    series = RecurrenceSeries(3, 1, 3)
    assert [partial_sum(series, 1, n) for n in range(6)] == [0, 1, 4, 12, 33, 88]


def test_mesh_invariants_closed_forms():
    assert mesh_invariants(7) == MeshInvariants(Fraction(-6), Fraction(-21), Fraction(-14))
    assert mesh_invariants(8) == MeshInvariants(Fraction(-3), Fraction(-12), Fraction(-8))
    assert mesh_invariants(12) == MeshInvariants(Fraction(-1), Fraction(-6), Fraction(-4))
    assert mesh_invariants(10) == MeshInvariants(
        Fraction(-3, 2), Fraction(-15, 2), Fraction(-5)
    )
    for bad in (6, 5, 0):
        with pytest.raises(ValueError):
            mesh_invariants(bad)


def test_euler_formula_check():
    assert euler_formula_check(mesh_invariants(7))
    assert not euler_formula_check(MeshInvariants(Fraction(0), Fraction(0), Fraction(0)))


def test_invariants_from_canonical_seeds():
    assert mesh_invariants_from_seed(SeedDescriptor(7, 3, 6)) == mesh_invariants(7)
    assert mesh_invariants_from_seed(SeedDescriptor(7, 7, 21)) == mesh_invariants(7)
    assert mesh_invariants_from_seed(SeedDescriptor(8, 3, 6)) == mesh_invariants(8)


@given(valid_seeds())
@settings(max_examples=80)
def test_seed_independence(seed):
    assert mesh_invariants_from_seed(seed) == mesh_invariants(seed.r)


@given(
    st.integers(min_value=7, max_value=40),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=-(10**6), max_value=10**6),
)
def test_two_summation_routes_agree(r, x1, x2):
    assert euler_sum(RecurrenceSeries(r - 4, x1, x2)) == euler_sum_by_lemma(r, x1, x2)


@given(
    st.integers(min_value=-20, max_value=20).filter(lambda g: g != 2),
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=-100, max_value=100),
)
def test_euler_sum_is_linear(gamma, x1, x2):
    a = RecurrenceSeries(gamma, x1, x2)
    b = RecurrenceSeries(gamma, 2 * x1, 2 * x2)
    assert euler_sum(b) == 2 * euler_sum(a)
    assert euler_sum(a) == generating_value(a, 1)


# The analytic chain on polynomials in r, t and d, copied from growth: (r - 6)
# times each count of the disk with profile (t, d) (``_count_numerators``),
# ``initial_census``, one ``census_step`` and ``deltas_from_census``.
NUMERATORS = (
    T * R - 2 * T - D - 6, 2 * T * R - 3 * D - 3 * R, T * R + 2 * T - 2 * D - 2 * R, 4 * T - D - 6
)


def _step(a, b):
    return (R - 5) * a + (R - 6) * b, a + b


def _deltas(a, b):
    return a + b, 2 * a + 3 * b, a + 2 * b


CENSUS_1 = (T * (R - 2) - D, T)
CENSUS_2 = _step(*CENSUS_1)
DELTAS_1, DELTAS_2 = _deltas(*CENSUS_1), _deltas(*CENSUS_2)
# (r - 6)(count + Euler sum of its layer series), the sum in its lemma form
# (r - 6) S = (r - 5) x1 - x2
CLEARED = tuple(n + (R - 5) * x1 - x2 for n, x1, x2 in zip(NUMERATORS, DELTAS_1, DELTAS_2))


def test_the_summed_counts_are_the_closed_forms_for_every_degree_and_profile():
    # every t and d term cancels: the seed drops out, and v - e + f = 1, for every r != 6
    assert CLEARED == (-6, -3 * R, -2 * R)
    assert CLEARED[0] - CLEARED[1] + CLEARED[2] == R - 6


def test_the_two_euler_sum_routes_agree_for_every_degree():
    x1, x2, gamma = T, D, R - 4  # t and d stand for any x1 and x2
    assert ((1 - gamma) * x1 + x2) * (R - 6) == ((R - 5) * x1 - x2) * (2 - gamma)


def test_every_delta_series_follows_the_second_order_recurrence():
    # from any census (a, b), here (t, d): Cayley-Hamilton for the census step
    first = (T, D)
    second = _step(*first)
    x1, x2, x3 = _deltas(*first), _deltas(*second), _deltas(*_step(*second))
    assert all(z == (R - 4) * y - x for x, y, z in zip(x1, x2, x3))


def test_the_platonic_counts_are_twice_the_closed_forms():
    for r in (3, 4, 5):
        assert platonic_counts(r) == tuple(Fraction(2 * c(r, 0, 0), r - 6) for c in CLEARED)


@pytest.mark.parametrize("r", [7, 8, 9, 1000])
def test_the_chain_in_src_is_the_reference_polynomials(r):
    """src's chain is +, - and * (with exact division by r - 6) of degree at
    most 2 in r and at most 1 in each of t and d, as is the reference.  At one
    degree their difference is then c00 + c10 t + c01 d + c11 t d, which
    vanishes on a 2 x 2 grid of (t, d) only if every c_ij does; each c_ij has
    degree at most 2 in r, so three degrees settle every r."""
    polys = (*NUMERATORS, *CENSUS_2, *DELTAS_2, *CLEARED)
    assert max(max(power) for poly in polys for power in poly.terms) <= 2
    assert max(max(j, k) for poly in polys for _, j, k in poly.terms) <= 1
    t0 = 3 * r  # with t - t0 a multiple of r - 6, every d below gives a valid seed
    for t in (t0, t0 + r - 6):
        for d in (4 * t0 - 6, 4 * t0 - r):
            seed = SeedDescriptor(r, t, d)
            counts, census = counts_from_boundary(seed), initial_census(seed)
            censuses = (census, census_step(r, census))
            inv = mesh_invariants_from_seed(seed)
            assert [(r - 6) * getattr(counts, k) for k in "vefs"] == [
                n(r, t, d) for n in NUMERATORS
            ]
            for found, want, deltas in zip(censuses, (CENSUS_1, CENSUS_2), (DELTAS_1, DELTAS_2)):
                assert (found.a, found.b) == tuple(c(r, t, d) for c in want)
                assert tuple(vars(deltas_from_census(found)).values()) == tuple(
                    x(r, t, d) for x in deltas
                )
            assert [inv.v, inv.e, inv.f] == [Fraction(c(r, t, d), r - 6) for c in CLEARED]
            dv1, dv2 = DELTAS_1[0](r, t, d), DELTAS_2[0](r, t, d)
            assert (r - 6) * euler_sum_by_lemma(r, dv1, dv2) == (r - 5) * dv1 - dv2
            assert euler_sum(RecurrenceSeries(r - 4, dv1, dv2)) == euler_sum_by_lemma(r, dv1, dv2)
            assert second_order_step(r, dv1, dv2) == (r - 4) * dv2 - dv1
