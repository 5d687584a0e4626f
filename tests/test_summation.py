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
    euler_formula_check,
    euler_sum,
    euler_sum_by_lemma,
    generating_value,
    mesh_invariants,
    mesh_invariants_from_seed,
    partial_sum,
)
from support import valid_seeds


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
