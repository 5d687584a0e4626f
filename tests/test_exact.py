from __future__ import annotations

import decimal
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsum import layer_predictions, predict_layers
from meshsum.exact import (
    EXACT,
    int_from_json,
    int_to_json,
    rational_from_json,
    rational_to_json,
)
from support import valid_seeds


def test_big_integer_arithmetic_is_exact():
    n = 10**40
    assert (n + 1) * (n - 1) == n * n - 1
    assert int_from_json(int_to_json(n * n + 7)) == n * n + 7


def test_int_json_strict():
    assert int_to_json(-12) == "-12"
    assert int_from_json("-12") == -12
    assert int_from_json("0") == 0
    for bad in (
        "1.5", "0x10", "", "-", "1e3", 12, None, "+4",
        "007", "-007", "-0", "00", "\u0663\u0664", " 7", "7\n",
    ):
        with pytest.raises((ValueError, TypeError)):
            int_from_json(bad)
    with pytest.raises(TypeError):
        int_to_json(1.5)
    with pytest.raises(TypeError):
        int_to_json(True)


def test_int_json_takes_a_decimal_only_with_exponent_0():
    assert int_to_json(Decimal(-12)) == "-12"
    assert int_to_json(Decimal("0")) == int_to_json(Decimal("-0")) == "0"
    for bad in ("1E+1", "10E-1", "1.5", "0.000", "0E+2", "NaN", "sNaN", "Infinity", "-Infinity"):
        with pytest.raises(TypeError):
            int_to_json(Decimal(bad))


def test_exact_context_raises_instead_of_rounding():
    big = Decimal(7) ** 5 * 10**40 + 1
    assert EXACT.multiply(big, big) == Decimal(int(big) ** 2)
    for signal, op in (
        (decimal.Inexact, lambda: Decimal("1.5").to_integral_exact(context=EXACT)),
        (decimal.InvalidOperation, lambda: EXACT.subtract(Decimal("Inf"), Decimal("Inf"))),
    ):
        with pytest.raises(signal):
            op()


@given(valid_seeds(max_r=1000), st.integers(min_value=1, max_value=60))
@settings(max_examples=60)
def test_exact_predictions_equal_predict_layers_and_leave_the_context_alone(seed, n):
    caller = decimal.getcontext()
    layers = []
    for layer in layer_predictions(seed, n, Decimal):
        assert decimal.getcontext() is caller  # no context leaks out of the generator
        layers.append(layer)
    for exact, reference in zip(layers, predict_layers(seed, n), strict=True):
        assert exact.n == reference.n
        for got, want in (
            (exact.census, reference.census),
            (exact.deltas, reference.deltas),
            (exact.cumulative, reference.cumulative),
        ):
            values = vars(got).values()
            assert all(type(x) is Decimal for x in values)
            assert [int(x) for x in values] == list(vars(want).values())


def test_rational_json_form():
    obj = rational_to_json(Fraction(-6, 4))
    assert obj == {"num": "-3", "den": "2"}
    assert rational_from_json(obj) == Fraction(-3, 2)
    # normalizes denormalized input on the way in
    assert rational_from_json({"num": "2", "den": "-4"}) == Fraction(-1, 2)
    for bad in (
        {"num": "1"},
        {"num": "1", "den": "0.5"},
        ["1", "2"],
        {"n": "1", "d": "2"},
        {"num": "1", "den": "0"},
    ):
        with pytest.raises(ValueError):
            rational_from_json(bad)


ints = st.integers(min_value=-(10**12), max_value=10**12)
nonzero = ints.filter(bool)


@given(ints, nonzero)
def test_rational_json_round_trip(a, b):
    q = Fraction(a, b)
    obj = rational_to_json(q)
    assert rational_from_json(obj) == q
    # canonical: lowest terms, positive denominator
    assert int(obj["den"]) > 0
    from math import gcd

    assert gcd(int(obj["num"]), int(obj["den"])) == 1


@given(st.integers(min_value=-(10**60), max_value=10**60))
def test_int_json_round_trip(n):
    assert int_from_json(int_to_json(n)) == n
    assert int_to_json(Decimal(n)) == int_to_json(n)


@given(
    st.one_of(
        st.from_regex(r"-?[0-9]{1,40}", fullmatch=True),
        st.text(alphabet=st.sampled_from("-0123456789\u0663\u0664+ .e"), max_size=12),
        st.text(max_size=12),
    )
)
def test_int_json_accepts_only_what_it_writes(text):
    try:
        value = int_from_json(text)
    except ValueError:
        return
    assert int_to_json(value) == text
