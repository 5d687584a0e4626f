from __future__ import annotations

import decimal
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsum import predict_layers
from meshsum.exact import (
    EXACT,
    brief,
    int_from_text,
    int_to_json,
    rational_to_json,
)
from meshsum.growth import census_stream
from support import valid_seeds


def test_big_integer_arithmetic_is_exact():
    n = 10**40
    assert (n + 1) * (n - 1) == n * n - 1
    assert int_from_text(int_to_json(n * n + 7)) == n * n + 7


def test_int_json_strict():
    assert int_to_json(-12) == "-12"
    assert int_from_text("-12") == -12
    assert int_from_text("0") == 0
    for bad in (
        "1.5", "0x10", "", "-", "1e3", "+4",
        "007", "-007", "-0", "00", "\u0663\u0664", " 7", "7\n",
    ):
        with pytest.raises(ValueError):
            int_from_text(bad)
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
    for layer in census_stream(seed, n, Decimal):
        assert decimal.getcontext() is caller  # no context leaks out of the generator
        layers.append(layer)
    for exact, reference in zip(layers, predict_layers(seed, n), strict=True):
        n_exact, a, b, dv, de, df, v, e, f = exact
        assert n_exact == reference.n
        for got, want in (
            ((a, b), reference.census),
            ((dv, de, df), reference.deltas),
            ((v, e, f, EXACT.subtract(v, dv)), reference.cumulative),
        ):
            assert all(type(x) is Decimal for x in got)
            assert [int(x) for x in got] == list(vars(want).values())


def _rational_from_text(obj: dict[str, str]) -> Fraction:
    assert set(obj) == {"num", "den"}
    return Fraction(int_from_text(obj["num"]), int_from_text(obj["den"]))


def test_rational_json_form():
    obj = rational_to_json(Fraction(-6, 4))
    assert obj == {"num": "-3", "den": "2"}
    assert _rational_from_text(obj) == Fraction(-3, 2)


ints = st.integers(min_value=-(10**12), max_value=10**12)
nonzero = ints.filter(bool)


@given(ints, nonzero)
def test_rational_json_round_trip(a, b):
    q = Fraction(a, b)
    obj = rational_to_json(q)
    assert _rational_from_text(obj) == q
    # canonical: lowest terms, positive denominator
    assert int(obj["den"]) > 0
    from math import gcd

    assert gcd(int(obj["num"]), int(obj["den"])) == 1


@given(st.integers(min_value=-(10**60), max_value=10**60))
def test_int_json_round_trip(n):
    assert int_from_text(int_to_json(n)) == n
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
        value = int_from_text(text)
    except ValueError:
        return
    assert int_to_json(value) == text


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no integer digit limit before 3.10.7"
)
def test_int_text_has_no_digit_limit():
    n = -(10**700 + 3)
    text = str(n)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert int_to_json(n) == text
        assert int_from_text(text) == n
        assert brief(n) == f"{text[:40]}... (702 characters)"
        for bad in (text + "e5", text + ".0", "x" + text, text + "_1", "--" + text[1:],
                    f" +{text[1:]}\n", "-0" + text[1:]):
            with pytest.raises(ValueError):
                int_from_text(bad)
    finally:
        sys.set_int_max_str_digits(saved)


def test_int_text_takes_only_canonical_decimals():
    assert [int_from_text(text) for text in ("0", "12", "-3", "1000")] == [0, 12, -3, 1000]
    for bad in ("", "-", "+", "+6", "-0", "007", "-07", " 12 ", "12\n", "1_000", "\u0667",
                "-\u0663", "1e3", "NaN", "1.0", "0x10"):
        with pytest.raises(ValueError, match="^not a canonical decimal integer: "):
            int_from_text(bad)


def test_brief_keeps_a_message_short():
    assert brief(-12) == "-12"
    assert brief("3:x") == "'3:x'"
    assert brief("x" * 100) == "'" + "x" * 39 + "... (102 characters)"
