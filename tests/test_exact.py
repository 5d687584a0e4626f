from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meshsum.exact import (
    int_from_json,
    int_to_json,
    rational_from_json,
    rational_to_json,
)


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


def test_rational_json_form():
    obj = rational_to_json(Fraction(-6, 4))
    assert obj == {"num": "-3", "den": "2"}
    assert rational_from_json(obj) == Fraction(-3, 2)
    # normalizes denormalized input on the way in
    assert rational_from_json({"num": "2", "den": "-4"}) == Fraction(-1, 2)
    for bad in ({"num": "1"}, {"num": "1", "den": "0.5"}, ["1", "2"], {"n": "1", "d": "2"}):
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
