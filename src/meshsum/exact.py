"""Exact integer and rational arithmetic with lossless JSON encoding.

Integers are Python's arbitrary-precision ``int``; rationals are
``fractions.Fraction``, which keeps values in lowest terms with a positive
denominator.  Layer counts grow geometrically, so everything downstream
assumes these types never overflow or round.

Report output alone also computes in a ``decimal.Decimal`` ring under
``EXACT``: CPython turns an ``int`` into decimal digits in time quadratic
in their number and refuses past ``sys.get_int_max_str_digits()``, while
``str`` of an exponent-0 ``Decimal`` is linear and has no limit (the
technique of CPython 3.12's ``Lib/_pylong.py``).  ``EXACT`` is used only
through its own methods, never as the thread's context.  The one census
loop, ``growth.census_stream``, runs in it alone: ``predict`` and every
layer of ``grow``, built or not, read its Decimals, so ``grow`` checks a
built layer against the digits it prints; ``predict_layers`` makes ints.
An ``int`` past the digit limit is written, and a seed's integer text
read, through ``Decimal`` as well.

JSON conventions: integers travel as decimal strings, rationals as
``{"num": "<decimal>", "den": "<decimal>"}``.  Floats never appear.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from fractions import Fraction

RationalLike = Fraction | int

# Unbounded precision and exponent range, and any rounding raises: every
# sum and product of integers computed under it is the exact integer.  Do
# not divide under it: libmpdec sizes a quotient by the precision, so 1/3
# raises MemoryError, not Inexact.
EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
)
_UNIT = Decimal(1)
_WIDTH = 40  # the characters of a value that brief keeps


def int_to_json(n: int | Decimal) -> str:
    """Encode an integer, or a ``Decimal`` with exponent 0, as a decimal string."""
    if isinstance(n, Decimal):
        # same_quantum compares exponents: False for "1E+1", "1.5", NaN and Infinity
        if not n.same_quantum(_UNIT):
            raise TypeError(f"expected a Decimal with exponent 0, got {n!r}")
        return str(n) if n else "0"  # "-0" is not canonical
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"expected int, got {type(n).__name__}")
    try:
        return str(n)
    except ValueError:  # past the interpreter's digit limit
        return str(Decimal(n))


def int_from_text(text: str) -> int:
    """An integer spelled as ``int_to_json`` spells one: ASCII digits after an
    optional "-", and no leading zero but in "0".  No digit limit applies:
    text past ``int``'s limit is read through ``Decimal``."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()) or (digits[0] == "0" and text != "0"):
        raise ValueError(f"not a canonical decimal integer: {brief(text)}")
    try:
        return int(text)
    except ValueError:  # past the interpreter's digit limit
        return int(Decimal(text))


def brief(value) -> str:
    """An int's decimal digits or any other value's repr for an error
    message, cut after ``_WIDTH`` characters; no digit limit applies."""
    text = int_to_json(value) if type(value) is int else repr(value)
    return text if len(text) <= _WIDTH else f"{text[:_WIDTH]}... ({len(text)} characters)"


def rational_to_json(q: RationalLike) -> dict[str, str]:
    """Encode a rational as {"num", "den"} decimal strings, lowest terms, with no digit limit."""
    q = Fraction(q)
    try:
        return {"num": str(q.numerator), "den": str(q.denominator)}
    except ValueError:  # past the interpreter's digit limit
        return {"num": int_to_json(q.numerator), "den": int_to_json(q.denominator)}

