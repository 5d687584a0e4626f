"""Exact integer and rational arithmetic with lossless JSON encoding.

Integers are Python's arbitrary-precision ``int``; rationals are
``fractions.Fraction``, which keeps values in lowest terms with a positive
denominator.  Layer counts grow geometrically, so everything downstream
assumes these types never overflow or round.

Report output alone also computes in a ``decimal.Decimal`` ring under
``EXACT``: CPython turns an ``int`` into decimal digits in time quadratic
in their number and refuses past ``sys.get_int_max_str_digits()``, while
``str`` of an exponent-0 ``Decimal`` is linear and has no limit (the
technique of CPython 3.12's ``Lib/_pylong.py``).  The one census loop,
``growth.layer_predictions``, runs in either ring: ``predict`` and every
layer of ``grow``, built or not, read its Decimals, so ``grow`` checks a
built layer against the digits it prints, while ``verify`` stays ``int``.

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


def int_to_json(n: int | Decimal) -> str:
    """Encode an integer, or a ``Decimal`` with exponent 0, as a decimal string."""
    if isinstance(n, Decimal):
        # same_quantum compares exponents: False for "1E+1", "1.5", NaN and Infinity
        if not n.same_quantum(_UNIT):
            raise TypeError(f"expected a Decimal with exponent 0, got {n!r}")
        return str(n) if n else "0"  # "-0" is not canonical
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"expected int, got {type(n).__name__}")
    return str(n)


def int_from_json(text: str) -> int:
    """Decode a decimal string exactly as int_to_json writes it; rejects anything else."""
    if not isinstance(text, str):
        raise ValueError(f"integer field must be a string, got {type(text).__name__}")
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    if digits[0] == "0" and text != "0":
        raise ValueError(f"not a canonical decimal integer: {text!r}")
    return int(text)


def rational_to_json(q: RationalLike) -> dict[str, str]:
    """Encode a rational as {"num", "den"} decimal strings, lowest terms."""
    q = Fraction(q)
    return {"num": str(q.numerator), "den": str(q.denominator)}


def rational_from_json(obj: dict) -> Fraction:
    """Decode a {"num", "den"} object; normalizes on the way in."""
    if not isinstance(obj, dict) or set(obj) != {"num", "den"}:
        raise ValueError(f"not a rational object: {obj!r}")
    num = int_from_json(obj["num"])
    den = int_from_json(obj["den"])
    if den == 0:
        raise ValueError(f"rational denominator is zero: {obj!r}")
    return Fraction(num, den)
