"""Exact integer and rational arithmetic with lossless JSON encoding.

Integers are Python's arbitrary-precision ``int``; rationals are
``fractions.Fraction``, which keeps values in lowest terms with a positive
denominator.  Layer counts grow geometrically, so everything downstream
assumes these types never overflow or round.

JSON conventions: integers travel as decimal strings, rationals as
``{"num": "<decimal>", "den": "<decimal>"}``.  Floats never appear.
"""

from __future__ import annotations

from fractions import Fraction

RationalLike = Fraction | int


def int_to_json(n: int) -> str:
    """Encode an integer as a decimal string."""
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
