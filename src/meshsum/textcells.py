"""ASCII text from int and float arrays: each element becomes a cell, a row of
bytes padded with NUL, and ``text`` joins rows of cells with the padding dropped."""

from __future__ import annotations

import numpy as np


def int_cells(values: np.ndarray, negative: np.ndarray | None = None) -> np.ndarray:
    """Each int32 ``abs(values)`` in decimal, right-aligned, with a minus sign
    in column 0 where ``negative`` (by default, value < 0)."""
    negative = values < 0 if negative is None else negative
    mag = np.abs(values.astype(np.int64)).astype(np.uint32)  # |-2**31| fits
    cells = np.empty((mag.size, int(negative.any()) + len(str(mag.max(initial=0)))), np.uint8)
    for col in range(cells.shape[1] - 1, -1, -1):
        cells[:, col] = np.where((mag > 0) | (col == cells.shape[1] - 1), mag % 10 + 48, 0)
        mag //= 10
    cells[negative, 0] = ord("-")  # ahead of the padding
    return cells


def fixed2_cells(x: np.ndarray) -> np.ndarray:
    """Each float's ``f"{x:.2f}"``, exact for abs(x) < 2**31: 100 * abs(x) rounded
    half to even from the float's binary value, mantissa * 2**exp, as Python does."""
    mantissa, exp = np.frexp(np.abs(x))
    scaled = (mantissa * 2.0**53).astype(np.uint64) * np.uint64(100)  # < 2**60
    shift = np.minimum(53 - exp, 63).astype(np.uint64)  # >= 22; 63 leaves 0 cents
    cents = scaled >> shift
    rest, half = scaled - (cents << shift), np.uint64(1) << (shift - np.uint64(1))
    cents += (rest > half) | ((rest == half) & (cents % 2 == 1))
    frac = int_cells(cents % 100 + 100)[:, 1:]  # "1dd" without its "1"
    return row(x.size, int_cells(cents // 100, np.signbit(x)), b".", frac)  # "-0.00" too


def row(n: int, *parts) -> np.ndarray:
    """n rows side by side: each part is cells or bytes, the same in every row."""
    return np.hstack([np.broadcast_to(np.frombuffer(p, np.uint8), (n, len(p)))
                      if isinstance(p, bytes) else p for p in parts])


def text(cells: np.ndarray) -> bytes:
    """The rows of ``cells`` one after another, with their NUL padding dropped."""
    return cells.tobytes().replace(b"\0", b"")
