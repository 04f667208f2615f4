"""Scalar arithmetic shared across the package.

Every quantity in a space model is either exact (a ``fractions.Fraction``) or
a float, and whole models are one or the other: exact models keep the lattice
and eta algebra exact, float models run everything in double precision.  The
optimizer always works in floats regardless of the model's arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, float]


class NumberFormatError(ValueError):
    """Raised for scalars that cannot be interpreted."""


def normalize(value) -> Scalar:
    """Coerce a Python number to the package's scalar types.

    Ints and Fractions become Fractions (exact); floats stay floats.
    """
    if isinstance(value, bool):
        raise NumberFormatError(f"boolean is not a scalar: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    raise NumberFormatError(f"unsupported scalar type: {value!r}")


def parse_number(raw, rational: bool = False) -> Scalar:
    """Parse a scalar from JSON data or CLI text.

    Accepts ints, floats, Fractions and strings like ``"3/4"``, ``"2"`` or
    ``"0.25"``.  With ``rational=True`` float *text* is read as an exact
    decimal; float objects are converted through their repr.
    """
    if isinstance(raw, str):
        text = raw.strip()
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise NumberFormatError(f"cannot parse number {raw!r}") from exc
    if isinstance(raw, float) and rational:
        if not math.isfinite(raw):
            raise NumberFormatError(f"not a finite number: {raw!r}")
        return Fraction(repr(raw))
    return normalize(raw)


def format_number(value: Scalar):
    """JSON-friendly representation: int, ``"p/q"`` string, or float."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return float(value)


def is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def all_exact(values) -> bool:
    return all(is_exact(v) for v in values)
