"""Scalar arithmetic shared across the package.

Every quantity in a space model is either exact (a ``fractions.Fraction``) or
a float, and whole models are one or the other.  A float is an exact dyadic
rational, so eta and the chain conditions read every model, and every
target, as integers over one denominator (:func:`common_denominator`); a
model's arithmetic decides only how their figures are spelled, as
``Fraction``s or as correctly rounded floats (:func:`figure`).  The optimizer
always works in floats regardless of the model's arithmetic.

This module alone decides how a figure is written in JSON (:func:`format_number`,
:func:`json_figure`): exact, as a float, or null beyond the float range.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

Scalar = Union[Fraction, float]


class NumberFormatError(ValueError):
    """Raised for scalars that cannot be interpreted."""


def normalize(value) -> Scalar:
    """Coerce a Python number to the package's scalar types.

    Ints and Fractions become Fractions (exact); floats stay floats.
    """
    if isinstance(value, bool):
        raise NumberFormatError(f"boolean is not a scalar: {value!r}")
    if isinstance(value, int):  # tested first: the check against Fraction's ABC is slower
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
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


def format_number(value: Optional[Scalar]):
    """A figure as ``json.dumps`` takes it: an int or a ``"p/q"`` string
    when exact, else a float, and None where it is absent or not finite."""
    if value is None:
        return None
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    value = float(value)
    return value if math.isfinite(value) else None


def common_denominator(values) -> tuple[int, tuple[int, ...]]:
    """(scale, ints): the values as integers over their least common
    denominator, exactly (a float is a dyadic rational)."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*(den for _, den in ratios))
    return scale, tuple(num * (scale // den) for num, den in ratios)


def ratio(num: int, den: int) -> float:
    """num / den correctly rounded, infinite beyond the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if (num < 0) == (den < 0) else -math.inf


def exponent(num: int, den: int) -> int:
    """floor(log2 (num / den)) of positive integers, exactly."""
    k = num.bit_length() - den.bit_length()
    return k - (num < den << k if k >= 0 else num << -k < den)


def ldexp(v: float, k: int) -> float:
    """v * 2**k, infinite beyond the float range."""
    try:
        return math.ldexp(v, k)
    except OverflowError:
        return math.copysign(math.inf, v)


def figure(num: int, den: int, exact: bool) -> Scalar:
    """num / den as a model's arithmetic spells it: a ``Fraction`` on an
    exact model, the correctly rounded float (:func:`ratio`) on a float one."""
    return Fraction(num, den) if exact else ratio(num, den)


def json_figure(num: int, den: int, exact: bool = False) -> str:
    """``figure(num, den, exact)`` in JSON, den > 0: the text ``json.dumps``
    writes of its :func:`format_number`, built without either."""
    if exact:
        g = math.gcd(num, den)
        num, den = num // g, den // g
        return str(num) if den == 1 else f'"{num}/{den}"'
    x = ratio(num, den)
    return repr(x) if math.isfinite(x) else "null"


def to_float(value) -> float:
    """The float nearest a number, infinite beyond the float range."""
    return value if isinstance(value, float) else ratio(*value.as_integer_ratio())


def is_exact(value) -> bool:
    if type(value) is Fraction:  # the common case, tested without isinstance
        return True
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def all_exact(values) -> bool:
    return all(is_exact(v) for v in values)
