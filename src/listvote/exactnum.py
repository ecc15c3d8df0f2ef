"""Exact rational arithmetic and combinatorial primitives.

Every probability, proportion, and bound downstream is a
``fractions.Fraction``, so ties and bound comparisons are decided exactly.
No floating point appears anywhere in the core. All functions here are
pure and all values immutable.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import ParameterError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a Fraction.

    Decimal notation is rejected on purpose: inputs must be exact.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational literal: {text!r}")
    if "/" in s:
        p, q = s.split("/")
        if int(q) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(p), int(q))
    return Fraction(int(s))


def format_rational(value: Fraction) -> str:
    """Render as "p/q", omitting the denominator when it is 1.

    Raises ParameterError when a part is longer than the interpreter's
    int-to-str digit limit: the value exists but cannot be written exactly.
    """
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:
        raise too_long_to_print() from exc


def too_long_to_print() -> ParameterError:
    """The error for an exact value with a part past the int-to-str digit limit.

    :func:`format_rational` raises it; a caller that can bound a result's
    size in advance raises it before computing the result.
    """
    return ParameterError(
        "exact result has a numerator or denominator of more than "
        f"{sys.get_int_max_str_digits()} digits, too long to print"
    )


def binomial(a: int, b: int) -> int:
    """C(a, b), extended with C(a, b) = 0 for b < 0 or b > a.

    The zero extension is relied on by the coverage-table formulas, where
    sums legitimately touch infeasible index combinations.
    """
    if a < 0:
        raise ValueError(f"binomial requires a >= 0, got a={a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)
