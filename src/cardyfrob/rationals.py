"""Canonical text form for exact rationals.

Rationals are rendered as ``"p/q"`` in lowest terms with ``q > 0``, and as a
bare integer string ``"n"`` when the denominator is 1.  Parsing accepts the
same shapes plus plain JSON integers.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import InputError, ResourceError

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def format_fraction(value: Fraction | int) -> str:
    """Render a rational in canonical ``p/q`` form (``n`` when integral).

    Raises :class:`ResourceError` when a part has more digits than the
    interpreter converts to text (``sys.get_int_max_str_digits``).
    """
    value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        raise ResourceError(
            f"a value exceeds the limit of {sys.get_int_max_str_digits()} digits "
            "for printing an integer"
        ) from None


def parse_fraction(text: object) -> Fraction:
    """Parse a rational from a JSON scalar: an int or a ``p/q`` / ``n`` string."""
    if isinstance(text, bool):
        raise InputError(f"expected a rational, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        # Only sign, digits and one optional "/digits": Fraction() alone would
        # also take "1e999999999" and spend unbounded time expanding it.
        match = _RATIONAL.fullmatch(text.strip())
        if match is None:
            raise InputError(f"invalid rational literal {text!r}: expected n or p/q")
        try:
            return Fraction(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"invalid rational literal {text!r}: {exc}") from None
    raise InputError(f"expected a rational, got {type(text).__name__} {text!r}")
