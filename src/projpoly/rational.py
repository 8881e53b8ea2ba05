"""Exact rational scalars and their canonical text form.

Every scalar in this package is a ``fractions.Fraction``: always reduced,
positive denominator, no rounding anywhere.  The canonical string form is
``p/q`` in lowest terms with ``/1`` omitted (``"-31/4"``, ``"9"``, ``"0"``),
which is exactly what ``str(Fraction)`` produces.
"""

from __future__ import annotations

import re
from fractions import Fraction

QQ = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a strict ``p/q`` or integer token.

    Decimal and exponent notation are rejected on purpose: accepting them
    would silently launder floating-point imprecision into an exact
    computation.
    """
    token = text.strip()
    if not _RATIONAL_RE.match(token):
        raise ValueError(f"not a rational token (expected 'p' or 'p/q'): {text!r}")
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(token))


def format_rational(value: Fraction) -> str:
    """Canonical string: lowest terms, denominator > 0, '/1' omitted."""
    return str(Fraction(value))


def rational_to_decimal(value: Fraction, places: int = 6) -> str:
    """Fixed-point decimal approximation, for report readability only."""
    q = Fraction(value)
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = q * 10**places
    whole, frac = divmod(round(scaled), 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"
