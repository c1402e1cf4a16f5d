"""Reference grid quantizer: nearest integer, exact halves earlier.

This is the ``Fraction``-arithmetic formula ``encode.quantize_steps`` used
before it moved to integer ``divmod``; the property tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction


def reference_quantize(value: Fraction | int) -> int:
    value = Fraction(value)
    floor = value.numerator // value.denominator
    if value - floor == Fraction(1, 2):
        return floor
    half_up = value + Fraction(1, 2)
    return half_up.numerator // half_up.denominator
