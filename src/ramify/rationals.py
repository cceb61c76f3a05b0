"""Exact integer and rational helpers shared by the whole package.

Everything here is arbitrary-precision: integers are plain Python ints and
rationals are fractions.Fraction. No floats anywhere; the only decimal output
is decimal_string, which does long division digit by digit.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "geometric_sum_finite",
    "decimal_string",
]


def geometric_sum_finite(x: Fraction | int, n: int) -> Fraction:
    """Sum of x**i for i in [0, n), exactly.

    The x == 1 branch returns n directly; the closed form (1-x^n)/(1-x)
    covers everything else.
    """
    if n < 0:
        raise ValueError("term count must be nonnegative")
    x = Fraction(x)
    if x == 1:
        return Fraction(n)
    return (1 - x**n) / (1 - x)


def decimal_string(x: Fraction | int, digits: int = 30) -> str:
    """Decimal rendering of x with `digits` significant digits.

    Long division on integers: deterministic, truncating, no floats.
    Stops early when the expansion terminates.
    """
    if digits < 1:
        raise ValueError("need at least one significant digit")
    x = Fraction(x)
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    n, d = abs(x.numerator), x.denominator
    whole, rem = divmod(n, d)
    head = str(whole)
    # Leading zeros after "0." are not significant; every other digit is.
    significant = len(head) if whole else 0
    frac_digits = []
    while rem != 0 and significant < digits:
        digit, rem = divmod(rem * 10, d)
        frac_digits.append(str(digit))
        if significant or digit:
            significant += 1
    return sign + head + ("." + "".join(frac_digits) if frac_digits else "")
