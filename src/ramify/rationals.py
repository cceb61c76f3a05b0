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
    if whole > 0:
        out = str(whole)
        significant = len(out)
        if rem == 0 or significant >= digits:
            return sign + out
        frac_digits = []
        while rem != 0 and significant < digits:
            rem *= 10
            digit, rem = divmod(rem, d)
            frac_digits.append(str(digit))
            significant += 1
        return sign + out + "." + "".join(frac_digits)
    # No integer part: skip leading zeros, then take significant digits.
    frac_digits = []
    significant = 0
    while rem != 0 and significant < digits:
        rem *= 10
        digit, rem = divmod(rem, d)
        if digit == 0 and significant == 0:
            frac_digits.append("0")
            continue
        frac_digits.append(str(digit))
        significant += 1
    return sign + "0." + "".join(frac_digits)
