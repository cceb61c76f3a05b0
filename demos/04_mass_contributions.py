"""
The cyclic share of the degree-p mass
=====================================

Summing q^{-c(L)} over all totally ramified degree-p extensions of a local
field gives exactly p. This demo computes the part contributed by the
cyclic (Galois) extensions, in all three regimes, and checks the closed
forms against a literal enumeration of lines.
"""

from fractions import Fraction

from ramify import (
    FieldParams,
    average_c_closed_form,
    average_c_cyclotomic,
    brute_force_mass,
    cyclic_mass,
    decimal_string,
)


def show(params, label, level=None):
    report = cyclic_mass(params, level)
    print(f"{label}")
    for i, b, count, contribution in report.per_break[:6]:
        print(f"  break {b}: {count} extensions contribute {contribution}")
    if report.tres_ramifiee:
        count, contribution = report.tres_ramifiee
        print(f"  deepest break: {count} extensions contribute {contribution}")
    print(f"  total {report.total} ~ {decimal_string(report.total, 6)}"
          f"  ({report.fraction_of_serre_total} of the full mass)")
    return report.total


# The 3-adic numbers: three ramified cyclic cubics, each with c = 2.
q3 = FieldParams(p=3, f=1, e=1, zeta_in_field=False)
total = show(q3, "Q_3 (zeta outside)")
assert total == brute_force_mass(q3) == Fraction(1, 3)

# Adjoining zeta_3 doubles e and raises the share; a tres ramifiee layer
# (break divisible by p) appears only when zeta is in the field.
q3z = FieldParams(p=3, f=1, e=2, zeta_in_field=True)
total = show(q3z, "\nQ_3(zeta_3)")
assert total == brute_force_mass(q3z) == Fraction(13, 27)

# p = 2: every quadratic extension is cyclic, so the share is the whole
# mass, exactly 2. True in characteristic 0 and in characteristic 2.
q2 = FieldParams(p=2, f=1, e=1, zeta_in_field=True)
assert show(q2, "\nQ_2") == 2
f2 = FieldParams(p=2, f=1, characteristic=2)
assert cyclic_mass(f2, level=1).total == 2

# Characteristic 3: infinitely many breaks, geometric decay, exact total.
# The level-8 quotient lists the six breaks up to 8.
c3 = FieldParams(p=3, f=1, characteristic=3)
show(c3, "\nF_3((t))", level=8)

# Over the p-th cyclotomic field of the p-adics, the average conductor-like
# exponent c(L) has a clean closed form.
print("\naverage c over Q_3(zeta_3):",
      average_c_cyclotomic(3), "=", average_c_closed_form(3))
