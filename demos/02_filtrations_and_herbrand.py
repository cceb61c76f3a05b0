"""
Ramification filtrations and the Herbrand transition
====================================================

The Galois group of the maximal elementary abelian p-extension carries a
filtration by ramification subgroups, indexed two ways: upper numbering
(stable under quotients) and lower numbering (stable under subgroups).
The piecewise-linear maps psi and phi translate between them, and the
lower filtration is the upper one with each jump moved by psi. The
discriminant exponent drops out of the upper numbering, and the different
exponent out of the lower numbering.
"""

from fractions import Fraction

from ramify import (
    FieldParams,
    different_exponent_oracle,
    discriminant_exponent,
    herbrand_phi,
    herbrand_psi,
    index_table,
    lower_filtration,
    upper_filtration,
)

# Case 1: characteristic 0, no p-th root of unity (the generic case).
params = FieldParams(p=3, f=1, e=2, zeta_in_field=False)
upper = upper_filtration(params)
lower = lower_filtration(upper)
print("p=3, e=2, f=1, zeta outside")
print("  upper breaks:", upper.locations)
print("  lower breaks:", lower.locations)

# psi stretches each segment by the index of the corresponding subgroup;
# its breakpoints are exactly (upper break, lower break) pairs.
psi = herbrand_psi(upper)
phi = herbrand_phi(lower)
print("  psi breakpoints:", psi.breakpoints)
for u in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5)):
    v = psi(u)
    assert phi(v) == u
    print(f"  psi({u}) = {v}, phi({v}) = {u}")

# The index table says how far each G^u sits inside the inertia subgroup:
# its rows are psi's segments and slopes.
print("  index of G^u:", index_table(upper))

# Two independent routes to the discriminant exponent: the conductor-
# discriminant sum over the lines of characters, read off the upper jumps,
# and p times the different, got by summing (|G_l| - 1) over the lower
# numbering. The factor p is the residue degree.
different = different_exponent_oracle(lower)
print("  discriminant exponent:", discriminant_exponent(upper), "= p * oracle", params.p * different)
print("  different exponent:", different)

# Case 2: zeta in the field. One extra break appears, at p*e/(p-1).
zeta = FieldParams(p=3, f=1, e=2, zeta_in_field=True)
zeta_upper = upper_filtration(zeta)
print("\np=3, e=2, f=1, zeta inside")
print("  upper breaks:", zeta_upper.locations)
print("  lower breaks:", lower_filtration(zeta_upper).locations)
print("  index of G^u:", index_table(zeta_upper))
print("  discriminant exponent:", discriminant_exponent(zeta_upper),
      "= p * oracle", zeta.p * different_exponent_oracle(lower_filtration(zeta_upper)))

# Case 3: characteristic p. The group is infinite, so each model takes a
# level m and describes the finite level-m quotient: its upper breaks are
# the b_upper(i) <= m (the first 6 at m=8), with a complete lower numbering.
charp = FieldParams(p=3, f=1, characteristic=3)
print("\ncharacteristic 3, f=1")
print("  upper breaks at level m=8 (first 6):", upper_filtration(charp, level=8).locations)
quotient = upper_filtration(charp, level=5)
print("  lower breaks at level m=5:", lower_filtration(quotient).locations)
# The level-5 quotient is a finite extension, with a finite discriminant.
print("  discriminant exponent at level m=5:", discriminant_exponent(quotient),
      "= p * oracle", charp.p * different_exponent_oracle(lower_filtration(quotient)))
