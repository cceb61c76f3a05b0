"""
Ramification filtrations and the Herbrand transition
====================================================

The Galois group of the maximal elementary abelian p-extension carries a
filtration by ramification subgroups, indexed two ways: upper numbering
(stable under quotients) and lower numbering (stable under subgroups).
The piecewise-linear maps psi and phi translate between them, and the
different/discriminant exponents drop out of the lower numbering.
"""

from fractions import Fraction

from ramify import (
    FieldParams,
    different_exponent_closed,
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
lower = lower_filtration(params)
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

# The index table says how far each G^u sits inside the inertia subgroup.
print("  index of G^u:", index_table(params))

# Two independent routes to the different exponent: the closed form, and
# summing (|G_l| - 1) over the lower numbering.
print("  different exponent:", different_exponent_closed(params),
      "= oracle", different_exponent_oracle(lower))
print("  discriminant exponent:", discriminant_exponent(params))

# Case 2: zeta in the field. One extra break appears, at p*e/(p-1).
zeta = FieldParams(p=3, f=1, e=2, zeta_in_field=True)
print("\np=3, e=2, f=1, zeta inside")
print("  upper breaks:", upper_filtration(zeta).locations)
print("  lower breaks:", lower_filtration(zeta).locations)

# Case 3: characteristic p. The group is infinite, so each model takes a
# level m and describes the finite level-m quotient: its upper breaks are
# the b_upper(i) <= m (the first 6 at m=8), with a complete lower numbering.
charp = FieldParams(p=3, f=1, characteristic=3)
print("\ncharacteristic 3, f=1")
print("  upper breaks at level m=8 (first 6):", upper_filtration(charp, level=8).locations)
print("  lower breaks at level m=5:", lower_filtration(charp, level=5).locations)
