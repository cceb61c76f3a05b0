"""
Break sequences
===============

Every wildly ramified degree-p cyclic extension has a single ramification
break, and the possible break values are exactly the positive integers
prime to p. This demo walks the sequence b_upper(i) that enumerates them,
and its lower-numbering companion b_lower(i).
"""

from ramify import (
    FieldParams,
    a_of,
    b_lower,
    b_upper,
    c_truncation,
    lower_filtration,
    prime_to_p_breaks,
    upper_filtration,
)

p, f = 3, 2
q = p**f

# The first few rows of the break table for q = 9. The level-m quotient of
# F_9((t)) has the upper breaks b_upper(i) <= m, so at m = b_upper(10) they
# are the first ten; its lower filtration moves each one by Herbrand's psi.
upper = upper_filtration(FieldParams(p=p, f=f, characteristic=p), b_upper(10, p))
lower = lower_filtration(upper)
print(f"break table, p = {p}, q = {q}")
print("  i   a(i)  b_upper  b_lower")
for i, (bu, bl) in enumerate(zip(upper.locations[1:], lower.locations[1:]), 1):
    assert bl == b_lower(i, p, q)  # the closed form of the same break
    print(f"{i:3d} {a_of(i, p):6d} {bu:8d}  {bl}")

# b_upper enumerates the prime-to-p integers in increasing order: the gaps
# in the b_upper column above are exactly the multiples of 3.
image = [b_upper(i, p) for i in range(1, 30)]
missing = [n for n in range(1, image[-1]) if n not in image]
print("\nskipped values:", missing, "(all multiples of", p, ")")

# a(i) counts how many multiples of p were skipped before step i.
assert all(a_of(i, p) == sum(1 for n in missing if n < b_upper(i, p)) for i in range(1, 30))

# For a field of characteristic 0 with ramification index e, only the breaks
# below p*e/(p-1) occur; that is the first e of them.
print("\nbreaks available at e = 7:", prime_to_p_breaks(p, 7))

# In characteristic p all breaks occur. The finite level-m quotients see
# c(m) = m - floor(m/p) of them:
for m in (5, 9, 27):
    print(f"level m = {m:2d} sees c(m) = {c_truncation(m, p)} breaks")
