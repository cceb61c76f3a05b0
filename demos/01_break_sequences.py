"""
Break sequences
===============

Every wildly ramified degree-p cyclic extension has a single ramification
break, and the possible break values are exactly the positive integers
prime to p. This demo walks the sequence b_upper(i) that enumerates them,
and its lower-numbering companion b_lower(i).
"""

from ramify import a_of, b_upper, break_sequence, c_truncation, prime_to_p_breaks

p, f = 3, 2
q = p**f

# The first few rows of the break table for q = 9.
print(f"break table, p = {p}, q = {q}")
print("  i   a(i)  b_upper  b_lower")
for i, a, bu, bl in break_sequence(p, q, 10):
    print(f"{i:3d} {a:6d} {bu:8d}  {bl}")

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
