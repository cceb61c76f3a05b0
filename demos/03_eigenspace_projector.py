"""
Two routes to the omega-eigenspace
==================================

Degree-p cyclic extensions of F correspond to lines in a specific
eigenspace V of K*/K*^p, where K = F(zeta_p) and the Galois group of K|F
acts through the cyclotomic character omega. The group-algebra idempotent
eps projects onto V; solving the eigenvalue equation directly must land on
the same subspace. Keeping both routes separate makes each one a check on
the other.
"""

import random

from ramify import (
    apply_idempotent,
    eigenspace,
    enumerate_lines,
    idempotent,
    multiplicative_order,
)
from ramify.fpspace import FpMatrix, identity_matrix, mat_inverse, mat_mul, mat_pow

p, m = 5, 4          # Gal(K|F) cyclic of order 4
g = 2                # omega(generator) = 2, a primitive root mod 5
assert multiplicative_order(g, p) == m

eps = idempotent(p, m, g)
print("idempotent coefficients:", eps.coeffs)

# A representation of the cyclic group on F_5^3: conjugate of a diagonal
# of 4th roots of unity (eigenvalues 2, 1, 4).
basis = FpMatrix(p, [[1, 1, 0], [0, 1, 2], [1, 0, 1]])
diag = FpMatrix(p, [[2, 0, 0], [0, 1, 0], [0, 0, 4]])
rep = mat_mul(mat_mul(basis, diag), mat_inverse(basis))
assert mat_pow(rep, m) == identity_matrix(p, 3)

# Route 1: image of the projector eps applied through the representation.
projected = apply_idempotent(eps, rep)
# Route 2: kernel of (rep - omega(g) * id).
solved = eigenspace(rep, g)
print("projector route basis:", projected.basis)
print("eigenspace route basis:", solved.basis)
assert projected == solved

# The lines of V are what the mass formula counts.
print("lines in the eigenspace:", enumerate_lines(projected))

# The agreement is not an accident of this example.
rng = random.Random(7)
for _ in range(25):
    rows = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
    try:
        b = FpMatrix(p, rows)
        inv = mat_inverse(b)
    except ValueError:
        continue
    r = mat_mul(mat_mul(b, diag), inv)
    assert apply_idempotent(eps, r) == eigenspace(r, g)
print("25 random conjugates: both routes agree")
