"""Linear algebra over F_p: matrices, canonical subspaces, group-algebra elements.

Each type holds its own invariants: entries and coefficients are reduced to
[0, p), and a subspace stores the reduced row echelon form of whatever spans
it, so that equality of FpSubspace values is equality of subspaces.
Everything is exact; p stays small in practice so no attempt is made at
asymptotic cleverness.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

from .breaks import _check_prime
from .filtration import _Record

__all__ = [
    "FpMatrix",
    "FpSubspace",
    "GroupAlgebraElement",
    "identity_matrix",
    "mat_mul",
    "mat_pow",
    "mat_inverse",
    "rref",
    "full_space",
    "count_lines",
    "enumerate_lines",
    "multiplicative_order",
    "idempotent",
    "convolve",
    "eigenspace",
    "apply_idempotent",
    "LINE_ENUMERATION_BOUND",
]

LINE_ENUMERATION_BOUND = 10**7


class FpMatrix(_Record):
    """Matrix over F_p: a tuple of equally long rows with entries reduced to [0, p)."""

    __slots__ = ("p", "entries")

    def __init__(self, p: int, entries: Iterable[Iterable[int]]) -> None:
        _check_prime(p)
        rows = tuple([tuple([x % p for x in r]) for r in entries])
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


def identity_matrix(p: int, n: int) -> FpMatrix:
    return FpMatrix(p, [[1 if i == j else 0 for j in range(n)] for i in range(n)])


def mat_mul(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    if a.p != b.p:
        raise ValueError("mismatched characteristic")
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    ncols = b.cols
    out = []
    for arow in a.entries:
        acc = [0] * ncols
        for aik, brow in zip(arow, b.entries):
            if aik == 0:
                continue
            for j in range(ncols):
                acc[j] += aik * brow[j]
        out.append(acc)
    return FpMatrix(a.p, out)


def mat_pow(a: FpMatrix, n: int) -> FpMatrix:
    if a.rows != a.cols:
        raise ValueError("matrix must be square")
    if n < 0:
        raise ValueError("negative power")
    result = identity_matrix(a.p, a.rows)
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        n >>= 1
    return result


def rref(p: int, rows: Iterable[Sequence[int]]) -> list[list[int]]:
    """Reduced row echelon form; zero rows dropped. Canonical per row space."""
    _check_prime(p)
    work = [[x % p for x in r] for r in rows]
    if not work:
        return []
    ncols = len(work[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, len(work)):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
        inv = pow(work[pivot_row][col], -1, p)
        work[pivot_row] = [(x * inv) % p for x in work[pivot_row]]
        for r in range(len(work)):
            if r != pivot_row and work[r][col]:
                factor = work[r][col]
                work[r] = [(a - factor * b) % p for a, b in zip(work[r], work[pivot_row])]
        pivot_row += 1
        if pivot_row == len(work):
            break
    return work[:pivot_row]


def mat_inverse(a: FpMatrix) -> FpMatrix:
    if a.rows != a.cols:
        raise ValueError("matrix must be square")
    n, p = a.rows, a.p
    aug = [list(row) + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(a.entries)]
    reduced = rref(p, aug)
    if len(reduced) < n or any(reduced[i][i] != 1 for i in range(n)):
        raise ValueError("matrix not invertible")
    return FpMatrix(p, [row[n:] for row in reduced])


class FpSubspace(_Record):
    """Subspace of F_p^ambient_dim spanned by `basis`, which is stored as its RREF."""

    __slots__ = ("p", "ambient_dim", "basis")

    def __init__(self, p: int, ambient_dim: int, basis: Iterable[Sequence[int]]) -> None:
        vectors = tuple(basis)
        if any(len(v) != ambient_dim for v in vectors):
            raise ValueError("dimension mismatch")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(map(tuple, rref(p, vectors))))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_vector(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return len(rref(self.p, [*self.basis, vec])) == self.dim

    def contains(self, other: "FpSubspace") -> bool:
        if (self.p, self.ambient_dim) != (other.p, other.ambient_dim):
            raise ValueError("mismatched ambient space")
        return len(rref(self.p, self.basis + other.basis)) == self.dim


def full_space(p: int, n: int) -> FpSubspace:
    return FpSubspace(p, n, identity_matrix(p, n).entries)


def count_lines(dim: int, p: int) -> int:
    """Number of 1-dimensional subspaces of F_p^dim: (p^dim - 1)/(p - 1)."""
    if dim < 0:
        raise ValueError("negative dimension")
    _check_prime(p)
    if dim == 0:
        return 0
    return (p**dim - 1) // (p - 1)


def enumerate_lines(ambient: FpSubspace) -> list[FpSubspace]:
    """Every line of `ambient`, each exactly once, as canonical subspaces.

    Lines are generated from coefficient vectors over the RREF basis whose
    first nonzero coordinate is 1; each line has exactly one such vector.
    """
    p, dim = ambient.p, ambient.dim
    if p**dim > LINE_ENUMERATION_BOUND:
        raise ValueError("enumeration too large")
    lines = []
    for lead, head in enumerate(ambient.basis):
        rest = ambient.basis[lead + 1 :]
        for tail in product(range(p), repeat=len(rest)):
            vec = head
            for c, row in zip(tail, rest):
                if c:
                    vec = [a + c * b for a, b in zip(vec, row)]
            lines.append(FpSubspace(p, ambient.ambient_dim, (vec,)))
    return lines


def multiplicative_order(a: int, p: int) -> int:
    _check_prime(p)
    if a % p == 0:
        raise ValueError("not a unit mod p")
    order, x = 1, a % p
    while x != 1:
        x = (x * a) % p
        order += 1
    return order


class GroupAlgebraElement(_Record):
    """Element sum coeffs[k] tau^k of F_p[C_m], tau a fixed generator of C_m.

    The coefficients are reduced to [0, p); there is at least one (m >= 1).
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[int]) -> None:
        _check_prime(p)
        coeffs = tuple([c % p for c in coeffs])
        if not coeffs:
            raise ValueError("need at least one coefficient")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def m(self) -> int:
        return len(self.coeffs)


def idempotent(p: int, m: int, omega_gen: int) -> GroupAlgebraElement:
    """The projector (1/m) sum_k omega(tau^-k) tau^k onto the omega-eigenline.

    omega sends tau to omega_gen, which must have multiplicative order
    exactly m mod p (the character is faithful), and m must divide p - 1.
    """
    _check_prime(p)
    if m < 1 or (p - 1) % m != 0:
        raise ValueError("m must divide p - 1")
    if multiplicative_order(omega_gen, p) != m:
        raise ValueError("character not faithful on cyclic group")
    w_inv = pow(omega_gen, -1, p)
    coeffs = [pow(m, -1, p)]
    for _ in range(m - 1):
        coeffs.append(coeffs[-1] * w_inv % p)
    return GroupAlgebraElement(p, coeffs)


def convolve(x: GroupAlgebraElement, y: GroupAlgebraElement) -> GroupAlgebraElement:
    """Product in F_p[C_m] (cyclic convolution of coefficient vectors)."""
    if (x.p, x.m) != (y.p, y.m):
        raise ValueError("mismatched group algebra")
    m = x.m
    out = [0] * m
    for i, xi in enumerate(x.coeffs):
        if xi == 0:
            continue
        for j, yj in enumerate(y.coeffs):
            out[(i + j) % m] += xi * yj
    return GroupAlgebraElement(x.p, out)


def eigenspace(rep_gen: FpMatrix, lam: int) -> FpSubspace:
    """Kernel of (rep_gen - lam*I), i.e. the lam-eigenspace, canonical."""
    if rep_gen.rows != rep_gen.cols:
        raise ValueError("matrix must be square")
    n, p = rep_gen.rows, rep_gen.p
    shifted = [
        [x - lam if i == j else x for j, x in enumerate(row)]
        for i, row in enumerate(rep_gen.entries)
    ]
    reduced = rref(p, shifted)
    pivots = [next(i for i, x in enumerate(row) if x) for row in reduced]
    pivot_set = set(pivots)
    kernel = []
    for j in range(n):
        if j in pivot_set:
            continue
        v = [0] * n
        v[j] = 1
        for row, c in zip(reduced, pivots):
            v[c] = -row[j]
        kernel.append(v)
    return FpSubspace(p, n, kernel)


def apply_idempotent(eps: GroupAlgebraElement, rep_gen: FpMatrix) -> FpSubspace:
    """Image of eps under the representation sending tau to rep_gen.

    Independent of eigenspace(): evaluates sum coeffs[k] * rep_gen^k and
    takes its column space. rep_gen must satisfy rep_gen^m = I.
    """
    if eps.p != rep_gen.p:
        raise ValueError("mismatched characteristic")
    if rep_gen.rows != rep_gen.cols:
        raise ValueError("matrix must be square")
    n, p = rep_gen.rows, rep_gen.p
    identity = identity_matrix(p, n)
    total = [[0] * n for _ in range(n)]
    power = identity
    for c in eps.coeffs:
        if c:
            for acc, row in zip(total, power.entries):
                for j in range(n):
                    acc[j] += c * row[j]
        power = mat_mul(power, rep_gen)
    if power != identity:  # power is now rep_gen^m
        raise ValueError("not a representation of order m")
    return FpSubspace(p, n, tuple(zip(*total)))
