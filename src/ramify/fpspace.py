"""Linear algebra over F_p: matrices, canonical subspaces, group-algebra idempotents.

Subspaces are held in reduced row echelon form so that equality of
FpSubspace values is equality of subspaces. Everything is exact; p stays
small in practice so no attempt is made at asymptotic cleverness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .breaks import _check_prime

__all__ = [
    "FpMatrix",
    "FpSubspace",
    "GroupAlgebraElement",
    "fp_matrix",
    "identity_matrix",
    "mat_mul",
    "mat_pow",
    "mat_inverse",
    "rref",
    "subspace",
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


@dataclass(frozen=True)
class FpMatrix:
    """Row-major matrix over F_p with entries reduced to [0, p)."""

    p: int
    rows: int
    cols: int
    entries: tuple[int, ...]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]


def fp_matrix(p: int, rows: Sequence[Sequence[int]]) -> FpMatrix:
    _check_prime(p)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    flat = []
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged rows")
        flat.extend(x % p for x in r)
    return FpMatrix(p=p, rows=nrows, cols=ncols, entries=tuple(flat))


def identity_matrix(p: int, n: int) -> FpMatrix:
    return fp_matrix(p, [[1 if i == j else 0 for j in range(n)] for i in range(n)])


def mat_mul(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    if a.p != b.p:
        raise ValueError("mismatched characteristic")
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    p = a.p
    out = []
    brows = [b.row(k) for k in range(b.rows)]
    for i in range(a.rows):
        arow = a.row(i)
        acc = [0] * b.cols
        for k, aik in enumerate(arow):
            if aik == 0:
                continue
            brow = brows[k]
            for j in range(b.cols):
                acc[j] += aik * brow[j]
        out.append([x % p for x in acc])
    return fp_matrix(p, out)


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
    work = [[x % p for x in r] for r in rows]
    if not work:
        return []
    ncols = len(work[0])
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for r in range(pivot_row, len(work)):
            if work[r][col] % p != 0:
                pivot = r
                break
        if pivot is None:
            continue
        work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
        inv = pow(work[pivot_row][col], -1, p)
        work[pivot_row] = [(x * inv) % p for x in work[pivot_row]]
        for r in range(len(work)):
            if r != pivot_row and work[r][col] % p != 0:
                factor = work[r][col]
                work[r] = [(a - factor * b) % p for a, b in zip(work[r], work[pivot_row])]
        pivot_row += 1
        if pivot_row == len(work):
            break
    return [r for r in work[:pivot_row]]


def mat_inverse(a: FpMatrix) -> FpMatrix:
    if a.rows != a.cols:
        raise ValueError("matrix must be square")
    n, p = a.rows, a.p
    aug = [list(a.row(i)) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    reduced = rref(p, aug)
    if len(reduced) < n or any(reduced[i][i] != 1 for i in range(n)):
        raise ValueError("matrix not invertible")
    return fp_matrix(p, [row[n:] for row in reduced])


@dataclass(frozen=True)
class FpSubspace:
    """Subspace of F_p^ambient_dim; basis rows are the RREF of any spanning set."""

    p: int
    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_vector(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        v = [x % self.p for x in vec]
        for row in self.basis:
            lead = next(i for i, x in enumerate(row) if x)
            if v[lead]:
                c = v[lead]
                v = [(a - c * b) % self.p for a, b in zip(v, row)]
        return not any(v)

    def contains(self, other: "FpSubspace") -> bool:
        if (self.p, self.ambient_dim) != (other.p, other.ambient_dim):
            raise ValueError("mismatched ambient space")
        return all(self.contains_vector(row) for row in other.basis)


def subspace(p: int, ambient_dim: int, vectors: Iterable[Sequence[int]]) -> FpSubspace:
    vecs = [list(v) for v in vectors]
    for v in vecs:
        if len(v) != ambient_dim:
            raise ValueError("dimension mismatch")
    basis = rref(p, vecs)
    return FpSubspace(p=p, ambient_dim=ambient_dim, basis=tuple(tuple(r) for r in basis))


def full_space(p: int, n: int) -> FpSubspace:
    return subspace(p, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])


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
    for lead in range(dim):
        for tail in product(range(p), repeat=dim - lead - 1):
            coeffs = (0,) * lead + (1,) + tail
            vec = [0] * ambient.ambient_dim
            for c, row in zip(coeffs, ambient.basis):
                if c:
                    for j, x in enumerate(row):
                        vec[j] = (vec[j] + c * x) % p
            lines.append(subspace(p, ambient.ambient_dim, [vec]))
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


@dataclass(frozen=True)
class GroupAlgebraElement:
    """Element sum coeffs[k] tau^k of F_p[C_m], tau a fixed generator of C_m."""

    p: int
    coeffs: tuple[int, ...]

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
    m_inv = pow(m, -1, p)
    w_inv = pow(omega_gen, -1, p)
    coeffs = []
    acc = 1
    for _ in range(m):
        coeffs.append((m_inv * acc) % p)
        acc = (acc * w_inv) % p
    return GroupAlgebraElement(p=p, coeffs=tuple(coeffs))


def convolve(x: GroupAlgebraElement, y: GroupAlgebraElement) -> GroupAlgebraElement:
    """Product in F_p[C_m] (cyclic convolution of coefficient vectors)."""
    if (x.p, x.m) != (y.p, y.m):
        raise ValueError("mismatched group algebra")
    p, m = x.p, x.m
    out = [0] * m
    for i, xi in enumerate(x.coeffs):
        if xi == 0:
            continue
        for j, yj in enumerate(y.coeffs):
            out[(i + j) % m] = (out[(i + j) % m] + xi * yj) % p
    return GroupAlgebraElement(p=p, coeffs=tuple(out))


def eigenspace(rep_gen: FpMatrix, lam: int) -> FpSubspace:
    """Kernel of (rep_gen - lam*I), i.e. the lam-eigenspace, canonical."""
    if rep_gen.rows != rep_gen.cols:
        raise ValueError("matrix must be square")
    n, p = rep_gen.rows, rep_gen.p
    shifted = [
        [(x - (lam if i == j else 0)) % p for j, x in enumerate(rep_gen.row(i))]
        for i in range(n)
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
            v[c] = (-row[j]) % p
        kernel.append(v)
    return subspace(p, n, kernel)


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
            for i in range(n):
                row = power.row(i)
                for j in range(n):
                    total[i][j] = (total[i][j] + c * row[j]) % p
        power = mat_mul(power, rep_gen)
    if power != identity:  # power is now rep_gen^m
        raise ValueError("not a representation of order m")
    columns = [[total[i][j] for i in range(n)] for j in range(n)]
    return subspace(p, n, columns)
