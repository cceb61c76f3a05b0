"""Break combinatorics for degree-p extensions of local fields.

The upper-numbering break of a ramified degree-p cyclic extension of a local
field with residue characteristic p is a positive integer prime to p.  These
are enumerated by b_upper(i) = i + a_of(i), an increasing bijection from the
positive integers onto the positive integers prime to p.  b_lower(i) is the
same break transported to lower numbering through the Herbrand transition of
the ambient filtration (closed form below; module filtration owns the
piecewise-linear map that reproduces it).
"""

from __future__ import annotations

import functools

__all__ = [
    "a_of",
    "b_upper",
    "prime_to_p_breaks",
    "b_lower",
    "c_truncation",
]


# The first 13 primes. As Miller-Rabin bases they decide primality exactly
# below _PRIME_BOUND (Sorenson and Webster, Math. Comp. 86 (2017)).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


@functools.lru_cache(maxsize=None, typed=True)  # typed: 3.0 and True miss the entry of 3
def _check_prime(p: int) -> None:
    """The package's one primality test: Miller-Rabin to the bases _WITNESSES."""
    if type(p) is not int or p < 2:
        raise ValueError("p must be a prime")
    if p >= _PRIME_BOUND:
        raise ValueError(f"p must be below {_PRIME_BOUND}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        if p % a == 0:
            if p == a:
                return
            raise ValueError("p must be a prime")
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError("p must be a prime")


def _check_index(i: int) -> None:
    if i < 1:
        raise ValueError("index out of domain")


def a_of(i: int, p: int) -> int:
    """floor((i-1)/(p-1)), the number of p-multiples skipped below b_upper(i)."""
    _check_index(i)
    _check_prime(p)
    return (i - 1) // (p - 1)


def b_upper(i: int, p: int) -> int:
    """The i-th positive integer prime to p, in increasing order."""
    return i + a_of(i, p)


def prime_to_p_breaks(p: int, e: int) -> list[int]:
    """The e possible upper breaks b_upper(1) < ... < b_upper(e)."""
    if e < 0:
        raise ValueError("index out of domain")
    _check_prime(p)
    return [i + (i - 1) // (p - 1) for i in range(1, e + 1)]


def _check_q(p: int, q: int) -> None:
    _check_prime(p)
    r = q
    while r > 1:
        if r % p:
            raise ValueError("q must be a power of p")
        r //= p
    if q < p:
        raise ValueError("q must be a power of p")


def b_lower(i: int, p: int, q: int) -> int:
    """Lower-numbering image of b_upper(i): sum_{j<i} q^j + sum_{j=1}^{a(i)} q^{j(p-1)}.

    Both sums are geometric: (q^i - 1)/(q - 1) + Q (Q^a - 1)/(Q - 1) with
    Q = q^(p-1) and a = a_of(i).
    """
    _check_index(i)
    _check_q(p, q)
    big_q = q ** (p - 1)
    a = (i - 1) // (p - 1)
    return (q**i - 1) // (q - 1) + big_q * ((big_q**a - 1) // (big_q - 1))


def c_truncation(m: int, p: int) -> int:
    """m - floor(m/p): how many break indices survive truncation at level m."""
    if m < 0:
        raise ValueError("index out of domain")
    _check_prime(p)
    return m - m // p

