"""Cyclic contribution to the degree-p mass formula over a local field.

Serre's mass formula assigns total mass p to the separable degree-p
extensions of F inside a fixed separable closure, each totally ramified L
weighing q^{-c(L)} with c(L) = v(d_{L|F}) - (p-1). This module computes the
part of that sum contributed by the cyclic (Galois) extensions, in exact
rational arithmetic. By the conductor-discriminant formula it is a sum over
the jumps of the upper filtration of module filtration, in all three regimes:

* characteristic 0: every jump, with the deepest-break ("tres ramifiee")
  one p*e/(p-1) when zeta is in F;
* characteristic p: an infinite sum over all break indices with closed form
  series_value; the level-m quotient lists its first terms.

cyclic_mass is that closed form. Its rows come from one walk of int rows,
_mass_walk, with two readers: cyclic_mass turns each row's contribution
into a Fraction, and the CLI prints the ints. It is paired with
brute_force_mass, an independent oracle that walks the lines of
filtration.space_model by their nonzero jump blocks and adds q^{-c} per
line.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Any, Callable, Optional

from .breaks import _check_prime, _check_q
from .filtration import (
    FieldParams,
    _Record,
    break_of_line,
    cyclic_discriminant,
    space_model,
    upper_filtration,
)
from .rationals import geometric_sum_finite

__all__ = [
    "MassReport",
    "lines_with_break_count",
    "tres_ramifiee_count",
    "series_value",
    "cyclic_mass",
    "average_c_cyclotomic",
    "average_c_closed_form",
    "brute_force_mass",
]

# Most jumps brute_force_mass walks: 2^20 sets of jump blocks take about a second.
_WALK_JUMP_BOUND = 20


class MassReport(_Record):
    """Per-break mass table plus totals.

    per_break rows are (i, b_upper(i), count, contribution) where count is
    the number of cyclic extensions with that break and contribution is
    count * q^{-c}. tres_ramifiee is (count, contribution) or None. For
    characteristic p the rows stop at the level of the quotient while total
    is the exact value of the infinite sum, so total > sum of listed rows
    there; in characteristic 0 the total is exactly the row sum (plus the
    tres term when present).
    """

    __slots__ = ("params", "per_break", "tres_ramifiee", "total")

    def __init__(
        self,
        params: FieldParams,
        per_break: tuple[tuple[int, int, int, Fraction], ...],
        tres_ramifiee: Optional[tuple[int, Fraction]],
        total: Fraction,
    ) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "per_break", per_break)
        object.__setattr__(self, "tres_ramifiee", tres_ramifiee)
        object.__setattr__(self, "total", total)

    @property
    def fraction_of_serre_total(self) -> Fraction:
        """total over Serre's mass p of all separable degree-p extensions."""
        return self.total / self.params.p


def lines_with_break_count(params: FieldParams, i: int) -> int:
    """Number of degree-p cyclic extensions with break b_upper(i):
    p * q^{i-1} * (q-1)/(p-1)."""
    if i < 1:
        raise ValueError("break index out of domain")
    if params.characteristic == 0 and i > params.e:
        raise ValueError("break index exceeds e")
    p, q = params.p, params.q
    return p * q ** (i - 1) * (q - 1) // (p - 1)


def tres_ramifiee_count(params: FieldParams) -> int:
    """Number of deepest-break cyclic extensions (zeta in field, char 0): p*q^e."""
    if params.characteristic != 0 or not params.zeta_in_field:
        raise ValueError("no tres ramifiee extensions for these parameters")
    return params.p * params.q**params.e


def series_value(p: int, q: int) -> Fraction:
    """Exact value of sum_{i>0} q^{i - (p-1) b_upper(i)}.

    Grouping indices by residue (i = (p-1)a + j, j in [1, p-1]) turns the sum
    into a finite block repeated geometrically:
        (sum_{j=1}^{p-1} q^{-(p-2)j}) / (1 - q^{-(p-1)^2}).
    For p = 2 this collapses to q/(q-1).
    """
    _check_q(p, q)
    if p == 2:
        return Fraction(q, q - 1)
    x = Fraction(1, q ** (p - 2))
    block = x * geometric_sum_finite(x, p - 1)
    return block / (1 - Fraction(1, q ** ((p - 1) ** 2)))


def cyclic_mass(params: FieldParams, level: Optional[int] = None) -> MassReport:
    """Mass of the cyclic degree-p extensions, in any of the three regimes.

    Rows are the ramified jumps of upper_filtration(params, level), which in
    characteristic p needs the level m and holds the breaks <= m. A jump
    (b, codim) above p^lo characters holds p^lo (p^codim - 1)/(p - 1) lines,
    each weighing q^{-c}, c = cyclic_discriminant(p, b) - (p-1); with zeta
    in F (characteristic 0) the last jump is the tres ramifiee term. The
    characteristic-0 total sums every jump; the characteristic-p total is
    the whole series, (p/q) * ((q-1)/(p-1)) * series_value(p, q).
    """
    rows, tres, total = _mass_walk(params, level, Fraction)
    return MassReport(params=params, per_break=tuple(rows), tres_ramifiee=tres, total=total)


def _mass_walk(
    params: FieldParams, level: Optional[int], weigh: Callable[[int, int], Any]
) -> tuple[list[tuple], Optional[tuple], Fraction]:
    """The rows of cyclic_mass, its tres ramifiee term and its total.

    A row is (i, b, count, weigh(n, den)) and the tres ramifiee term
    (count, weigh(n, den)), for the contribution n/den; the term is None
    without zeta in F. n/den is in lowest terms: den is a power of p and
    n = (p^codim - 1)/(p - 1) is 1 mod p. cyclic_mass weighs with Fraction;
    the CLI keeps the ints and prints them.
    """
    upper = upper_filtration(params, level)
    p, f, q = params.p, params.f, params.q
    # Divided by p^lo, a row is n / p^k with k = f*c - lo, so no row needs a
    # big gcd. p^lo, the denominator p^k and the Horner sum
    # acc = sum_j n_j p^{k - k_j} each grow by one small power per jump, so
    # the sum over all jumps is acc / p^k.
    (_, lo), *ramified = upper.jumps  # the unramified jump carries no mass
    below, den, acc, k = p**lo, 1, 0, 0
    rows = []
    for i, (b, codim) in enumerate(ramified, start=1):
        n = (p**codim - 1) // (p - 1)
        k_next = f * (cyclic_discriminant(p, b) - (p - 1)) - lo
        step = p ** (k_next - k)
        den *= step
        acc = acc * step + n
        k = k_next
        rows.append((i, b, below * n, weigh(n, den)))
        below *= p**codim
        lo += codim
    tres = None
    if params.characteristic != 0:
        total = Fraction(p, q) * Fraction(q - 1, p - 1) * series_value(p, q)
    else:
        total = Fraction(acc, den)
        if params.zeta_in_field:
            tres = rows.pop()[2:]
    return rows, tres, total


def _check_odd_prime(p: int) -> None:
    if p == 2:
        raise ValueError("average is defined for odd p")
    _check_prime(p)


def average_c_cyclotomic(p: int, peu_only: bool = False) -> Fraction:
    """Average of c(L) over the cyclic degree-p extensions of Q_p(zeta_p).

    There are p^i extensions with c = (p-1)i for each i in [1, p] (the i = p
    row being the deepest-break ones), so the plain average is
    sum (p-1) i p^i / sum p^i over i in [1, p]; peu_only drops the i = p row.
    Defined for odd p.
    """
    _check_odd_prime(p)
    hi = p - 1 if peu_only else p
    num = sum((p - 1) * i * p**i for i in range(1, hi + 1))
    den = sum(p**i for i in range(1, hi + 1))
    return Fraction(num, den)


def average_c_closed_form(p: int) -> Fraction:
    """Closed form of average_c_cyclotomic(p): (p^{p+2}-p^{p+1}-p^p+1)/(p^p-1)."""
    _check_odd_prime(p)
    return Fraction(p ** (p + 2) - p ** (p + 1) - p**p + 1, p**p - 1)


def brute_force_mass(params: FieldParams, level: Optional[int] = None) -> Fraction:
    """Oracle: enumerate the lines of the filtered-space model and sum q^{-c}.

    A line's depth depends only on which jump blocks of its vectors are
    nonzero, and a block of codim c is zero or one of p^c - 1 nonzero
    patterns. So the oracle walks, for each lead block (deepest first),
    every set of the shallower blocks: with its lead, a set stands for
    prod (p^c - 1) / (p - 1) lines, whose depth is the shallowest index in
    it. That is 2^J - 1 steps for J jumps, refused past _WALK_JUMP_BOUND.
    Each depth becomes a break via break_of_line, and each ramified line
    adds q^{-c}, c = cyclic_discriminant(p, break) - (p-1). No closed count.

    The space is space_model(params, level), so in characteristic 0 the
    result is the complete cyclic mass, and in characteristic p, where the
    level m is required, it is the exact mass of the extensions with break
    <= m.
    """
    space = space_model(params, level)
    if len(space.jumps) > _WALK_JUMP_BOUND:
        raise ValueError("enumeration too large")
    p, q = params.p, params.q
    contribution_at = dict.fromkeys(space.locations, Fraction(0))
    for idx in space.locations:
        brk = break_of_line(space, idx, params)
        if brk != -1:  # the unramified line carries no mass
            contribution_at[idx] = Fraction(1, q ** (cyclic_discriminant(p, brk) - (p - 1)))
    lines_at = dict.fromkeys(space.locations, 0)
    # (index, nonzero patterns) per block, deepest first.
    blocks = [(idx, p**codim - 1) for idx, codim in reversed(space.jumps)]
    for lead, (lead_idx, lead_patterns) in enumerate(blocks):
        tail = blocks[lead + 1 :]
        for support in product((0, 1), repeat=len(tail)):
            depth_idx, lines = lead_idx, lead_patterns // (p - 1)
            for chosen, (idx, patterns) in zip(support, tail):
                if chosen:
                    lines *= patterns
                    if idx < depth_idx:
                        depth_idx = idx
            lines_at[depth_idx] += lines
    return sum((n * contribution_at[idx] for idx, n in lines_at.items()), Fraction(0))
