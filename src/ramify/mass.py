"""Cyclic contribution to the degree-p mass formula over a local field.

Serre's mass formula assigns total mass p to the separable degree-p
extensions of F inside a fixed separable closure, each totally ramified L
weighing q^{-c(L)} with c(L) = v(d_{L|F}) - (p-1). This module computes the
part of that sum contributed by the cyclic (Galois) extensions, in exact
rational arithmetic, for the three parameter regimes of module filtration:

* characteristic 0, zeta not in F: sum over breaks b_upper(i), i in [1, e];
* characteristic 0, zeta in F: the same sum plus the deepest-break
  ("tres ramifiee") term p / q^{(p-1)e};
* characteristic p: an infinite sum over all break indices with closed form
  series_value.

cyclic_mass is the one closed form over all three regimes. It is paired with
brute_force_mass, an independent oracle that walks the lines of
filtration.space_model by their nonzero jump blocks and adds q^{-c} per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .breaks import _check_prime, _check_q, prime_to_p_breaks
from .filtration import FieldParams, break_of_line, cyclic_discriminant, space_model
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


@dataclass(frozen=True)
class MassReport:
    """Per-break mass table plus totals.

    per_break rows are (i, b_upper(i), count, contribution) where count is
    the number of cyclic extensions with that break and contribution is
    count * q^{-c}. tres_ramifiee is (count, contribution) or None. For
    characteristic p the rows stop at a display bound while total is the
    exact value of the infinite sum, so total >= sum of listed rows there;
    in characteristic 0 the total is exactly the row sum (plus the tres
    term when present).
    """

    params: FieldParams
    per_break: tuple[tuple[int, int, int, Fraction], ...]
    tres_ramifiee: Optional[tuple[int, Fraction]]
    total: Fraction

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


def cyclic_mass(params: FieldParams, display_rows: int = 16) -> MassReport:
    """Mass of the cyclic degree-p extensions, in any of the three regimes.

    Rows cover the breaks b_upper(1..e) in characteristic 0 and the first
    display_rows breaks in characteristic p, where the per-break table is
    infinite. When zeta is in F (characteristic 0) the p*q^e deepest-break
    extensions add p / q^{(p-1)e}. The characteristic-0 total is the sum of
    the rows (and that term); the characteristic-p total is the exact value
    (p/q) * ((q-1)/(p-1)) * series_value(p, q) of the whole series.
    """
    p, q = params.p, params.q
    char_p = params.characteristic != 0
    if char_p and display_rows < 1:
        raise ValueError("need at least one display row")
    # Row i is count_i / q^{(p-1)b_i} = unit / q^{k_i}, where count_i =
    # unit * q^{i-1} and k_i = (p-1)b_i - i + 1; cancelling q^{i-1} saves a
    # big gcd per row. The count, the denominator q^{k_i} and the Horner sum
    # acc = sum_{j<=i} q^{k_i - k_j} each grow by one small power per row, so
    # the characteristic-0 total is unit * acc / q^{k_e}.
    unit = p * (q - 1) // (p - 1)
    rows = []
    count, den, acc, k = unit, 1, 0, 0
    for i, b in enumerate(prime_to_p_breaks(p, display_rows if char_p else params.e), start=1):
        k_next = (p - 1) * b - i + 1
        step = q ** (k_next - k)
        den *= step
        acc = acc * step + 1
        k = k_next
        rows.append((i, b, count, Fraction(unit, den)))
        count *= q
    tres = None
    if char_p:
        total = Fraction(p, q) * Fraction(q - 1, p - 1) * series_value(p, q)
    else:
        total = Fraction(unit * acc, den)
        if params.zeta_in_field:
            tres = (tres_ramifiee_count(params), Fraction(p, q ** ((p - 1) * params.e)))
            total += tres[1]
    return MassReport(params=params, per_break=tuple(rows), tres_ramifiee=tres, total=total)


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
