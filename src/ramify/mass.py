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

Each closed form is paired with brute_force_mass, an independent oracle that
enumerates lines of the filtered-space models and adds q^{-c} line by line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .breaks import prime_to_p_breaks
from .filtration import (
    FieldParams,
    FilteredSpace,
    break_of_line,
    unit_space_model,
    v_space_model,
)
from .rationals import geometric_sum_finite

__all__ = [
    "MassReport",
    "lines_with_break_count",
    "tres_ramifiee_count",
    "series_value",
    "cyclic_mass_char_p",
    "cyclic_mass_char0_zeta",
    "cyclic_mass_char0_regular",
    "cyclic_mass",
    "average_c_cyclotomic",
    "average_c_closed_form",
    "brute_force_mass",
    "serre_total_mass",
]


def serre_total_mass(p: int) -> Fraction:
    """Total mass of all separable degree-p extensions, cyclic or not: p."""
    return Fraction(p)


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
    fraction_of_serre_total: Fraction


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


def _check_q(p: int, q: int) -> None:
    r = q
    while r > 1 and r % p == 0:
        r //= p
    if r != 1 or q < p:
        raise ValueError("q must be a power of p")


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


def _per_break_rows(
    params: FieldParams, count: int
) -> tuple[tuple[int, int, int, Fraction], ...]:
    p, q = params.p, params.q
    rows = []
    for i, b in enumerate(prime_to_p_breaks(p, count), start=1):
        n = lines_with_break_count(params, i)
        rows.append((i, b, n, Fraction(n, q ** ((p - 1) * b))))
    return tuple(rows)


def cyclic_mass_char_p(params: FieldParams, display_rows: int = 16) -> MassReport:
    """Mass of all cyclic degree-p extensions in characteristic p.

    total = (p/q) * ((q-1)/(p-1)) * series_value(p, q); the per-break table
    is infinite, so only display_rows rows are materialized.
    """
    if params.characteristic == 0:
        raise ValueError("characteristic p parameters required")
    if display_rows < 1:
        raise ValueError("need at least one display row")
    p, q = params.p, params.q
    total = Fraction(p, q) * Fraction(q - 1, p - 1) * series_value(p, q)
    return MassReport(
        params=params,
        per_break=_per_break_rows(params, display_rows),
        tres_ramifiee=None,
        total=total,
        fraction_of_serre_total=total / serre_total_mass(p),
    )


def cyclic_mass_char0_zeta(params: FieldParams) -> MassReport:
    """Mass of the cyclic extensions when zeta is in F (characteristic 0).

    The breaks b_upper(1..e) contribute as in the regular case, and the
    p*q^e deepest-break extensions add p / q^{(p-1)e}.
    """
    if params.characteristic != 0 or not params.zeta_in_field:
        raise ValueError("zeta-in-field characteristic-0 parameters required")
    p, q, e = params.p, params.q, params.e
    rows = _per_break_rows(params, e)
    tres = (tres_ramifiee_count(params), Fraction(p, q ** ((p - 1) * e)))
    total = sum((r[3] for r in rows), Fraction(0)) + tres[1]
    return MassReport(
        params=params,
        per_break=rows,
        tres_ramifiee=tres,
        total=total,
        fraction_of_serre_total=total / serre_total_mass(p),
    )


def cyclic_mass_char0_regular(params: FieldParams) -> MassReport:
    """Mass of the cyclic extensions of a regular F (zeta outside, char 0)."""
    if not params.regular:
        raise ValueError("regular characteristic-0 parameters required")
    rows = _per_break_rows(params, params.e)
    total = sum((r[3] for r in rows), Fraction(0))
    return MassReport(
        params=params,
        per_break=rows,
        tres_ramifiee=None,
        total=total,
        fraction_of_serre_total=total / serre_total_mass(params.p),
    )


def cyclic_mass(params: FieldParams, display_rows: int = 16) -> MassReport:
    """Dispatch to the closed form matching the parameter regime."""
    if params.characteristic != 0:
        return cyclic_mass_char_p(params, display_rows=display_rows)
    if params.zeta_in_field:
        return cyclic_mass_char0_zeta(params)
    return cyclic_mass_char0_regular(params)


def average_c_cyclotomic(p: int, peu_only: bool = False) -> Fraction:
    """Average of c(L) over the cyclic degree-p extensions of Q_p(zeta_p).

    There are p^i extensions with c = (p-1)i for each i in [1, p] (the i = p
    row being the deepest-break ones), so the plain average is
    sum (p-1) i p^i / sum p^i over i in [1, p]; peu_only drops the i = p row.
    Defined for odd p.
    """
    if p == 2:
        raise ValueError("average is defined for odd p")
    if not _is_prime_int(p):
        raise ValueError("p must be a prime")
    hi = p - 1 if peu_only else p
    num = sum((p - 1) * i * p**i for i in range(1, hi + 1))
    den = sum(p**i for i in range(1, hi + 1))
    return Fraction(num, den)


def average_c_closed_form(p: int) -> Fraction:
    """Closed form of average_c_cyclotomic(p): (p^{p+2}-p^{p+1}-p^p+1)/(p^p-1)."""
    if p == 2:
        raise ValueError("average is defined for odd p")
    if not _is_prime_int(p):
        raise ValueError("p must be a prime")
    return Fraction(p ** (p + 2) - p ** (p + 1) - p**p + 1, p**p - 1)


def _is_prime_int(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def brute_force_mass(
    params: FieldParams, char_p_level: Optional[int] = None
) -> Fraction:
    """Oracle: enumerate the lines of the filtered-space model and sum q^{-c}.

    Walks every line of the model space exactly once (canonical
    representatives), reads off each line's depth, converts it to a break
    via break_of_line, and adds q^{-(p-1)*break} for the ramified ones.
    Exercises the line-counting combinatorics rather than assuming it.

    In characteristic p the full space is infinite, so char_p_level (the
    level m of the finite quotient) is required and the result is the exact
    mass of the extensions with break <= m. In characteristic 0 the result
    is the complete cyclic mass and char_p_level must be omitted.
    """
    if params.characteristic == 0:
        if char_p_level is not None:
            raise ValueError("char_p_level applies to characteristic p only")
        space = (
            unit_space_model(params)
            if params.zeta_in_field
            else v_space_model(params)
        )
    else:
        space = unit_space_model(params, level=char_p_level)
    return _sum_over_lines(space, params)


def _sum_over_lines(space: FilteredSpace, params: FieldParams) -> Fraction:
    p, q = params.p, params.q
    dim = space.total_dim
    if p**dim > 10**7:
        raise ValueError("enumeration too large")
    # Coordinate t carries the filtration index of the jump it belongs to,
    # deepest first; a line's depth is the shallowest index among its
    # nonzero coordinates.
    coord_index: list[int] = []
    for idx, codim in space.jumps:
        coord_index.extend([idx] * codim)
    wp = space.label == "wp_char_p"
    contribution_at: dict[int, Fraction] = {}
    for idx in space.indices:
        depth = -idx if wp else idx
        brk = break_of_line(space, depth, params)
        contribution_at[idx] = (
            Fraction(0) if brk == -1 else Fraction(1, q ** ((p - 1) * brk))
        )
    total = Fraction(0)
    # Canonical line representatives: first nonzero coordinate equals 1.
    for lead in range(dim):
        lead_idx = coord_index[lead]
        tail_indices = coord_index[lead + 1 :]
        for tail in product(range(p), repeat=dim - lead - 1):
            depth_idx = lead_idx
            for c, idx in zip(tail, tail_indices):
                if c and idx < depth_idx:
                    depth_idx = idx
            total += contribution_at[depth_idx]
    return total
