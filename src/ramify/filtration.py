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
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter, lt
from typing import Iterator, Optional, Union

from .breaks import _check_prime, c_truncation, prime_to_p_breaks

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
    "discriminant_exponent",
    "cyclic_discriminant",
    "space_model",
    "break_of_line",
    "orthogonal_index",
]


class _Record:
    """Base of the package's frozen value types: a field per __slots__ entry.

    An instance is equal to one of the same class with equal fields, hashes
    and pickles as its field tuple, shows as Name(field=value, ...), and
    raises AttributeError on any attribute assignment or deletion. A
    subclass's __init__ takes the fields in order, stores each once through
    object.__setattr__, and checks them; pickling calls it again on the
    stored fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = cls._fields + cls.__dict__.get("__slots__", ())

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class FieldParams(_Record):
    """Arithmetic invariants of the base local field.

    p: residue characteristic (prime). f: residual degree over the prime
    field, so q = p^f. characteristic: 0 or p. e: absolute ramification
    index (characteristic 0 only; must be None in characteristic p).
    zeta_in_field: whether a primitive p-th root of unity lies in the field;
    None asks the constructor to fill in the forced value (True in
    characteristic p and for p = 2; otherwise it must be given).
    """

    __slots__ = ("p", "f", "characteristic", "e", "zeta_in_field")

    def __init__(
        self,
        p: int,
        f: int,
        characteristic: int = 0,
        e: Optional[int] = None,
        zeta_in_field: Optional[bool] = None,
    ) -> None:
        _check_prime(p)
        if zeta_in_field is not None and type(zeta_in_field) is not bool:
            raise ValueError("zeta_in_field must be True, False or None")
        if zeta_in_field is None and (characteristic != 0 or p == 2):
            zeta_in_field = True  # forced; a wrong characteristic is refused below
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "characteristic", characteristic)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "zeta_in_field", zeta_in_field)
        if type(f) is not int or f < 1:
            raise ValueError("f must be a positive integer")
        if type(characteristic) is not int or characteristic not in (0, p):
            raise ValueError("characteristic must be 0 or p")
        if characteristic == 0:
            if type(e) is not int or e < 1:
                raise ValueError("e must be a positive integer in characteristic 0")
            if zeta_in_field is None:
                raise ValueError("zeta_in_field must be given in characteristic 0")
            if p == 2 and not zeta_in_field:
                raise ValueError("p = 2 forces zeta_in_field")
            if zeta_in_field and e % (p - 1) != 0:
                raise ValueError("zeta in field requires (p - 1) | e")
        else:
            if e is not None:
                raise ValueError("e is undefined in characteristic p")
            if not zeta_in_field:
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


class FilteredSpace(_Record):
    """Jump data of a filtered F_p-space or group.

    jumps is ordered by strictly increasing location; (location, codim)
    means the member drops by `codim` dimensions as x crosses the location
    (the member AT a location is still the larger one). The member at x
    therefore has dimension sum of codims at locations >= x (dim_at), and
    the total_dim property is the sum of all codims.
    """

    __slots__ = ("jumps",)

    def __init__(self, jumps: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "jumps", jumps)
        self._check_jumps()

    def _check_jumps(self) -> None:
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


class RamificationFiltration(FilteredSpace):
    """Filtration of a pro-p group G in upper or lower numbering.

    The member at numbering value u drops by a factor of p^codim as u
    crosses a jump. total_dim is the F_p-dimension of G; in characteristic
    p, G is the finite level-m quotient of the infinite group.
    """

    __slots__ = ("p", "numbering")

    def __init__(self, jumps: tuple[tuple[int, int], ...], p: int, numbering: str) -> None:
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "numbering", numbering)
        self._check_jumps()
        _check_prime(p)
        if numbering not in ("upper", "lower"):
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


def upper_filtration(
    params: FieldParams, level: Optional[int] = None
) -> RamificationFiltration:
    """Ramification filtration of G in upper numbering.

    Characteristic 0: breaks at -1 and b_upper(1..e), each positive break of
    codimension f, plus a final codimension-1 break at p*e/(p-1) when zeta
    is in the field. Characteristic p: the filtration of the level-m quotient
    (level = m, required and positive), whose positive breaks are the
    c_truncation(m) breaks b_upper(i) <= m.
    """
    p = params.p
    if params.characteristic == 0:
        if level is not None:
            raise ValueError("level applies to characteristic p only")
        count = params.e
    elif level is None or level < 1:
        raise ValueError("characteristic p needs a positive truncation index")
    else:
        count = c_truncation(level, p)
    jumps = [(-1, 1)] + [(b, params.f) for b in prime_to_p_breaks(p, count)]
    if params.characteristic == 0 and params.zeta_in_field:
        jumps.append((p * params.e // (p - 1), 1))  # the tres ramifiee break
    return RamificationFiltration(jumps=tuple(jumps), p=p, numbering="upper")


def lower_filtration(upper: RamificationFiltration) -> RamificationFiltration:
    """The same filtration in lower numbering: each jump moved by herbrand_psi(upper).

    Jumps at locations <= 0 pass through unchanged; the positive jumps go to
    psi's values there, read from index_table(upper). So psi(b_upper(i)) =
    b_lower(i).
    """
    psi_at = _psi_at_jumps(index_table(upper))
    jumps = tuple([(next(psi_at) if loc > 0 else loc, codim) for loc, codim in upper.jumps])
    return RamificationFiltration(jumps=jumps, p=upper.p, numbering="lower")


def _psi_at_jumps(table: list[tuple[int, Optional[int], int]]) -> Iterator[int]:
    """psi at the hi of each bounded row of an index table: the partial sums of
    the rises (hi - lo) * index, since psi's slope on ]lo, hi] is the index."""
    return accumulate((hi - lo) * index for lo, hi, index in table[:-1])


class HerbrandMap(_Record):
    """Increasing piecewise-linear bijection of [0, oo) with exact data.

    breakpoints[0] is (0, 0), and both coordinates strictly increase;
    slopes[i] applies between breakpoints i and i+1, and slopes[-1] extends
    beyond the last breakpoint. Every value is an int or a Fraction, and so
    is every argument, so evaluation and inverse() stay exact; the maps this
    module builds hold Fractions only. The inverse of a valid map is valid
    by construction, so inverse() builds it without the checks.

    The interior slopes restate the breakpoints, and nothing cross-checks
    the two. They are stored anyway: the last one, the slope of the final
    ray, is not fixed by the breakpoints; evaluation reads a segment's
    slope with no division; and == compares them, so the check of
    herbrand_phi(lower) against herbrand_psi(upper).inverse() covers the
    slopes of both routes.
    """

    __slots__ = ("breakpoints", "slopes")

    def __init__(
        self, breakpoints: tuple[tuple[Fraction, Fraction], ...], slopes: tuple[Fraction, ...]
    ) -> None:
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "slopes", slopes)
        if not breakpoints or breakpoints[0] != (0, 0):
            raise ValueError("transition maps are anchored at (0, 0)")
        if set(map(len, breakpoints)) != {2}:
            raise ValueError("each breakpoint is an (x, y) pair")
        xs, ys = zip(*breakpoints)
        if not {*map(type, xs), *map(type, ys), *map(type, slopes)} <= {int, Fraction}:
            raise TypeError("breakpoints and slopes must be ints or Fractions")
        if len(slopes) != len(breakpoints):
            raise ValueError("need one slope per segment plus the final ray")
        # The sign of an int or a Fraction is its numerator's.
        if not all(s.numerator > 0 for s in slopes):
            raise ValueError("slopes must be positive")
        if not (all(map(lt, xs, xs[1:])) and all(map(lt, ys, ys[1:]))):
            raise ValueError("breakpoints must strictly increase in both coordinates")

    def __call__(self, x: Union[int, Fraction]) -> Fraction:
        if type(x) is int:
            x = Fraction(x)
        elif type(x) is not Fraction:
            raise TypeError("transition maps take an int or a Fraction")
        if x.numerator < 0:
            raise ValueError("transition maps are defined on [0, oo) only")
        k = bisect_right(self.breakpoints, x, key=itemgetter(0)) - 1
        x0, y0 = self.breakpoints[k]
        return y0 + (x - x0) * self.slopes[k]

    def inverse(self) -> "HerbrandMap":
        inverse = object.__new__(HerbrandMap)
        object.__setattr__(inverse, "breakpoints", tuple([(y, x) for x, y in self.breakpoints]))
        # 1/s in lowest terms, for an int s too: s > 0, so no sign to fix.
        slopes = tuple([Fraction(s.denominator, s.numerator) for s in self.slopes])
        object.__setattr__(inverse, "slopes", slopes)
        return inverse


def herbrand_psi(upper: RamificationFiltration) -> HerbrandMap:
    """Transition from upper to lower numbering of a complete filtration.

    The map through (0, 0) and each positive upper jump paired with its
    lower jump; its slopes are the indices of index_table(upper), the index
    inside inertia of the subgroup on each segment. The table's ints become
    Fractions here only.
    """
    table = index_table(upper)
    pairs = zip(table[:-1], _psi_at_jumps(table))
    points = ((Fraction(hi), Fraction(y)) for (_, hi, _), y in pairs)
    return HerbrandMap(
        breakpoints=((Fraction(0), Fraction(0)), *points),
        slopes=tuple(Fraction(index) for _, _, index in table),
    )


def herbrand_phi(lower: RamificationFiltration) -> HerbrandMap:
    """Transition from lower to upper numbering; inverse of herbrand_psi.

    It walks the lower jumps on its own, as the route independent of psi:
    the slope is 1/den, and den grows by p^codim at each jump (jumps at
    locations <= 0 do not count). y stays an int while each segment's rise
    divides exactly, as it does for the filtrations of this module; a
    hand-built filtration can need a Fraction.
    """
    if lower.numbering != "lower":
        raise ValueError("phi consumes a lower-numbering filtration")
    points = [(Fraction(0), Fraction(0))]
    slopes: list[Fraction] = []
    den = 1
    x_prev = y = 0
    for loc, codim in lower.jumps:
        if loc <= 0:
            continue
        rise, rem = divmod(loc - x_prev, den)
        y += rise if rem == 0 else Fraction(rem, den) + rise
        points.append((Fraction(loc), Fraction(y)))
        slopes.append(Fraction(1, den))
        den *= lower.p**codim
        x_prev = loc
    slopes.append(Fraction(1, den))
    return HerbrandMap(breakpoints=tuple(points), slopes=tuple(slopes))


def index_table(upper: RamificationFiltration) -> list[tuple[int, Optional[int], int]]:
    """Index of the upper filtration member inside inertia, per interval.

    Rows (lo, hi, index) mean: for u in ]lo, hi] the subgroup at u has index
    `index` in the inertia group; hi = None on the final unbounded row. The
    first row starts at 0 and the index there is 1. The rows are the
    segments and slopes of herbrand_psi(upper), in every regime: the package's
    one walk of psi, which lower_filtration and herbrand_psi read and whose
    ints the CLI prints.
    """
    if upper.numbering != "upper":
        raise ValueError(
            "the lower filtration, psi and the index table read an upper-numbering filtration"
        )
    rows: list[tuple[int, Optional[int], int]] = []
    lo, index = 0, 1
    for loc, codim in upper.jumps:
        if loc > 0:
            rows.append((lo, loc, index))
            lo, index = loc, index * upper.p**codim
    rows.append((lo, None, index))
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


def discriminant_exponent(upper: RamificationFiltration) -> int:
    """Valuation of the discriminant, by the conductor-discriminant formula.

    The characters with upper break b span (p^hi - p^lo)/(p - 1) lines, where
    p^lo counts those of break below b and hi = lo + codim; each line adds
    cyclic_discriminant(p, b). Horner's rule over the jumps, from the top,
    sums them. The residue degree is p, so the different exponent is this
    over p, which p * different_exponent_oracle(lower) matches.
    """
    if upper.numbering != "upper":
        raise ValueError("the discriminant reads an upper-numbering filtration")
    p = upper.p
    acc = 0
    for b, codim in reversed(upper.jumps):
        acc = acc * p**codim + (p**codim - 1) * cyclic_discriminant(p, b)
    return acc // (p - 1)


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
    """Index in space_model(params) of the annihilator of the upper subgroup at u.

    The annihilator under the Kummer (or Artin-Schreier) pairing is the
    space's member at index top - max(ceil(u), 1)*s + 1, for every u > -1,
    in all three regimes and at every level. For u < 1 the subgroup is the
    full inertia group, whose annihilator is the unramified line; past the
    last break it is trivial, and the index lies at or below the shallowest
    jump, where the member is the whole space.
    """
    if type(u) is not int and type(u) is not Fraction:
        raise TypeError("u must be an int or a Fraction")
    if u <= -1:
        raise ValueError("u must exceed -1")
    s, top = _space_scale(params)
    return top - max(math.ceil(u), 1) * s + 1
