from decimal import Decimal
from fractions import Fraction

import pytest

from ramify.breaks import b_lower, b_upper
from ramify.filtration import (
    FieldParams,
    FilteredSpace,
    HerbrandMap,
    RamificationFiltration,
    break_of_line,
    cyclic_discriminant,
    different_exponent_oracle,
    discriminant_exponent,
    herbrand_phi,
    herbrand_psi,
    index_table,
    lower_filtration,
    orthogonal_index,
    space_model,
    upper_filtration,
)
from ramify.verify import _char0_grid

Q3 = FieldParams(p=3, f=1, e=1, zeta_in_field=False)
Q2 = FieldParams(p=2, f=1, e=1, zeta_in_field=True)
P321 = FieldParams(p=3, f=1, e=2, zeta_in_field=False)
P321Z = FieldParams(p=3, f=1, e=2, zeta_in_field=True)
CHAR3 = FieldParams(p=3, f=1, characteristic=3)


def _regimes(p, f, es, levels):
    """(field, level): the fields of residue characteristic p and degree f over
    the given e with each zeta setting they allow, then characteristic p at
    the given levels."""
    for e in es:
        for zeta in (False, True):
            if (zeta or p != 2) and (not zeta or e % (p - 1) == 0):
                yield FieldParams(p=p, f=f, e=e, zeta_in_field=zeta), None
    for m in levels:
        yield FieldParams(p=p, f=f, characteristic=p), m


# The grid of every regime: p in {2, 3, 5, 7}, f <= 3, e <= 12, levels m <= 29.
ALL_REGIMES = [
    case
    for p in (2, 3, 5, 7)
    for f in (1, 2, 3)
    for case in _regimes(p, f, range(1, 13), range(1, 30))
]


class TestFieldParams:
    def test_derived_quantities(self):
        assert Q3.q == 3 and Q3.e1 == Fraction(1, 2) and Q3.s == 2
        assert P321.s == 1
        p56 = FieldParams(p=5, f=1, e=6, zeta_in_field=False)
        assert p56.s == 2
        assert FieldParams(p=3, f=2, e=1, zeta_in_field=False).q == 9

    def test_char_p_forces_zeta(self):
        assert CHAR3.zeta_in_field is True
        with pytest.raises(ValueError):
            FieldParams(p=3, f=1, characteristic=3, zeta_in_field=False)

    def test_zeta_in_needs_divisibility(self):
        with pytest.raises(ValueError):
            FieldParams(p=3, f=1, e=1, zeta_in_field=True)
        FieldParams(p=3, f=1, e=4, zeta_in_field=True)

    def test_zeta_out_needs_odd_p(self):
        with pytest.raises(ValueError):
            FieldParams(p=2, f=1, e=1, zeta_in_field=False)
        assert FieldParams(p=2, f=1, e=3).zeta_in_field is True

    def test_validation(self):
        with pytest.raises(ValueError, match="prime"):
            FieldParams(p=6, f=1, e=1, zeta_in_field=False)
        with pytest.raises(ValueError):
            FieldParams(p=3, f=0, e=1, zeta_in_field=False)
        with pytest.raises(ValueError):
            FieldParams(p=3, f=1, e=0, zeta_in_field=False)
        with pytest.raises(ValueError):
            FieldParams(p=3, f=1, characteristic=5)
        with pytest.raises(ValueError):
            FieldParams(p=3, f=1, characteristic=3, e=2)
        # Only int fields: a float f would make q irrational and codims fractional.
        for f, e in ((1.5, 2), (2.0, 2), (True, 2), (1, 2.0), (1, True)):
            with pytest.raises(ValueError, match="must be a positive integer"):
                FieldParams(p=3, f=f, e=e, zeta_in_field=False)
        for characteristic in (0.0, False, 3.0):
            with pytest.raises(ValueError, match="characteristic must be 0 or p"):
                FieldParams(p=3, f=1, e=2, characteristic=characteristic, zeta_in_field=False)
        # The prime check is memoized per type: after p = 3 passed, an equal
        # float or bool is still refused.
        FieldParams(p=3, f=1, e=2, zeta_in_field=False)
        for p in (3.0, True, 2.0):
            with pytest.raises(ValueError, match="p must be a prime"):
                FieldParams(p=p, f=1, e=2, zeta_in_field=True)
        for zeta in (1, 0, "in"):
            with pytest.raises(ValueError, match="zeta_in_field must be True, False or None"):
                FieldParams(p=3, f=1, e=2, zeta_in_field=zeta)
        with pytest.raises(ValueError, match="e1 is undefined"):
            CHAR3.e1
        with pytest.raises(ValueError, match="regular case only"):
            P321Z.s

    def test_regular_flag(self):
        assert Q3.regular and not P321Z.regular and not CHAR3.regular


class TestFiltrations:
    def test_upper_regular(self):
        u = upper_filtration(Q3)
        assert list(u.jumps) == [(-1, 1), (1, 1)]
        assert u.total_dim == 2

    def test_upper_zeta(self):
        u = upper_filtration(P321Z)
        assert list(u.jumps) == [(-1, 1), (1, 1), (2, 1), (3, 1)]
        assert u.total_dim == 4

    def test_upper_char_p_truncated(self):
        # The level-5 quotient has the upper breaks b_upper(i) <= 5.
        u = upper_filtration(FieldParams(p=2, f=1, characteristic=2), level=5)
        assert list(u.jumps) == [(-1, 1), (1, 1), (3, 1), (5, 1)]

    def test_lower_regular(self):
        low = lower_filtration(upper_filtration(P321))
        assert list(low.jumps) == [(-1, 1), (1, 1), (4, 1)]

    def test_lower_zeta_extra_jump(self):
        low = lower_filtration(upper_filtration(Q2))
        assert list(low.jumps) == [(-1, 1), (1, 1), (3, 1)]
        deep = lower_filtration(upper_filtration(P321Z))
        assert list(deep.locations) == [-1, 1, 4, 4 + 9]

    def test_lower_char_p_is_complete_quotient(self):
        up = upper_filtration(CHAR3, 5)
        low = lower_filtration(up)
        assert list(low.locations) == [-1, 1, 4, 22, 49]
        assert low.total_dim == up.total_dim == 5

    def test_lower_is_b_lower_in_every_regime(self):
        # The walk over the upper jumps against the closed form b_lower, and
        # the tres ramifiee jump against its own closed form; psi, evaluated
        # at the first, middle and last b_upper(i), lands on b_lower(i).
        sizes = [*range(1, 13), 100, 400, 800]
        for p in (2, 3, 5, 7):
            for f in (1, 2, 3):
                for params, m in _regimes(p, f, sizes, [*range(1, 30), 400, 800]):
                    q = params.q
                    count = params.e if m is None else m - m // p
                    up = upper_filtration(params, m)
                    low = lower_filtration(up)
                    closed = [b_lower(i, p, q) for i in range(1, count + 1)]
                    assert low.jumps[: count + 1] == ((-1, 1), *((b, f) for b in closed))
                    psi = herbrand_psi(up)
                    for i in {1, count // 2 + 1, count}:
                        assert psi(b_upper(i, p)) == closed[i - 1]
                    if params.zeta_in_field and m is None:
                        assert low.jumps[count + 1 :] == ((_tres_lower(params), 1),)
                    else:
                        assert len(low.jumps) == count + 1

    def test_lower_rejects_lower_numbering(self):
        low = lower_filtration(upper_filtration(P321))
        with pytest.raises(ValueError, match="upper-numbering"):
            lower_filtration(low)

    def test_codims_carry_residual_degree(self):
        u = upper_filtration(FieldParams(p=3, f=2, e=2, zeta_in_field=False))
        assert list(u.jumps) == [(-1, 1), (1, 2), (2, 2)]
        low = lower_filtration(u)
        assert sorted(u.codims) == sorted(low.codims)

    def test_dim_at(self):
        u = upper_filtration(P321)
        assert u.dim_at(Fraction(-2)) == 3
        assert u.dim_at(Fraction(-1)) == 3  # group at a break is the larger one
        assert u.dim_at(Fraction(0)) == 2
        assert u.dim_at(Fraction(1)) == 2
        assert u.dim_at(Fraction(3, 2)) == 1
        assert u.dim_at(Fraction(2)) == 1
        assert u.dim_at(Fraction(5, 2)) == 0

    def test_jump_validation(self):
        def upper(jumps):
            return RamificationFiltration(jumps=jumps, p=3, numbering="upper")

        for build in (FilteredSpace, upper):
            for jumps in (((1, 1), (-1, 1)), ((1, 1), (1, 1))):
                with pytest.raises(ValueError, match="strictly increase"):
                    build(jumps)
            with pytest.raises(ValueError, match="codimensions must be positive"):
                build(((1, 1), (2, 0)))
        with pytest.raises(ValueError, match="numbering must be"):
            RamificationFiltration(jumps=((1, 1),), p=3, numbering="middle")
        with pytest.raises(ValueError, match="prime"):
            RamificationFiltration(jumps=((1, 1),), p=4, numbering="upper")


class TestHerbrand:
    def test_psi_identity_up_to_first_break(self):
        psi = herbrand_psi(upper_filtration(Q3))
        for x in (0, Fraction(1, 2), 1):
            assert psi(Fraction(x)) == x

    def test_psi_known_values(self):
        psi = herbrand_psi(upper_filtration(P321))
        assert psi(Fraction(1)) == 1
        assert psi(Fraction(2)) == 4
        big = herbrand_psi(upper_filtration(FieldParams(p=2, f=2, e=2)))
        assert big(Fraction(3)) == 9

    def test_phi_inverts_psi(self):
        up = upper_filtration(P321)
        phi = herbrand_phi(lower_filtration(up))
        assert phi(Fraction(4)) == 2
        psi = herbrand_psi(up)
        for x in range(0, 30):
            u = Fraction(x, 3)
            assert phi(psi(u)) == u
        assert phi == psi.inverse()

    def test_phi_recovers_upper_breaks(self):
        for e in range(1, 5):
            params = FieldParams(p=3, f=1, e=e, zeta_in_field=False)
            phi = herbrand_phi(lower_filtration(upper_filtration(params)))
            for i in range(1, e + 1):
                assert phi(Fraction(b_lower(i, 3, 3))) == b_upper(i, 3)

    def test_psi_slopes_are_group_indices(self):
        psi = herbrand_psi(upper_filtration(FieldParams(p=3, f=2, e=2, zeta_in_field=False)))
        assert list(psi.slopes) == [1, 9, 81]

    def test_wrong_numbering_rejected(self):
        with pytest.raises(ValueError):
            herbrand_psi(lower_filtration(upper_filtration(Q3)))
        with pytest.raises(ValueError):
            herbrand_phi(upper_filtration(Q3))

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("f", [1, 2])
    def test_char_p_quotient_psi_inverts_phi(self, p, f):
        # Upper numbering passes to the level-m quotient, so psi of its upper
        # filtration inverts phi of its lower one.
        params = FieldParams(p=p, f=f, characteristic=p)
        for m in range(1, 13):
            up = upper_filtration(params, m)
            assert herbrand_psi(up) == herbrand_phi(lower_filtration(up)).inverse()

    def test_phi_of_lower_is_inverted_psi_on_a_hand_built_filtration(self):
        upper = RamificationFiltration(jumps=((-1, 1), (1, 1), (3, 2)), p=3, numbering="upper")
        lower = lower_filtration(upper)
        assert lower == RamificationFiltration(
            jumps=((-1, 1), (1, 1), (7, 2)), p=3, numbering="lower"
        )
        assert herbrand_phi(lower) == herbrand_psi(upper).inverse()

    def test_psi_of_a_hand_built_filtration_matches_the_fraction_walk(self):
        upper = RamificationFiltration(jumps=((-1, 1), (1, 1), (3, 2)), p=3, numbering="upper")
        psi = herbrand_psi(upper)
        assert psi == _transition_reference(upper, +1)
        assert psi.breakpoints == ((0, 0), (1, 1), (3, 7)) and psi.slopes == (1, 3, 27)

    def test_char_p_quotient_maps(self):
        phi = herbrand_phi(lower_filtration(upper_filtration(CHAR3, 5)))
        psi = phi.inverse()
        assert psi(Fraction(2)) == 4
        assert psi(Fraction(4)) == 22
        assert phi(Fraction(22)) == 4

    @pytest.mark.parametrize(
        "params",
        [
            FieldParams(p=5, f=2, e=800, zeta_in_field=True),
            FieldParams(p=3, f=1, e=800, zeta_in_field=False),
        ],
        ids=["p5-f2-zeta", "p3-f1-regular"],
    )
    def test_integer_walk_matches_fraction_reference(self, params):
        up = upper_filtration(params)
        psi = herbrand_psi(up)
        assert psi == _transition_reference(up, +1)
        low = lower_filtration(up)
        phi = herbrand_phi(low)
        assert phi == _transition_reference(low, -1)
        for m in (psi, phi):
            assert all(type(v) is Fraction for point in m.breakpoints for v in point)

    def test_non_integral_breakpoint_falls_back_to_fraction(self):
        lower = RamificationFiltration(jumps=((-1, 1), (1, 1), (2, 1)), p=3, numbering="lower")
        phi = herbrand_phi(lower)
        assert phi == _transition_reference(lower, -1)
        assert phi.breakpoints[-1] == (2, Fraction(4, 3))
        assert phi.slopes == (1, Fraction(1, 3), Fraction(1, 9))

    @pytest.mark.parametrize(
        "breakpoints,slopes,message",
        [
            ((), (), r"anchored at \(0, 0\)"),
            (((Fraction(1), Fraction(1)),), (Fraction(1),), r"anchored at \(0, 0\)"),
            (((Fraction(0), Fraction(0)),), (), "one slope per segment"),
            (((Fraction(0), Fraction(0)),), (Fraction(0),), "slopes must be positive"),
            (((Fraction(0), Fraction(0)),), (Fraction(-1),), "slopes must be positive"),
            (((0, 0), (1, 1, 5)), (1, 2), r"an \(x, y\) pair"),
            (((0, 0), (1,)), (1, 2), r"an \(x, y\) pair"),
        ],
    )
    def test_constructor_errors(self, breakpoints, slopes, message):
        with pytest.raises(ValueError, match=message):
            HerbrandMap(breakpoints=breakpoints, slopes=slopes)

    def test_int_map_inverts_and_evaluates_exactly(self):
        psi = HerbrandMap(breakpoints=((0, 0), (1, 1)), slopes=(1, 3))
        phi = psi.inverse()
        assert phi.slopes == (1, Fraction(1, 3))
        assert all(type(s) is Fraction for s in phi.slopes)
        for x in (Fraction(1, 2), 2, 5):
            assert type(psi(x)) is Fraction and type(phi(x)) is Fraction
            assert phi(psi(x)) == x
        assert phi(5) == Fraction(7, 3)

    @pytest.mark.parametrize(
        "breakpoints,slopes",
        [
            (((0, 0), (1.0, 1)), (1, 3)),
            (((0, 0), (1, 1)), (1, 3.0)),
            (((0.0, 0.0),), (1,)),
            (((0, 0),), (True,)),
        ],
    )
    def test_constructor_refuses_floats_and_other_types(self, breakpoints, slopes):
        with pytest.raises(TypeError, match="ints or Fractions"):
            HerbrandMap(breakpoints=breakpoints, slopes=slopes)

    def test_negative_argument(self):
        psi = herbrand_psi(upper_filtration(Q3))
        with pytest.raises(ValueError, match=r"defined on \[0, oo\) only"):
            psi(Fraction(-1, 2))

    def test_breakpoints_must_strictly_increase(self):
        for xs in ((0, 2, 1), (0, 1, 1)):
            with pytest.raises(ValueError, match="strictly increase"):
                HerbrandMap(
                    breakpoints=tuple((Fraction(x), Fraction(x)) for x in xs),
                    slopes=(Fraction(1),) * 3,
                )

    def test_breakpoint_y_must_strictly_increase(self):
        # x increases in each case; only y stalls or falls.
        for ys in ((0, 2, 1), (0, 1, 1), (0, 0, 1)):
            with pytest.raises(ValueError, match="strictly increase"):
                HerbrandMap(
                    breakpoints=tuple(zip((0, 1, 2), map(Fraction, ys))),
                    slopes=(Fraction(1),) * 3,
                )

    def test_inverse_equals_the_checked_swapped_map(self):
        grid_maps = [
            transition(up)
            for up in map(upper_filtration, _char0_grid())
            for transition in (herbrand_psi, lambda up: herbrand_phi(lower_filtration(up)))
        ]
        int_maps = [
            HerbrandMap(breakpoints=((0, 0),), slopes=(1,)),
            HerbrandMap(breakpoints=((0, 0), (1, 1)), slopes=(1, 3)),
            HerbrandMap(breakpoints=((0, 0), (2, 4), (5, 13)), slopes=(2, 3, 25)),
            HerbrandMap(breakpoints=((0, 0), (3, Fraction(3, 2))), slopes=(Fraction(1, 2), 7)),
        ]
        for m in grid_maps + int_maps:
            inverse = m.inverse()
            checked = HerbrandMap(
                breakpoints=tuple((y, x) for x, y in m.breakpoints),
                slopes=tuple(1 / Fraction(s) for s in m.slopes),
            )
            assert inverse == checked
            assert inverse.inverse() == m
            assert all(type(s) is Fraction for s in inverse.slopes)

    def test_inverse_runs_no_fraction_comparison(self, monkeypatch):
        psi = herbrand_psi(upper_filtration(FieldParams(p=5, f=2, e=40, zeta_in_field=True)))

        def refuse(*args):
            raise AssertionError("Fraction comparison")

        monkeypatch.setattr(Fraction, "_richcmp", refuse)
        assert psi.inverse().breakpoints[-1] == psi.breakpoints[-1][::-1]

    @pytest.mark.parametrize("x", [0.1, 2.0, "7/2", True, False, None, Decimal(1)], ids=repr)
    def test_evaluation_refuses_inexact_arguments(self, x):
        psi = herbrand_psi(upper_filtration(FieldParams(p=3, f=1, e=2, zeta_in_field=False)))
        with pytest.raises(TypeError, match="an int or a Fraction"):
            psi(x)
        with pytest.raises(TypeError, match="an int or a Fraction"):
            psi.inverse()(x)


def _transition_reference(filtration, sign):
    """The Herbrand map of a filtration, walked in Fraction arithmetic only."""
    points = [(Fraction(0), Fraction(0))]
    slopes = []
    slope = Fraction(1)
    for loc, codim in filtration.jumps:
        if loc <= 0:
            continue
        x0, y0 = points[-1]
        points.append((Fraction(loc), y0 + slope * (loc - x0)))
        slopes.append(slope)
        slope *= Fraction(filtration.p) ** (sign * codim)
    slopes.append(slope)
    return HerbrandMap(breakpoints=tuple(points), slopes=tuple(slopes))


class TestIndexTable:
    def test_known_tables(self):
        assert index_table(upper_filtration(Q3)) == [(0, 1, 1), (1, None, 3)]
        assert index_table(upper_filtration(P321)) == [(0, 1, 1), (1, 2, 3), (2, None, 9)]
        assert index_table(upper_filtration(P321Z)) == [(0, 1, 1), (1, 2, 3), (2, 3, 9), (3, None, 27)]
        assert index_table(upper_filtration(CHAR3, 4)) == [(0, 1, 1), (1, 2, 3), (2, 4, 9), (4, None, 27)]

    def test_last_column(self):
        params = FieldParams(p=5, f=2, e=3, zeta_in_field=False)
        table = index_table(upper_filtration(params))
        assert table[-1] == (b_upper(3, 5), None, 25**3)

    def test_rows_are_psi_segments_in_every_regime(self):
        for params, m in ALL_REGIMES:
            up = upper_filtration(params, m)
            psi = herbrand_psi(up)
            xs = [x for x, _ in psi.breakpoints] + [None]
            assert index_table(up) == list(zip(xs, xs[1:], psi.slopes))

    def test_rejects_lower_numbering(self):
        with pytest.raises(ValueError, match="upper-numbering"):
            index_table(lower_filtration(upper_filtration(P321)))


def _tres_lower(params):
    """The lower tres ramifiee jump in closed form, b_lower(e) + q^e (p e/(p-1) - b_upper(e)):
    psi has slope q^e past b_upper(e). Kept here as a reference."""
    e, p, q = params.e, params.p, params.q
    return b_lower(e, p, q) + q**e * (p * e // (p - 1) - b_upper(e, p))


def _different_closed(params):
    """The different exponent of a regular field in closed form,
    (1 + b_upper(e)) q^e - (1 + b_lower(e)), kept here as a reference."""
    e, p, q = params.e, params.p, params.q
    return (1 + b_upper(e, p)) * q**e - (1 + b_lower(e, p, q))


class TestDifferent:
    def test_oracle_known_values(self):
        unramified = RamificationFiltration(jumps=((-1, 1),), p=3, numbering="lower")
        assert different_exponent_oracle(unramified) == 0
        assert different_exponent_oracle(lower_filtration(upper_filtration(Q3))) == 4
        assert different_exponent_oracle(lower_filtration(upper_filtration(P321))) == 22

    def test_oracle_rejects_truncated(self):
        # A characteristic-p filtration is its level-m quotient's, which the
        # oracle sums like any other; what it still refuses is upper numbering.
        with pytest.raises(ValueError, match="lower-numbering"):
            different_exponent_oracle(upper_filtration(Q3))
        with pytest.raises(ValueError, match="lower-numbering"):
            different_exponent_oracle(upper_filtration(CHAR3, 5))

    def test_closed_form_known_values(self):
        for params, different in (
            (Q3, 4),
            (P321, 22),
            (FieldParams(p=5, f=1, e=1, zeta_in_field=False), 8),
        ):
            up = upper_filtration(params)
            assert _different_closed(params) == different
            assert different_exponent_oracle(lower_filtration(up)) == different
            assert discriminant_exponent(up) == params.p * different

    def test_closed_form_matches_oracle_on_grid(self):
        # On regular fields the sum is also p times the different's closed form.
        for p in (3, 5, 7):
            for e in range(1, 201):
                for f in range(1, 4):
                    params = FieldParams(p=p, f=f, e=e, zeta_in_field=False)
                    up = upper_filtration(params)
                    closed = _different_closed(params)
                    disc = discriminant_exponent(up)
                    assert disc == p * closed == p * different_exponent_oracle(lower_filtration(up))
        for params, m in ALL_REGIMES:
            up = upper_filtration(params, m)
            disc = discriminant_exponent(up)
            assert disc == params.p * different_exponent_oracle(lower_filtration(up))

    def test_discriminant_known_values(self):
        # The different exponent is the discriminant's over the residue degree p.
        # Q_2 has the quadratic discriminant exponents 0, 2, 2, 3, 3, 3, 3.
        for params, m, disc, different in (
            (Q3, None, 12, 4),
            (P321, None, 66, 22),
            (FieldParams(p=5, f=1, e=1, zeta_in_field=False), None, 40, 8),
            (Q2, None, 16, 8),
            (P321Z, None, 282, 94),
            (CHAR3, 5, 1308, 436),
        ):
            up = upper_filtration(params, m)
            assert discriminant_exponent(up) == disc
            assert disc == params.p * different
            assert different_exponent_oracle(lower_filtration(up)) == different

    def test_rejects_lower_numbering(self):
        with pytest.raises(ValueError, match="upper-numbering"):
            discriminant_exponent(lower_filtration(upper_filtration(P321Z)))
        with pytest.raises(ValueError, match="upper-numbering"):
            discriminant_exponent(lower_filtration(upper_filtration(CHAR3, 5)))


class TestCyclicDiscriminant:
    def test_known_values(self):
        assert cyclic_discriminant(3, b_upper(1, 3)) == 4
        assert cyclic_discriminant(2, b_upper(3, 2)) == 6
        assert cyclic_discriminant(3, b_upper(7, 3)) == 2 * (1 + b_upper(7, 3))
        assert cyclic_discriminant(5, -1) == 0  # unramified

    def test_range_checks(self):
        with pytest.raises(ValueError, match="at least -1"):
            cyclic_discriminant(3, -2)
        with pytest.raises(ValueError, match="prime"):
            cyclic_discriminant(4, 1)

    def test_tres_ramifiee_c_is_pe(self):
        # The tres ramifiee break p*e/(p-1) is the last upper jump; c = d - (p-1) = p*e.
        for params in (P321Z, Q2, FieldParams(p=5, f=2, e=8, zeta_in_field=True)):
            p, e = params.p, params.e
            tres = upper_filtration(params).locations[-1]
            assert tres == p * e // (p - 1)
            assert cyclic_discriminant(p, tres) - (p - 1) == p * e


class TestSpaceModels:
    def test_v_space_known_values(self):
        v = space_model(Q3)
        assert v.total_dim == 2
        assert list(v.jumps) == [(1, 1), (3, 1)]
        v2 = space_model(P321)
        assert v2 == FilteredSpace(((1, 1), (2, 1), (3, 1)))

    def test_v_space_dimension_grid(self):
        for p in (3, 5, 7):
            for e in range(1, 6):
                for f in range(1, 4):
                    params = FieldParams(p=p, f=f, e=e, zeta_in_field=False)
                    assert space_model(params).total_dim == 1 + e * f

    def test_unit_space_known_values(self):
        u = space_model(Q2)
        assert u.total_dim == 3
        assert u == FilteredSpace(((0, 1), (1, 1), (2, 1)))
        u2 = space_model(P321Z)
        assert u2.total_dim == 4
        assert u2 == FilteredSpace(((0, 1), (1, 1), (2, 1), (3, 1)))

    def test_unit_space_char_p(self):
        w = space_model(CHAR3, level=5)
        assert w == FilteredSpace(((-5, 1), (-4, 1), (-2, 1), (-1, 1), (0, 1)))

    def test_dim_at_level(self):
        # The member at an index holds the codims at that index and deeper.
        v = space_model(P321)
        assert [v.dim_at(j) for j in (0, 1, 2, 3, 4)] == [3, 3, 2, 1, 0]


class TestBreakOfLine:
    def test_zeta_case(self):
        space = space_model(P321Z)
        assert break_of_line(space, 3, P321Z) == -1  # depth pe1: unramified
        assert break_of_line(space, 2, P321Z) == 1
        assert break_of_line(space, 1, P321Z) == 2
        assert break_of_line(space, 0, P321Z) == 3

    def test_char_p_case(self):
        # Pole order m is stored as index -m; index 0 is the unramified line.
        space = space_model(CHAR3, level=5)
        assert break_of_line(space, 0, CHAR3) == -1
        assert break_of_line(space, -b_upper(2, 3), CHAR3) == b_upper(2, 3)

    def test_regular_case(self):
        space = space_model(P321)
        assert break_of_line(space, 3, P321) == -1  # the deepest line
        assert break_of_line(space, 2, P321) == 1
        assert break_of_line(space, 1, P321) == 2

    def test_illegal_depth(self):
        space = space_model(P321Z)
        with pytest.raises(ValueError):
            break_of_line(space, 7, P321Z)


class TestOrthogonality:
    def test_known_index(self):
        assert orthogonal_index(Fraction(1), P321) == 3

    def test_top_break(self):
        params = FieldParams(p=5, f=2, e=3, zeta_in_field=False)
        s = params.s
        top = 5 * 3 * s // 4
        be = b_upper(3, 5)
        assert orthogonal_index(Fraction(be), params) == top - be * s + 1

    def test_outside_the_break_range(self):
        # Below the first break the annihilator is the unramified line at
        # index top = 3; past b_upper(e) = 2 it is the whole space.
        assert orthogonal_index(Fraction(-1, 2), P321) == 3
        assert orthogonal_index(Fraction(1, 2), P321) == 3
        assert orthogonal_index(Fraction(5), P321) == -1
        with pytest.raises(ValueError):
            orthogonal_index(Fraction(-2), P321)
        # The other regimes: the unramified line sits at top = 3 with zeta
        # in F, and at 0 in characteristic p, at every level.
        assert orthogonal_index(Fraction(1), P321Z) == 3
        assert orthogonal_index(Fraction(4), P321Z) == 0
        assert orthogonal_index(Fraction(1, 2), CHAR3) == 0
        assert orthogonal_index(Fraction(9), CHAR3) == -8

    @pytest.mark.parametrize("u", [0.5, 2.0, "1", True, Decimal(1)], ids=repr)
    def test_refuses_inexact_arguments(self, u):
        with pytest.raises(TypeError, match="an int or a Fraction"):
            orthogonal_index(u, P321)

    def test_int_argument_equals_its_fraction(self):
        for u in range(0, 6):
            assert orthogonal_index(u, P321) == orthogonal_index(Fraction(u), P321)

    def test_complementarity_at_every_quarter_step(self):
        # The index is total on u > -1: the annihilator's dimension always
        # complements the subgroup's, below, inside and past the break range.
        for params, m in ALL_REGIMES:
            up, space = upper_filtration(params, m), space_model(params, m)
            for k in range(-3, 4 * (up.locations[-1] + 3) + 1):
                u = Fraction(k, 4)
                idx = orthogonal_index(u, params)
                assert up.dim_at(u) + space.dim_at(idx) == up.total_dim


def test_filtered_space_validation():
    # Any increasing jump list builds a space; no regime or label is needed.
    assert FilteredSpace(((-7, 2), (0, 1), (5, 3))).total_dim == 6
    assert FilteredSpace(()).total_dim == 0
    # A filtration is a space with more data, so the two never compare equal.
    jumps = ((-1, 1), (1, 1))
    assert RamificationFiltration(jumps=jumps, p=3, numbering="upper") != FilteredSpace(jumps)
