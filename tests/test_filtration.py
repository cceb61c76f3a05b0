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
    different_exponent_closed,
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

Q3 = FieldParams(p=3, f=1, e=1, zeta_in_field=False)
Q2 = FieldParams(p=2, f=1, e=1, zeta_in_field=True)
P321 = FieldParams(p=3, f=1, e=2, zeta_in_field=False)
P321Z = FieldParams(p=3, f=1, e=2, zeta_in_field=True)
CHAR3 = FieldParams(p=3, f=1, characteristic=3)


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
        low = lower_filtration(P321)
        assert list(low.jumps) == [(-1, 1), (1, 1), (4, 1)]

    def test_lower_zeta_extra_jump(self):
        low = lower_filtration(Q2)
        assert list(low.jumps) == [(-1, 1), (1, 1), (3, 1)]
        deep = lower_filtration(P321Z)
        assert list(deep.locations) == [-1, 1, 4, 4 + 9]

    def test_lower_char_p_is_complete_quotient(self):
        low = lower_filtration(CHAR3, level=5)
        assert list(low.locations) == [-1, 1, 4, 22, 49]
        assert low.total_dim == upper_filtration(CHAR3, 5).total_dim == 5

    @pytest.mark.parametrize(
        "params,m",
        [
            (FieldParams(p=5, f=2, e=800, zeta_in_field=False), None),
            (FieldParams(p=5, f=2, e=800, zeta_in_field=True), None),
            (FieldParams(p=5, f=2, characteristic=5), 800),
        ],
    )
    def test_lower_breaks_match_closed_form_and_psi_at_scale(self, params, m):
        p, q = params.p, params.q
        low = lower_filtration(params, m)
        up = upper_filtration(params, m)
        count = params.e if m is None else m - m // p
        closed = [b_lower(i, p, q) for i in range(1, count + 1)]
        assert list(low.locations[1 : count + 1]) == closed
        psi = herbrand_psi(up)
        assert [psi(b_upper(i, p)) for i in range(1, count + 1)] == closed
        if params.zeta_in_field and m is None:
            assert low.locations[-1] == closed[-1] + q**count
        else:
            assert len(low.locations) == count + 1

    def test_codims_carry_residual_degree(self):
        u = upper_filtration(FieldParams(p=3, f=2, e=2, zeta_in_field=False))
        assert list(u.jumps) == [(-1, 1), (1, 2), (2, 2)]
        low = lower_filtration(FieldParams(p=3, f=2, e=2, zeta_in_field=False))
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
        phi = herbrand_phi(lower_filtration(P321))
        assert phi(Fraction(4)) == 2
        psi = herbrand_psi(upper_filtration(P321))
        for x in range(0, 30):
            u = Fraction(x, 3)
            assert phi(psi(u)) == u
        assert phi == psi.inverse()

    def test_phi_recovers_upper_breaks(self):
        for e in range(1, 5):
            params = FieldParams(p=3, f=1, e=e, zeta_in_field=False)
            phi = herbrand_phi(lower_filtration(params))
            for i in range(1, e + 1):
                assert phi(Fraction(b_lower(i, 3, 3))) == b_upper(i, 3)

    def test_psi_slopes_are_group_indices(self):
        psi = herbrand_psi(upper_filtration(FieldParams(p=3, f=2, e=2, zeta_in_field=False)))
        assert list(psi.slopes) == [1, 9, 81]

    def test_wrong_numbering_rejected(self):
        with pytest.raises(ValueError):
            herbrand_psi(lower_filtration(Q3))
        with pytest.raises(ValueError):
            herbrand_phi(upper_filtration(Q3))

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("f", [1, 2])
    def test_char_p_quotient_psi_inverts_phi(self, p, f):
        # Upper numbering passes to the level-m quotient, so psi of its upper
        # filtration inverts phi of its lower one.
        params = FieldParams(p=p, f=f, characteristic=p)
        for m in range(1, 13):
            psi = herbrand_psi(upper_filtration(params, m))
            assert psi == herbrand_phi(lower_filtration(params, m)).inverse()

    def test_char_p_quotient_maps(self):
        phi = herbrand_phi(lower_filtration(CHAR3, level=5))
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
        psi = herbrand_psi(upper_filtration(params))
        assert psi == _transition_reference(upper_filtration(params), +1)
        phi = herbrand_phi(lower_filtration(params))
        assert phi == _transition_reference(lower_filtration(params), -1)
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
        ],
    )
    def test_constructor_errors(self, breakpoints, slopes, message):
        with pytest.raises(ValueError, match=message):
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
        assert index_table(Q3) == [(0, 1, 1), (1, None, 3)]
        assert index_table(P321) == [(0, 1, 1), (1, 2, 3), (2, None, 9)]

    def test_last_column(self):
        params = FieldParams(p=5, f=2, e=3, zeta_in_field=False)
        table = index_table(params)
        assert table[-1] == (b_upper(3, 5), None, 25**3)

    def test_rejects_non_regular(self):
        with pytest.raises(ValueError, match="regular"):
            index_table(P321Z)


class TestDifferent:
    def test_oracle_known_values(self):
        unramified = RamificationFiltration(jumps=((-1, 1),), p=3, numbering="lower")
        assert different_exponent_oracle(unramified) == 0
        assert different_exponent_oracle(lower_filtration(Q3)) == 4
        assert different_exponent_oracle(lower_filtration(P321)) == 22

    def test_oracle_rejects_truncated(self):
        # A characteristic-p filtration is its level-m quotient's, which the
        # oracle sums like any other; what it still refuses is upper numbering.
        with pytest.raises(ValueError, match="lower-numbering"):
            different_exponent_oracle(upper_filtration(Q3))
        with pytest.raises(ValueError, match="lower-numbering"):
            different_exponent_oracle(upper_filtration(CHAR3, 5))

    def test_closed_form_known_values(self):
        assert different_exponent_closed(Q3) == 4
        assert different_exponent_closed(P321) == 22
        assert different_exponent_closed(FieldParams(p=5, f=1, e=1, zeta_in_field=False)) == 8

    def test_closed_form_matches_oracle_on_grid(self):
        for p in (3, 5, 7):
            for e in range(1, 201):
                for f in range(1, 4):
                    params = FieldParams(p=p, f=f, e=e, zeta_in_field=False)
                    assert different_exponent_closed(params) == different_exponent_oracle(
                        lower_filtration(params)
                    )

    def test_discriminant_known_values(self):
        assert discriminant_exponent(Q3) == 12
        assert discriminant_exponent(P321) == 66
        assert discriminant_exponent(FieldParams(p=5, f=1, e=1, zeta_in_field=False)) == 40

    def test_regular_only(self):
        with pytest.raises(ValueError):
            different_exponent_closed(P321Z)
        with pytest.raises(ValueError):
            discriminant_exponent(CHAR3)


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
        with pytest.raises(ValueError, match="regular case only"):
            orthogonal_index(Fraction(1), P321Z)

    def test_complementarity_at_every_quarter_step(self):
        # The index is total on u > -1: the annihilator's dimension always
        # complements the subgroup's, below, inside and past the break range.
        for p in (3, 5, 7):
            for e in range(1, 7):
                for f in range(1, 4):
                    params = FieldParams(p=p, f=f, e=e, zeta_in_field=False)
                    up, space = upper_filtration(params), space_model(params)
                    for k in range(-3, 4 * (b_upper(e, p) + 3) + 1):
                        u = Fraction(k, 4)
                        idx = orthogonal_index(u, params)
                        assert up.dim_at(u) + space.dim_at(idx) == 1 + e * f


def test_filtered_space_validation():
    # Any increasing jump list builds a space; no regime or label is needed.
    assert FilteredSpace(((-7, 2), (0, 1), (5, 3))).total_dim == 6
    assert FilteredSpace(()).total_dim == 0
    # A filtration is a space with more data, so the two never compare equal.
    jumps = ((-1, 1), (1, 1))
    assert RamificationFiltration(jumps=jumps, p=3, numbering="upper") != FilteredSpace(jumps)
