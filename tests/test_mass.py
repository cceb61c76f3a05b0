import ast
import math
from fractions import Fraction
from itertools import product

import pytest

from ramify import mass
from ramify.breaks import b_upper, c_truncation
from ramify.filtration import (
    FieldParams,
    break_of_line,
    space_model,
    upper_filtration,
)
from ramify.fpspace import count_lines
from ramify.mass import (
    average_c_closed_form,
    average_c_cyclotomic,
    brute_force_mass,
    cyclic_mass,
    lines_with_break_count,
    series_value,
    tres_ramifiee_count,
)
from ramify.cli import _ratio
from ramify.mass import _mass_walk
from ramify.verify import _char_p_levels, _mass_char0_grid
from test_filtration import ALL_REGIMES

Q3 = FieldParams(p=3, f=1, e=1, zeta_in_field=False)
Q2 = FieldParams(p=2, f=1, e=1, zeta_in_field=True)
P321Z = FieldParams(p=3, f=1, e=2, zeta_in_field=True)
CHAR3 = FieldParams(p=3, f=1, characteristic=3)


class TestLineCounts:
    def test_known_values(self):
        assert lines_with_break_count(Q3, 1) == 3
        assert lines_with_break_count(Q2, 1) == 2
        assert lines_with_break_count(FieldParams(p=3, f=2, e=2, zeta_in_field=False), 2) == 108

    def test_matches_nested_space_difference(self):
        """Count at break i = lines of the level-i space minus lines one level
        down: dims 1+if and 1+(i-1)f in the regular picture."""
        for p, f in ((3, 1), (3, 2), (2, 2)):
            params = FieldParams(p=p, f=f, e=4 if p == 3 else 4, zeta_in_field=(p == 2))
            for i in range(1, 5):
                expected = count_lines(1 + i * f, p) - count_lines(1 + (i - 1) * f, p)
                assert lines_with_break_count(params, i) == expected

    def test_range_checks(self):
        with pytest.raises(ValueError):
            lines_with_break_count(Q3, 0)
        with pytest.raises(ValueError):
            lines_with_break_count(Q3, 2)
        assert lines_with_break_count(CHAR3, 40) > 0  # any i >= 1 in char p


class TestTresRamifieeCount:
    def test_known_values(self):
        assert tres_ramifiee_count(Q2) == 4
        assert tres_ramifiee_count(P321Z) == 27

    def test_matches_space_difference(self):
        for params in (Q2, P321Z, FieldParams(p=2, f=2, e=2)):
            p, q, e, f = params.p, params.q, params.e, params.f
            expected = count_lines(2 + e * f, p) - count_lines(1 + e * f, p)
            assert tres_ramifiee_count(params) == expected == p * q**e

    def test_undefined_cases(self):
        with pytest.raises(ValueError, match="no tres ramifiee"):
            tres_ramifiee_count(Q3)
        with pytest.raises(ValueError):
            tres_ramifiee_count(CHAR3)


class TestSeriesValue:
    @pytest.mark.parametrize("q", [2, 4, 8, 16])
    def test_p2_closed_form(self, q):
        assert series_value(2, q) == Fraction(q, q - 1)

    def test_known_value(self):
        assert series_value(3, 3) == Fraction(9, 20)

    @pytest.mark.parametrize("p,q", [(3, 3), (3, 9), (5, 5)])
    def test_partial_sums_converge(self, p, q):
        target = series_value(p, q)
        partial = Fraction(0)
        prev = Fraction(-1)
        for i in range(1, 201):
            term = Fraction(q**i, q ** ((p - 1) * b_upper(i, p)))
            partial += term
            assert partial > prev
            prev = partial
        assert abs(target - partial) < Fraction(1, 10**12)

    @pytest.mark.parametrize("p,q", [(2, 2), (3, 3), (3, 9), (5, 5), (7, 7)])
    def test_finite_sum_self_consistency(self, p, q):
        lhs = series_value(p, q) * (1 - Fraction(1, q ** ((p - 1) ** 2)))
        rhs = sum(Fraction(1, q ** ((p - 2) * j)) for j in range(1, p))
        assert lhs == rhs

    @pytest.mark.parametrize(
        "p,q,message",
        [
            (4, 16, "p must be a prime"),
            (3, 6, "q must be a power of p"),
            (3, 1, "q must be a power of p"),
        ],
    )
    def test_rejects_invalid_p_and_q(self, p, q, message):
        with pytest.raises(ValueError, match=message):
            series_value(p, q)


class TestClosedFormMasses:
    def test_char_p_totals(self):
        # The total is the whole series, whatever level lists the rows.
        assert cyclic_mass(FieldParams(p=2, f=1, characteristic=2), b_upper(16, 2)).total == 2
        assert cyclic_mass(FieldParams(p=2, f=3, characteristic=2), b_upper(16, 2)).total == 2
        assert cyclic_mass(CHAR3, b_upper(16, 3)).total == Fraction(9, 20)
        assert cyclic_mass(CHAR3, 1).total == Fraction(9, 20)

    def test_zeta_totals(self):
        assert cyclic_mass(Q2).total == 2
        assert cyclic_mass(P321Z).total == Fraction(13, 27)

    def test_regular_totals(self):
        assert cyclic_mass(Q3).total == Fraction(1, 3)
        assert cyclic_mass(FieldParams(p=3, f=1, e=2, zeta_in_field=False)).total == Fraction(4, 9)

    def test_dispatcher_routes_each_case(self):
        """Each regime gets its own rows, deepest-break term and total."""
        regular = cyclic_mass(FieldParams(p=3, f=1, e=2, zeta_in_field=False))
        assert len(regular.per_break) == 2 and regular.tres_ramifiee is None
        zeta = cyclic_mass(P321Z)
        assert len(zeta.per_break) == 2
        assert zeta.tres_ramifiee == (tres_ramifiee_count(P321Z), Fraction(3, 3 ** (2 * 2)))
        char_p = cyclic_mass(CHAR3, b_upper(5, 3))
        assert len(char_p.per_break) == 5 and char_p.tres_ramifiee is None
        assert char_p.total == Fraction(3, 3) * Fraction(2, 2) * series_value(3, 3)
        with pytest.raises(ValueError, match="needs a positive truncation index"):
            cyclic_mass(CHAR3, 0)

    def test_report_bookkeeping(self):
        rep = cyclic_mass(P321Z)
        assert rep.total == sum(c for *_, c in rep.per_break) + rep.tres_ramifiee[1]
        assert rep.fraction_of_serre_total == rep.total / 3
        reg = cyclic_mass(Q3)
        assert reg.tres_ramifiee is None
        assert reg.total == sum(c for *_, c in reg.per_break)

    def test_per_break_row_identity(self):
        """Row value = count * q^{-(p-1)b}, and that equals the summand
        (p/q)((q-1)/(p-1)) q^{i-(p-1)b} of the closed form."""
        for params, level in (
            (Q3, None),
            (P321Z, None),
            (FieldParams(p=5, f=2, e=3, zeta_in_field=False), None),
            (CHAR3, b_upper(16, 3)),
        ):
            p, q = params.p, params.q
            rep = cyclic_mass(params, level)
            for i, b, count, contribution in rep.per_break:
                assert b == b_upper(i, p)
                assert count == lines_with_break_count(params, i)
                assert contribution == Fraction(count, q ** ((p - 1) * b))
                assert contribution == (
                    Fraction(p, q)
                    * Fraction(q - 1, p - 1)
                    * Fraction(q**i, q ** ((p - 1) * b))
                )

    def test_cli_rows_are_the_closed_form_in_lowest_terms(self):
        # The CLI prints the walk's n and den as they are, so each row's n/den
        # must be in lowest terms and equal count / q^c.
        for params, level in ALL_REGIMES:
            p, q = params.p, params.q
            rows, tres, total = _mass_walk(params, level, _ratio)
            rep = cyclic_mass(params, level)
            assert len(rows) == len(rep.per_break)
            for (i, b, count, (n, den)), row in zip(rows, rep.per_break):
                assert math.gcd(n, den) == 1 and den > 0
                assert (i, b, count, Fraction(n, den)) == row
                assert Fraction(n, den) == Fraction(count, q ** ((p - 1) * b))
            if tres is None:
                assert rep.tres_ramifiee is None
            else:
                count, (n, den) = tres
                assert math.gcd(n, den) == 1
                assert (count, Fraction(n, den)) == rep.tres_ramifiee
                assert count == tres_ramifiee_count(params)
                assert Fraction(n, den) == Fraction(count, q ** ((p - 1) * (p * params.e // (p - 1))))
            assert total == rep.total

    def test_char_p_level_rows_vs_exact_total(self):
        rep = cyclic_mass(CHAR3, b_upper(4, 3))
        assert len(rep.per_break) == 4
        partial = sum(c for *_, c in rep.per_break)
        assert partial < rep.total == Fraction(9, 20)

    def test_totals_bounded_by_degree(self):
        for params in (Q3, Q2, P321Z, CHAR3, FieldParams(p=5, f=2, e=4, zeta_in_field=True)):
            total = cyclic_mass(params, b_upper(16, 3) if params is CHAR3 else None).total
            assert 0 < total <= params.p
            assert (total == params.p) == (params.p == 2)


class TestAverage:
    def test_known_value(self):
        assert average_c_cyclotomic(3) == Fraction(68, 13)
        assert average_c_closed_form(3) == Fraction(68, 13)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_cross_multiplied_integer_identity(self, p):
        closed = average_c_closed_form(p)
        assert closed * (p**p - 1) == p ** (p + 2) - p ** (p + 1) - p**p + 1

    def test_peu_only_branch(self):
        got = average_c_cyclotomic(3, peu_only=True)
        assert got == Fraction(2 * 1 * 3 + 2 * 2 * 9, 3 + 9)

    def test_p2_excluded(self):
        with pytest.raises(ValueError, match="odd"):
            average_c_cyclotomic(2)


class TestRemarkReconciliation:
    """Cross-check (not an invariant): over the p-th cyclotomic field of the
    p-adics, e = p-1 and f = 1, the peu row at break index i has p^i lines
    with c = (p-1)i, the tres row behaves as i = p, and the weighted average
    over all rows equals average_c_cyclotomic."""

    @pytest.mark.parametrize("p", [3, 5])
    def test_row_counts_and_average(self, p):
        params = FieldParams(p=p, f=1, e=p - 1, zeta_in_field=True)
        rep = cyclic_mass(params)
        weighted = Fraction(0)
        total_count = 0
        for i, b, count, _ in rep.per_break:
            assert count == p**i
            assert (p - 1) * b == (p - 1) * i  # c(L) = (p-1)i since b_upper(i)=i here
            weighted += (p - 1) * i * count
            total_count += count
        tres_count, _ = rep.tres_ramifiee
        assert tres_count == p**p
        weighted += p * (p - 1) * tres_count  # c = pe = p(p-1), the i = p row
        total_count += tres_count
        assert Fraction(weighted, total_count) == average_c_cyclotomic(p)


class TestBruteForce:
    def test_known_values(self):
        assert brute_force_mass(Q3) == Fraction(1, 3)
        assert brute_force_mass(Q2) == 2
        assert brute_force_mass(P321Z) == Fraction(13, 27)

    def test_char_p_partial_sum(self):
        level = 5
        got = brute_force_mass(CHAR3, level)
        report = cyclic_mass(CHAR3, level)
        assert len(report.per_break) == c_truncation(level, 3)
        assert got == sum(c for *_, c in report.per_break)
        assert got < report.total

    def test_char_p_needs_level(self):
        # The four models of a field read the level alike: characteristic p
        # needs a positive one, and characteristic 0 takes none.
        models = (upper_filtration, space_model, brute_force_mass, cyclic_mass)
        for model in models:
            for level in (None, 0, -2):
                with pytest.raises(ValueError, match="needs a positive truncation index"):
                    model(CHAR3, level)
            with pytest.raises(ValueError, match="level applies to characteristic p only"):
                model(Q3, level=3)

    def test_enumeration_guard(self):
        # Both models have 21 jumps, one past the walk's bound; each is
        # refused before the walk starts.
        with pytest.raises(ValueError, match="enumeration too large"):
            brute_force_mass(FieldParams(p=3, f=1, e=20, zeta_in_field=False))
        with pytest.raises(ValueError, match="enumeration too large"):
            brute_force_mass(FieldParams(p=2, f=1, characteristic=2), 40)
        # 7 jumps but dimension 13: within the bound, though 7^13 > 10^7.
        big = FieldParams(p=7, f=2, e=6, zeta_in_field=False)
        assert brute_force_mass(big) == cyclic_mass(big).total

    def test_block_walk_equals_closed_forms(self):
        """The block walk reproduces the characteristic-0 totals for
        p <= 7, f <= 3, e <= 12, and the characteristic-p partial sums at
        every level whose model has at most 14 jumps, and so do the rows of
        cyclic_mass at that level. The characteristic-0 row counts are the
        closed counts."""
        fields = [
            FieldParams(p=p, f=f, e=e, zeta_in_field=zeta)
            for p in (2, 3, 5, 7)
            for f in (1, 2, 3)
            for e in range(1, 13)
            for zeta in (False, True)
            if (p != 2 or zeta) and (not zeta or e % (p - 1) == 0)
        ]
        assert len(fields) == 177
        for params in fields:
            report = cyclic_mass(params)
            assert brute_force_mass(params) == report.total
            for i, _, count, _ in report.per_break:
                assert count == lines_with_break_count(params, i)
            if params.zeta_in_field:
                assert report.tres_ramifiee[0] == tres_ramifiee_count(params)
        levels = 0
        for p in (2, 3, 5, 7):
            for f in (1, 2, 3):
                params = FieldParams(p=p, f=f, characteristic=p)
                q = params.q
                m = 1
                while c_truncation(m, p) < 14:
                    expected = Fraction(p * (q - 1), q * (p - 1)) * sum(
                        Fraction(q**i, q ** ((p - 1) * b_upper(i, p)))
                        for i in range(1, c_truncation(m, p) + 1)
                    )
                    assert brute_force_mass(params, m) == expected
                    rows = cyclic_mass(params, m).per_break
                    assert sum(c for *_, c in rows) == expected
                    levels += 1
                    m += 1
        assert levels == 228

    def test_support_walk_equals_per_vector_walk(self):
        """On every case of the two mass checks of ramify.verify with
        p^dim <= 10^5, walking the supports of jump blocks gives the
        per-vector sum."""
        cases = [(params, None) for params in _mass_char0_grid()] + list(_char_p_levels())
        compared = 0
        for params, level in cases:
            if params.p ** space_model(params, level).total_dim <= 10**5:
                assert brute_force_mass(params, level) == _per_vector_mass(params, level)
                compared += 1
        assert compared == 39


def _per_vector_mass(params, level=None):
    """Reference mass oracle: every canonical line representative (first
    nonzero coordinate 1) of the space model, one by one: p^dim steps."""
    space = space_model(params, level=level)
    p, q = params.p, params.q
    coord_index = []
    for idx, codim in reversed(space.jumps):
        coord_index.extend([idx] * codim)
    contribution_at = {}
    for idx in space.locations:
        brk = break_of_line(space, idx, params)
        contribution_at[idx] = Fraction(0) if brk == -1 else Fraction(1, q ** ((p - 1) * brk))
    dim = len(coord_index)
    total = Fraction(0)
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


def test_mass_imports_nothing_from_fpspace():
    """mass reads no fpspace name, and from breaks only the validators, so
    that breaks reach the mass through the filtration. test_cli's
    fresh-interpreter check sees that a mass command leaves fpspace
    unloaded; this pins the names mass takes, which that check cannot."""
    with open(mass.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported and not [name for name in imported if "fpspace" in name.split(".")]
    from_breaks = {name for name in imported if name.startswith("breaks.")}
    assert from_breaks == {"breaks._check_prime", "breaks._check_q"}
