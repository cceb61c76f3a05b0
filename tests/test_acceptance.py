"""End-to-end acceptance gates.

Each test is one criterion and produces exactly one pass/fail line under
pytest -v. Tolerances and runtime budgets are asserted where stated; all
other comparisons are exact rational equality. Where a criterion is a
cross-check of ramify.verify, the gate calls that check and adds its own
known values; every other check runs once as test_verify_check[<name>].
"""

import pathlib
import time
from fractions import Fraction

import pytest

from ramify.breaks import b_upper, c_truncation
from ramify.cli import run
from ramify.filtration import (
    FieldParams,
    break_of_line,
    discriminant_exponent,
    space_model,
    upper_filtration,
)
from ramify.fpspace import enumerate_lines, full_space
from ramify.mass import (
    average_c_cyclotomic,
    brute_force_mass,
    cyclic_mass,
    lines_with_break_count,
    tres_ramifiee_count,
)
from ramify.verify import (
    CHECKS,
    check_average_consistency,
    check_different_exponent,
    check_idempotency,
    check_mass_brute_vs_closed,
    check_mass_monotone_in_zeta,
    check_orthogonality,
    check_projector_is_eigenspace,
    check_psi_phi_inverse,
    check_shift_eigen,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

TOL = Fraction(1, 10**12)


def test_criterion_01_p2_totality():
    """Degree-2 cyclic extensions carry the whole mass: totals equal 2."""
    start = time.perf_counter()
    q2 = FieldParams(p=2, f=1, e=1, zeta_in_field=True)
    assert cyclic_mass(q2).total == 2
    for f in (1, 2, 3):  # q in {2, 4, 8}
        params = FieldParams(p=2, f=f, characteristic=2)
        assert cyclic_mass(params, b_upper(16, 2)).total == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 0.010, f"took {elapsed:.4f}s, budget 10ms"


def test_criterion_02_char2_series_display():
    """The char-2 row sums (2^{(i-1)f+1}+...+2^{if})/2^{(2i-1)f} are monotone,
    reach 2 within 1e-12 by 64 terms, and each row equals the closed-form
    summand; the closed-form total is exactly 2."""
    for f in (1, 2, 3):
        q = 2**f
        partial = Fraction(0)
        for i in range(1, 65):
            numerator = sum(2**t for t in range((i - 1) * f + 1, i * f + 1))
            term = Fraction(numerator, 2 ** ((2 * i - 1) * f))
            closed_row = Fraction(2, q) * (q - 1) * Fraction(q**i, q ** (2 * i - 1))
            assert term == closed_row
            assert term > 0  # so partial sums strictly increase
            partial += term
        assert abs(2 - partial) < TOL
        assert cyclic_mass(FieldParams(p=2, f=f, characteristic=2), b_upper(16, 2)).total == 2


def _valid_zeta_flags(p, e):
    if p == 2:
        return (True,)
    flags = [False]
    if e % (p - 1) == 0:
        flags.append(True)
    return tuple(flags)


def test_criterion_03_herbrand_consistency():
    """phi inverts psi on a 50-point mesh across the whole small-parameter
    grid; psi(b_upper(i)) == b_lower(i) on that grid is asserted by
    test_verify_check[breaks.b_lower_matches_psi]."""
    start = time.perf_counter()
    check_psi_phi_inverse()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


def test_criterion_04_different_and_discriminant():
    """The conductor-discriminant sum equals p times the order-sum oracle of
    the different; the different is the discriminant over p."""
    check_different_exponent()
    for e, different in ((1, 4), (2, 22)):
        upper = upper_filtration(FieldParams(p=3, f=1, e=e, zeta_in_field=False))
        assert discriminant_exponent(upper) == 3 * different


def _break_histogram(params, space):
    """Count enumerated lines by ramification break, via the space model."""
    coord_index = []
    for index, codim in space.jumps:
        coord_index.extend([index] * codim)
    counts = {}
    for line in enumerate_lines(full_space(params.p, space.total_dim)):
        vec = line.basis[0]
        depth = min(coord_index[k] for k, v in enumerate(vec) if v)
        brk = break_of_line(space, depth, params)
        counts[brk] = counts.get(brk, 0) + 1
    return counts


def test_criterion_05_line_counts_vs_enumeration():
    """Per-break line counts and the deepest-break count match a genuine
    enumeration of all lines of each space model."""
    start = time.perf_counter()
    dim_cap = {2: 10, 3: 7}
    for p in (2, 3):
        for e in range(1, 9):
            for f in range(1, 4):
                for zeta in _valid_zeta_flags(p, e):
                    params = FieldParams(p=p, f=f, e=e, zeta_in_field=zeta)
                    space = space_model(params)
                    if space.total_dim > dim_cap[p]:
                        continue
                    counts = _break_histogram(params, space)
                    assert counts.pop(-1) == 1  # the unramified line
                    for i in range(1, e + 1):
                        got = counts.pop(b_upper(i, p))
                        assert got == lines_with_break_count(params, i)
                    if zeta:
                        top = int(params.p * params.e1)
                        assert counts.pop(top) == tres_ramifiee_count(params)
                    assert counts == {}
        charp = FieldParams(p=p, f=1, characteristic=p)
        for m in (3, 5, 8):
            level_breaks = c_truncation(m, p)
            if 1 + level_breaks > dim_cap[p]:
                continue
            space = space_model(charp, level=m)
            counts = _break_histogram(charp, space)
            assert counts.pop(-1) == 1
            for i in range(1, level_breaks + 1):
                assert counts.pop(b_upper(i, p)) == lines_with_break_count(charp, i)
            assert counts == {}
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s, budget 5s"


def test_criterion_06_brute_force_vs_closed_forms():
    """Enumerated mass equals the closed forms over the whole grid."""
    check_mass_brute_vs_closed()
    q3 = FieldParams(p=3, f=1, e=1, zeta_in_field=False)
    assert brute_force_mass(q3) == Fraction(1, 3)
    q3zeta = FieldParams(p=3, f=1, e=2, zeta_in_field=True)
    assert brute_force_mass(q3zeta) == Fraction(13, 27)


def test_criterion_07_idempotent_suite():
    """epsilon is idempotent, the generator acts on it by omega, and the
    projector route agrees with the kernel route on 200 random reps."""
    check_idempotency()
    check_shift_eigen()
    check_projector_is_eigenspace()


def test_criterion_08_orthogonality_dimension_perfect():
    """At every mesh point the group piece and its orthogonal space piece
    split the full dimension: dim G^u + dim V_index = 1 + ef."""
    check_orthogonality()


def test_criterion_09_average_discriminant():
    """The closed-form average equals the direct weighted sum; 68/13 at p=3."""
    check_average_consistency()
    assert average_c_cyclotomic(3) == Fraction(68, 13)


def test_criterion_10_regular_mass_is_smaller():
    """Fields without the root of unity host a lesser cyclic mass."""
    check_mass_monotone_in_zeta()


def test_criterion_11_cli_golden_files():
    """The three canonical reports are byte-identical to the fixtures."""
    cases = [
        (
            ["report", "--p", "3", "--e", "1", "--f", "1", "--char", "0",
             "--zeta", "out", "--format", "json"],
            "report_p3_e1_f1_regular.json",
        ),
        (
            ["report", "--p", "3", "--e", "2", "--f", "1", "--char", "0",
             "--zeta", "in", "--format", "json"],
            "report_p3_e2_f1_zeta.json",
        ),
        (
            ["report", "--p", "3", "--f", "1", "--char", "p", "--max-index", "8",
             "--m", "5", "--format", "json"],
            "report_p3_f1_charp.json",
        ),
    ]
    import io

    for argv, fixture in cases:
        out = io.StringIO()
        assert run(argv, out=out, err=io.StringIO()) == 0
        assert out.getvalue() == (GOLDEN / fixture).read_text()


# The checks the gates above call; each other check is a test of its own.
GATED = {
    check_psi_phi_inverse,
    check_different_exponent,
    check_mass_brute_vs_closed,
    check_idempotency,
    check_shift_eigen,
    check_projector_is_eigenspace,
    check_orthogonality,
    check_average_consistency,
    check_mass_monotone_in_zeta,
}


@pytest.mark.parametrize(
    "check", [pytest.param(check, id=name) for name, check in CHECKS if check not in GATED]
)
def test_verify_check(check):
    check()
