"""Self-contained invariant checks, runnable without a test harness.

Each check exercises one published identity of the package against an
independent route (enumeration, piecewise-linear evaluation, partial sums,
random representations from a seeded generator). The CLI's verify subcommand
runs them all and prints one PASS/FAIL line per check.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import Callable

from . import breaks, fpspace, mass
from .rationals import geometric_sum_finite
from .filtration import (
    FieldParams,
    different_exponent_closed,
    different_exponent_oracle,
    herbrand_phi,
    herbrand_psi,
    index_table,
    lower_filtration,
    orthogonal_index,
    space_model,
    upper_filtration,
)

__all__ = ["CHECKS", "run_all"]


@functools.cache
def _char0_grid(ps=(2, 3, 5), es=range(1, 7), fs=range(1, 4)):
    """All valid characteristic-0 parameter sets over the given ranges.

    Built once per argument set (eight checks read it); FieldParams are frozen.
    """
    out = []
    for p in ps:
        for e in es:
            for f in fs:
                if p != 2:
                    out.append(FieldParams(p=p, f=f, e=e, zeta_in_field=False))
                if e % (p - 1) == 0:
                    out.append(FieldParams(p=p, f=f, e=e, zeta_in_field=True))
    return tuple(out)


def _regular_grid(es, fs):
    """The regular (zeta_p not in F) fields with p in {3, 5, 7} over the given ranges."""
    return [FieldParams(p=p, f=f, e=e, zeta_in_field=False) for p in (3, 5, 7) for e in es for f in fs]


def _mass_char0_grid():
    """The characteristic-0 fields of the mass checks."""
    return _char0_grid(es=range(1, 5), fs=(1, 2))


def _char_p_levels():
    """(field, level m) of the characteristic-p partial-sum check."""
    for p, f in ((2, 1), (2, 2), (3, 1), (5, 1)):
        for m in (3, 7, 11):
            yield FieldParams(p=p, f=f, characteristic=p), m


def _enumerable(params: FieldParams, level=None) -> bool:
    """Whether brute_force_mass accepts the space model of these fields."""
    dim = space_model(params, level).total_dim
    return params.p**dim <= fpspace.LINE_ENUMERATION_BOUND


def _characters():
    """(p, m, w): p in {3, 5, 7, 13}, every m | p - 1, every w of order m mod p."""
    for p in (3, 5, 7, 13):
        for m in range(1, p):
            if (p - 1) % m:
                continue
            for w in range(1, p):
                if fpspace.multiplicative_order(w, p) == m:
                    yield p, m, w


def check_break_bijection() -> None:
    """b_upper enumerates exactly the prime-to-p positive integers, in order."""
    for p in (2, 3, 5, 7):
        values = [breaks.b_upper(i, p) for i in range(1, 10001)]
        assert values == [n for n in range(1, values[-1] + 1) if n % p]


def check_b_lower_closed_form() -> None:
    """The b_lower closed form agrees with psi of the ambient filtration,
    at e = 30 and for every valid char-0 field of the small grid."""
    deep = [FieldParams(p=p, f=f, e=30, zeta_in_field=p == 2) for p in (2, 3, 5) for f in (1, 2)]
    for params in [*deep, *_char0_grid()]:
        psi = herbrand_psi(upper_filtration(params))
        for i in range(1, params.e + 1):
            assert psi(breaks.b_upper(i, params.p)) == breaks.b_lower(i, params.p, params.q)


def check_break_sequence_consistency() -> None:
    """Incremental tabulation equals the closed form, row by row."""
    for p, f in ((2, 1), (3, 1), (3, 2), (5, 1)):
        q = p**f
        rows = breaks.break_sequence(p, q, 40)
        assert len(rows) == 40
        for i, a, bu, bl in rows:
            assert a == breaks.a_of(i, p)
            assert bu == breaks.b_upper(i, p)
            assert bl == breaks.b_lower(i, p, q)


def check_c_truncation() -> None:
    """c is nondecreasing, steps by p-1 over each p-block, counts non-multiples."""
    for p in (2, 3, 5, 7):
        prev = 0
        for m in range(0, 500):
            c = breaks.c_truncation(m, p)
            assert c == sum(1 for n in range(1, m + 1) if n % p)
            assert c >= prev
            prev = c
            assert breaks.c_truncation(m + p, p) == c + p - 1


def check_geometric_identities() -> None:
    """The finite geometric sum satisfies its defining identity."""
    rng = random.Random(20260816)
    for _ in range(100):
        num = rng.randint(-(10**6), 10**6)
        den = rng.randint(1, 10**6)
        x = Fraction(num, den)
        n = rng.randint(0, 50)
        assert geometric_sum_finite(x, n) * (1 - x) == 1 - x**n


def check_idempotency() -> None:
    """eps * eps = eps for every p in {3,5,7,13}, every m | p-1, every character."""
    for p, m, w in _characters():
        eps = fpspace.idempotent(p, m, w)
        assert fpspace.convolve(eps, eps) == eps


def check_shift_eigen() -> None:
    """Multiplying eps by the group generator scales it by omega(generator)."""
    for p, m, w in _characters():
        eps = fpspace.idempotent(p, m, w)
        shifted = eps.coeffs[-1:] + eps.coeffs[:-1]
        scaled = tuple((w * c) % p for c in eps.coeffs)
        assert shifted == scaled


def _random_rep(
    rng: random.Random, p: int, m: int, omega_gen: int, n: int
) -> fpspace.FpMatrix:
    """Random M = P D P^-1 with D diagonal of m-th roots of unity mod p."""
    diag = [pow(omega_gen, rng.randrange(m), p) for _ in range(n)]
    d = fpspace.FpMatrix(p, [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if len(fpspace.rref(p, rows)) == n:
            break
    pm = fpspace.FpMatrix(p, rows)
    return fpspace.mat_mul(fpspace.mat_mul(pm, d), fpspace.mat_inverse(pm))


def check_projector_is_eigenspace() -> None:
    """apply_idempotent lands on eigenspace(M, omega_gen) for random reps."""
    rng = random.Random(1729)
    first_w: dict[tuple[int, int], int] = {}
    for p, m, w in _characters():
        first_w.setdefault((p, m), w)
    reps_per_combo = -(-200 // len(first_w))  # ceil; at least 200 total
    for (p, m), w in first_w.items():
        eps = fpspace.idempotent(p, m, w)
        for _ in range(reps_per_combo):
            n = rng.randint(1, 5)
            rep = _random_rep(rng, p, m, w, n)
            assert fpspace.apply_idempotent(eps, rep) == fpspace.eigenspace(rep, w)


def check_line_counts() -> None:
    """enumerate_lines agrees with count_lines and contains no duplicates."""
    for p, max_dim in ((2, 10), (3, 7)):
        for dim in range(0, max_dim + 1):
            ambient = fpspace.full_space(p, dim)
            lines = fpspace.enumerate_lines(ambient)
            assert len(lines) == fpspace.count_lines(dim, p)
            assert len(set(lines)) == len(lines)
            assert all(line.dim == 1 for line in lines)


def check_psi_phi_inverse() -> None:
    """phi(psi(x)) = x exactly on a mesh, for every valid char-0 field."""
    for params in _char0_grid():
        psi = herbrand_psi(upper_filtration(params))
        phi = herbrand_phi(lower_filtration(params))
        top = psi.breakpoints[-1][0] + 2
        for k in range(50):
            x = Fraction(k * top, 49) if k else Fraction(0)
            assert phi(psi(x)) == x


def check_phi_matches_inverted_psi() -> None:
    """herbrand_phi is structurally the inverse map of herbrand_psi."""
    for params in _char0_grid():
        psi = herbrand_psi(upper_filtration(params))
        phi = herbrand_phi(lower_filtration(params))
        assert phi == psi.inverse()


def check_different_exponent() -> None:
    """Closed form = lower-numbering summation oracle on the regular grid."""
    for params in _regular_grid(es=range(1, 9), fs=range(1, 4)):
        closed = different_exponent_closed(params)
        assert closed == different_exponent_oracle(lower_filtration(params))


def check_dimension_bookkeeping() -> None:
    """Codim sums, codim multisets, and space dimensions all agree."""
    for params in _char0_grid():
        up = upper_filtration(params)
        low = lower_filtration(params)
        expected = (2 if params.zeta_in_field else 1) + params.e * params.f
        assert up.total_dim == low.total_dim == expected
        assert sorted(up.codims) == sorted(low.codims)
        assert space_model(params).total_dim == expected


def check_upper_jumps_avoid_p() -> None:
    """No positive upper jump is divisible by p, except the top zeta jump."""
    for params in _char0_grid():
        up = upper_filtration(params)
        positive = [loc for loc in up.locations if loc > 0]
        if params.zeta_in_field:
            top = positive.pop()
            assert top == params.p * params.e1
        assert all(loc % params.p for loc in positive)


def check_index_table() -> None:
    """Index table matches the filtration's own dim_at on interval samples."""
    for params in _regular_grid(es=range(1, 7), fs=range(1, 3)):
        up = upper_filtration(params)
        inertia_dim = up.dim_at(Fraction(1, 2))
        for lo, hi, index in index_table(params):
            # The group AT a break is the larger one, so hi probes
            # the half-open interval ]lo, hi] correctly.
            probe = Fraction(hi) if hi is not None else Fraction(lo + 1)
            assert params.p ** (inertia_dim - up.dim_at(probe)) == index


def check_orthogonality() -> None:
    """Annihilator dimensions complement subgroup dimensions exactly."""
    for params in _regular_grid(es=range(1, 7), fs=range(1, 4)):
        up = upper_filtration(params)
        space = space_model(params)
        top_break = breaks.b_upper(params.e, params.p)
        mesh = [1 + Fraction(k * (top_break - 1), 19) for k in range(20)]
        mesh += [Fraction(k, 4) for k in range(4, 4 * top_break + 1)]
        # Below the first break and past the last one.
        mesh += [Fraction(-1, 2), Fraction(1, 2), Fraction(top_break + 1)]
        for u in mesh:
            idx = orthogonal_index(u, params)
            assert up.dim_at(u) + space.dim_at(idx) == 1 + params.e * params.f


def check_mass_brute_vs_closed() -> None:
    """Enumerated mass equals the closed forms on the full small grid."""
    for params in _mass_char0_grid():
        if _enumerable(params):
            assert mass.brute_force_mass(params) == mass.cyclic_mass(params).total


def check_mass_char_p_partial() -> None:
    """Char-p enumeration reproduces partial sums; the tail is controlled."""
    for params, m in _char_p_levels():
        if not _enumerable(params, m):
            continue
        p, q = params.p, params.q
        count = breaks.c_truncation(m, p)
        partial = mass.brute_force_mass(params, m)
        expected = (
            Fraction(p, q)
            * Fraction(q - 1, p - 1)
            * sum(
                Fraction(q**i, q ** ((p - 1) * breaks.b_upper(i, p)))
                for i in range(1, count + 1)
            )
        )
        assert partial == expected
        tail = mass.cyclic_mass(params).total - partial
        first_omitted = count + 1
        bound = Fraction(p, p - 1) * Fraction(
            q ** first_omitted,
            q ** ((p - 1) * breaks.b_upper(first_omitted, p)),
        )
        assert 0 < tail <= bound


def check_mass_bounds() -> None:
    """0 < total <= p, with equality exactly at p = 2."""
    seen_p2_equality = False
    for params in _mass_char0_grid():
        total = mass.cyclic_mass(params).total
        assert 0 < total <= params.p
        if total == params.p:
            assert params.p == 2
            seen_p2_equality = True
    for p in (2, 3, 5):
        for f in (1, 2):
            total = mass.cyclic_mass(FieldParams(p=p, f=f, characteristic=p)).total
            assert 0 < total <= p
            if total == p:
                assert p == 2
    assert seen_p2_equality


def check_mass_per_break_rows() -> None:
    """Row contributions are count * q^{-c} with c = (p-1) * b_upper(i)."""
    for params in _mass_char0_grid():
        report = mass.cyclic_mass(params)
        q = params.q
        acc = Fraction(0)
        for i, b, count, contribution in report.per_break:
            assert b == breaks.b_upper(i, params.p)
            assert count == mass.lines_with_break_count(params, i)
            assert contribution == Fraction(count, q ** ((params.p - 1) * b))
            acc += contribution
        if report.tres_ramifiee is not None:
            tres_count, tres_contribution = report.tres_ramifiee
            assert tres_count == mass.tres_ramifiee_count(params)
            acc += tres_contribution
        assert acc == report.total
        assert report.fraction_of_serre_total == report.total / params.p


def check_series_consistency() -> None:
    """series_value satisfies its finite-block identity and partial sums."""
    for p, q in ((2, 2), (2, 8), (3, 3), (3, 9), (5, 5)):
        s = mass.series_value(p, q)
        block = sum(Fraction(1, q ** ((p - 2) * j)) for j in range(1, p))
        assert s * (1 - Fraction(1, q ** ((p - 1) ** 2))) == block
        partial = sum(
            Fraction(q**i, q ** ((p - 1) * breaks.b_upper(i, p)))
            for i in range(1, 201)
        )
        assert 0 < s - partial < Fraction(1, 10**12)


def check_average_consistency() -> None:
    """Closed form equals the direct sum; peu_only drops the deepest row."""
    for p in (3, 5, 7):
        assert mass.average_c_cyclotomic(p) == mass.average_c_closed_form(p)
        assert mass.average_c_cyclotomic(p, peu_only=True) < mass.average_c_cyclotomic(p)


def check_mass_monotone_in_zeta() -> None:
    """At shared (p, e, f), the zeta-in-field mass strictly exceeds regular."""
    for p, es in ((3, (2, 4, 6, 8)), (5, (4, 8, 12)), (7, (6,))):
        for e in es:
            for f in (1, 2, 3):
                regular = FieldParams(p=p, f=f, e=e, zeta_in_field=False)
                zeta = FieldParams(p=p, f=f, e=e, zeta_in_field=True)
                assert mass.cyclic_mass(regular).total < mass.cyclic_mass(zeta).total


CHECKS: list[tuple[str, Callable[[], None]]] = [
    ("breaks.bijection_onto_prime_to_p", check_break_bijection),
    ("breaks.b_lower_matches_psi", check_b_lower_closed_form),
    ("breaks.sequence_rows_consistent", check_break_sequence_consistency),
    ("breaks.c_truncation_counts", check_c_truncation),
    ("rationals.geometric_identities", check_geometric_identities),
    ("fpspace.idempotent_is_idempotent", check_idempotency),
    ("fpspace.shift_eigen_relation", check_shift_eigen),
    ("fpspace.projector_equals_eigenspace", check_projector_is_eigenspace),
    ("fpspace.line_enumeration_counts", check_line_counts),
    ("filtration.psi_phi_inverse", check_psi_phi_inverse),
    ("filtration.phi_is_inverted_psi", check_phi_matches_inverted_psi),
    ("filtration.different_closed_vs_oracle", check_different_exponent),
    ("filtration.dimension_bookkeeping", check_dimension_bookkeeping),
    ("filtration.upper_jumps_avoid_p", check_upper_jumps_avoid_p),
    ("filtration.index_table_matches_dims", check_index_table),
    ("filtration.orthogonality_complementarity", check_orthogonality),
    ("mass.brute_force_vs_closed", check_mass_brute_vs_closed),
    ("mass.char_p_partial_sums", check_mass_char_p_partial),
    ("mass.totals_within_bounds", check_mass_bounds),
    ("mass.per_break_rows", check_mass_per_break_rows),
    ("mass.series_consistency", check_series_consistency),
    ("mass.average_consistency", check_average_consistency),
    ("mass.zeta_exceeds_regular", check_mass_monotone_in_zeta),
]


def run_all(write=print) -> bool:
    """Run every check; print one PASS/FAIL line each; True when all pass."""
    ok = True
    for name, check in CHECKS:
        try:
            check()
        except AssertionError as exc:
            ok = False
            detail = f": {exc}" if str(exc) else ""
            write(f"FAIL {name}{detail}")
        else:
            write(f"PASS {name}")
    return ok
