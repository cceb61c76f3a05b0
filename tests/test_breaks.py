import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramify.breaks import (
    _check_prime,
    a_of,
    b_lower,
    b_upper,
    c_truncation,
    prime_to_p_breaks,
)
from ramify.cli import run
from ramify.filtration import FieldParams
from ramify.fpspace import count_lines
from ramify.mass import average_c_closed_form, series_value


def test_a_of_known_values():
    assert a_of(1, 7) == 0
    assert a_of(3, 3) == 1
    for i in range(1, 20):
        assert a_of(i, 2) == i - 1


def test_prime_check_matches_reference():
    """Every public entry point accepts exactly the primes, odd squares included."""
    for n in range(-2, 130):
        is_prime = n >= 2 and all(n % d for d in range(2, n))
        checks = [lambda: a_of(1, n), lambda: count_lines(1, n)]
        checks.append(lambda: FieldParams(p=n, f=1, characteristic=n))
        checks.append(lambda: series_value(n, n))
        if n != 2:
            checks.append(lambda: average_c_closed_form(n))
        for check in checks:
            if is_prime:
                check()
            else:
                with pytest.raises(ValueError, match="p must be a prime"):
                    check()


def test_prime_check_decides_large_p_exactly_and_fast():
    """Miller-Rabin to the first 13 prime bases, below the bound where they are exact."""
    start = time.perf_counter()
    for p in (2**31 - 1, 2**61 - 1, 2**61 - 1):  # the second call hits the cache
        _check_prime(p)
    assert time.perf_counter() - start < 1
    composites = (
        561,  # a Carmichael number
        3215031751,  # a strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,  # ... to the bases 2 to 23
        318665857834031151167461,  # ... to the bases 2 to 37; only 41 refuses it
        (2**61 - 1) * (2**13 - 1),
    )
    for n in composites:
        with pytest.raises(ValueError, match="^p must be a prime$"):
            _check_prime(n)
    # The least strong pseudoprime to all 13 bases is the bound itself.
    for n in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(ValueError, match="^p must be below 3317044064679887385961981$"):
            _check_prime(n)
    for n in (1, 4, 8, 3.0, True, -7):
        with pytest.raises(ValueError, match="^p must be a prime$"):
            _check_prime(n)


def test_a_of_rejects_zero_index():
    with pytest.raises(ValueError, match="index out of domain"):
        a_of(0, 3)


def test_b_upper_known_values():
    assert b_upper(1, 3) == 1
    assert b_upper(1, 13) == 1
    assert b_upper(6, 5) == 7
    for i in range(1, 20):
        assert b_upper(i, 2) == 2 * i - 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_b_upper_coprime_to_p(p):
    for i in range(1, 200):
        assert b_upper(i, p) % p != 0


def test_prime_to_p_breaks_known_values():
    assert prime_to_p_breaks(3, 2) == [1, 2]
    assert prime_to_p_breaks(2, 3) == [1, 3, 5]
    assert prime_to_p_breaks(5, 6) == [1, 2, 3, 4, 6, 7]


def test_negative_counts_are_out_of_domain():
    with pytest.raises(ValueError, match="index out of domain"):
        prime_to_p_breaks(3, -1)
    with pytest.raises(ValueError, match="index out of domain"):
        c_truncation(-1, 3)


@pytest.mark.parametrize("p,e", [(3, 4), (5, 8), (2, 5), (7, 12)])
def test_prime_to_p_breaks_characterization(p, e):
    got = prime_to_p_breaks(p, e)
    assert len(got) == e
    bound = p * e / (p - 1)
    assert all(b < bound and b % p != 0 for b in got)


def _b_lower_two_sums(i, p, q):
    """The defining two-sum form of b_lower, kept as the test-side reference."""
    first = sum(q**j for j in range(i))
    second = sum(q ** (j * (p - 1)) for j in range(1, (i - 1) // (p - 1) + 1))
    return first + second


def _breaks_table(p, f, count):
    """The rows (i, a, b_upper, b_lower) of `ramify breaks`, read from its JSON."""
    out = io.StringIO()
    argv = ["breaks", "--p", str(p), "--f", str(f), "--e", str(count), "--format", "json"]
    assert run(argv, out=out) == 0
    return [(r["i"], r["a"], r["b_upper"], r["b_lower"]) for r in json.loads(out.getvalue())["rows"]]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("f", [1, 2, 3])
def test_b_lower_closed_form_matches_two_sums_and_table(p, f):
    q = p**f
    rows = _breaks_table(p, f, 150)
    assert [row[0] for row in rows] == list(range(1, 151))
    for i, *_, lower in rows:
        assert b_lower(i, p, q) == _b_lower_two_sums(i, p, q) == lower


def test_b_lower_validates_inputs():
    with pytest.raises(ValueError, match="index out of domain"):
        b_lower(0, 3, 3)
    with pytest.raises(ValueError, match="prime"):
        b_lower(1, 4, 4)
    with pytest.raises(ValueError, match="power of p"):
        b_lower(1, 3, 8)


def test_b_lower_known_values():
    assert b_lower(1, 3, 3) == 1
    assert b_lower(1, 5, 25) == 1
    assert b_lower(2, 3, 3) == 4
    assert b_lower(3, 2, 2) == 13


def test_c_truncation_known_values():
    assert c_truncation(0, 3) == 0
    assert c_truncation(5, 3) == 4
    for p in (2, 3, 5, 7):
        assert c_truncation(p, p) == p - 1


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=200)
def test_c_truncation_step_recurrence(m, p):
    assert c_truncation(m + p, p) == c_truncation(m, p) + (p - 1)
    assert c_truncation(m + 1, p) >= c_truncation(m, p)


def test_break_sequence_rows_consistent():
    rows = _breaks_table(3, 2, 12)
    assert len(rows) == 12
    for i, a, bu, bl in rows:
        assert a == a_of(i, 3)
        assert bu == b_upper(i, 3)
        assert bl == b_lower(i, 3, 9)
    uppers = [row[2] for row in rows]
    lowers = [row[3] for row in rows]
    assert uppers == sorted(uppers) and lowers == sorted(lowers)
    assert lowers[0] == 1
