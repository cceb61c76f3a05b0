import pytest

from ramify.fpspace import (
    FpMatrix,
    FpSubspace,
    GroupAlgebraElement,
    apply_idempotent,
    convolve,
    count_lines,
    eigenspace,
    enumerate_lines,
    full_space,
    idempotent,
    identity_matrix,
    mat_inverse,
    mat_mul,
    mat_pow,
    multiplicative_order,
    rref,
)


def test_count_lines_known_values():
    assert count_lines(0, 5) == 0
    assert count_lines(2, 3) == 4
    assert count_lines(3, 2) == 7


def test_enumerate_lines_small_spaces():
    one = full_space(7, 1)
    assert enumerate_lines(one) == [one]
    lines = enumerate_lines(full_space(3, 2))
    assert len(lines) == 4
    lines5 = enumerate_lines(full_space(2, 5))
    assert len(lines5) == 31


@pytest.mark.parametrize("p,dim", [(2, 6), (3, 4), (5, 3)])
def test_enumerate_lines_distinct_canonical_contained(p, dim):
    ambient = full_space(p, dim)
    lines = enumerate_lines(ambient)
    assert len(lines) == count_lines(dim, p)
    assert len(set(lines)) == len(lines)
    for line in lines:
        assert line.dim == 1
        assert ambient.contains(line)


def test_enumerate_lines_respects_subspace():
    amb = FpSubspace(5, 4, [(1, 0, 0, 2), (0, 1, 0, 3)])
    lines = enumerate_lines(amb)
    assert len(lines) == count_lines(2, 5)
    assert all(amb.contains(l) for l in lines)


def test_enumerate_lines_guard():
    with pytest.raises(ValueError, match="enumeration too large"):
        enumerate_lines(full_space(2, 24))


def test_idempotent_known_values():
    assert idempotent(7, 1, 1).coeffs == (1,)
    assert idempotent(3, 2, 2).coeffs == (2, 1)
    assert idempotent(5, 4, 2).coeffs == (4, 2, 1, 3)


def test_idempotent_rejects_bad_inputs():
    with pytest.raises(ValueError, match="m must divide p - 1"):
        idempotent(5, 3, 2)
    with pytest.raises(ValueError, match="character not faithful"):
        idempotent(5, 4, 4)  # 4 has order 2 mod 5, not 4


def test_convolve_identity_and_squares():
    x = GroupAlgebraElement(p=3, coeffs=(2, 1))
    delta = GroupAlgebraElement(p=3, coeffs=(1, 0))
    assert convolve(delta, x) == x
    assert convolve(x, x) == x
    tau = GroupAlgebraElement(p=3, coeffs=(0, 1))
    assert convolve(tau, tau).coeffs == (1, 0)


def test_convolve_shape_mismatch():
    x = GroupAlgebraElement(p=3, coeffs=(2, 1))
    y = GroupAlgebraElement(p=7, coeffs=(2, 1))
    with pytest.raises(ValueError):
        convolve(x, y)


def _generators_of_order(m, p):
    return [g for g in range(1, p) if multiplicative_order(g, p) == m]


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_shift_acts_by_character_value(p):
    """Multiplying by the group generator scales the idempotent by omega."""
    for m in _divisors(p - 1):
        for g in _generators_of_order(m, p):
            eps = idempotent(p, m, g)
            tau = GroupAlgebraElement(
                p=p, coeffs=tuple(1 if k == 1 % m else 0 for k in range(m))
            )
            shifted = convolve(tau, eps)
            scaled = tuple((g * c) % p for c in eps.coeffs)
            assert shifted.coeffs == scaled


def test_eigenspace_known_values():
    assert eigenspace(identity_matrix(3, 2), 1) == full_space(3, 2)
    d = FpMatrix(3, [[1, 0], [0, 2]])
    assert eigenspace(d, 2) == FpSubspace(3, 2, [(0, 1)])
    swap = FpMatrix(3, [[0, 1], [1, 0]])  # order-2 action on F_3^2
    line = eigenspace(swap, 2)
    assert line == FpSubspace(3, 2, [(1, 2)])


def test_eigenspace_rejects_non_square():
    with pytest.raises(ValueError):
        eigenspace(FpMatrix(3, [[1, 0, 0], [0, 1, 0]]), 1)


def test_apply_idempotent_known_values():
    eps1 = idempotent(7, 1, 1)
    assert apply_idempotent(eps1, identity_matrix(7, 3)) == full_space(7, 3)
    eps = idempotent(3, 2, 2)
    d = FpMatrix(3, [[1, 0], [0, 2]])
    assert apply_idempotent(eps, d) == FpSubspace(3, 2, [(0, 1)])
    # no omega-eigenvector: the projector lands on the zero subspace
    zero = apply_idempotent(eps, identity_matrix(3, 2))
    assert zero.dim == 0


def test_apply_idempotent_rejects_wrong_order():
    eps = idempotent(3, 2, 2)
    not_order_2 = FpMatrix(3, [[1, 1], [0, 1]])  # order 3
    with pytest.raises(ValueError, match="not a representation of order"):
        apply_idempotent(eps, not_order_2)


def test_subspace_canonical_under_change_of_spanning_set():
    a = FpSubspace(5, 3, [(1, 2, 3), (0, 1, 4)])
    b = FpSubspace(5, 3, [(1, 3, 2 + 5 - 0), (2, 4, 6)])  # same span, messier input
    c = FpSubspace(5, 3, [(2, 4, 6), (1, 3, 7)])
    assert b == c
    assert a.dim == 2 and b.dim == 2


def test_matrix_inverse_round_trip():
    m = FpMatrix(7, [[2, 1, 0], [1, 1, 3], [0, 5, 1]])
    assert mat_mul(m, mat_inverse(m)) == identity_matrix(7, 3)


def test_mat_pow_values():
    m = FpMatrix(3, [[1, 1], [0, 1]])
    assert mat_pow(m, 0) == identity_matrix(3, 2)
    assert mat_pow(m, 1) == m
    assert mat_pow(m, 2) == FpMatrix(3, [[1, 2], [0, 1]])
    assert mat_pow(m, 3) == identity_matrix(3, 2)
    assert mat_pow(m, 5) == mat_mul(mat_pow(m, 2), mat_pow(m, 3))


def test_types_hold_their_invariants():
    """Direct construction reduces entries and stores the RREF of the span."""
    m = FpMatrix(p=3, entries=((5,),))
    assert m == FpMatrix(3, [[2]])
    assert m.entries == ((2,),) and (m.rows, m.cols) == (1, 1)
    line = FpSubspace(3, 2, ((2, 0),))
    assert line == FpSubspace(3, 2, [(1, 0)]) and line.basis == ((1, 0),)
    assert line.contains_vector((1, 0)) and not line.contains_vector((0, 1))
    assert FpSubspace(3, 2, [(0, 0), (3, 6)]).dim == 0
    assert FpSubspace(3, 2, (v for v in [(2, 0)])) == line
    assert GroupAlgebraElement(3, (5, -1)) == GroupAlgebraElement(3, (2, 2))


_M3 = FpMatrix(3, [[1, 1], [0, 1]])
_WIDE = FpMatrix(3, [[1, 0, 0], [0, 1, 0]])


@pytest.mark.parametrize(
    "build,message",
    [
        pytest.param(lambda: FpMatrix(4, [[1]]), "prime", id="matrix-p"),
        pytest.param(lambda: FpMatrix(3, [[1, 2], [1]]), "ragged rows", id="ragged"),
        pytest.param(lambda: GroupAlgebraElement(4, (1, 0)), "prime", id="algebra-p"),
        pytest.param(lambda: GroupAlgebraElement(3, ()), "at least one", id="algebra-empty"),
        pytest.param(lambda: GroupAlgebraElement(3, iter(())), "at least one", id="algebra-empty-iterator"),
        pytest.param(lambda: mat_mul(_M3, identity_matrix(5, 2)), "mismatched characteristic", id="mul-p"),
        pytest.param(lambda: mat_mul(_WIDE, _M3), "dimension mismatch", id="mul-shape"),
        pytest.param(lambda: mat_pow(_WIDE, 2), "must be square", id="pow-shape"),
        pytest.param(lambda: mat_pow(_M3, -1), "negative power", id="pow-negative"),
        pytest.param(lambda: mat_inverse(_WIDE), "must be square", id="inverse-shape"),
        pytest.param(lambda: mat_inverse(FpMatrix(3, [[1, 2], [2, 1]])), "not invertible", id="inverse-singular"),
        pytest.param(lambda: FpSubspace(4, 1, [(1,)]), "prime", id="subspace-p"),
        pytest.param(lambda: rref(4, [[1, 2], [2, 1]]), "prime", id="rref-p"),
        pytest.param(lambda: rref(1, [[1]]), "prime", id="rref-p-one"),
        pytest.param(lambda: FpSubspace(3, 2, [(1, 0, 0)]), "dimension mismatch", id="subspace-dim"),
        pytest.param(lambda: full_space(3, 2).contains_vector((1, 0, 0)), "dimension mismatch", id="vector-dim"),
        pytest.param(lambda: full_space(3, 2).contains(full_space(3, 3)), "mismatched ambient", id="ambient-dim"),
        pytest.param(lambda: full_space(3, 2).contains(full_space(5, 2)), "mismatched ambient", id="ambient-p"),
        pytest.param(lambda: count_lines(-1, 3), "negative dimension", id="count-negative"),
        pytest.param(lambda: multiplicative_order(6, 3), "not a unit", id="order-non-unit"),
        pytest.param(lambda: apply_idempotent(idempotent(5, 2, 4), _M3), "mismatched characteristic", id="apply-p"),
        pytest.param(lambda: apply_idempotent(idempotent(3, 2, 2), _WIDE), "must be square", id="apply-shape"),
    ],
)
def test_rejects_invalid_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()
