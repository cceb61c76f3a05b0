"""The eight frozen value types behave as values.

Equality needs the same class and equal fields, and equal values hash alike.
Each repr is pinned to its text from when the types were dataclasses. No
attribute can be assigned or deleted, and copy, deepcopy and pickle give back
an equal value of the same type.
"""

import copy
import pickle

import pytest

from ramify.filtration import (
    FieldParams,
    FilteredSpace,
    RamificationFiltration,
    herbrand_psi,
    upper_filtration,
)
from ramify.fpspace import FpMatrix, FpSubspace, GroupAlgebraElement
from ramify.mass import cyclic_mass

P3E2 = FieldParams(3, 1, e=2, zeta_in_field=False)

# (builder of a fresh value, builder of an unequal value of the same type, repr)
CASES = {
    "FieldParams": (
        lambda: FieldParams(3, 1, e=2, zeta_in_field=False),
        lambda: FieldParams(3, 1, e=2, zeta_in_field=True),
        "FieldParams(p=3, f=1, characteristic=0, e=2, zeta_in_field=False)",
    ),
    "FilteredSpace": (
        lambda: FilteredSpace(((0, 1), (2, 2))),
        lambda: FilteredSpace(((0, 1), (2, 1))),
        "FilteredSpace(jumps=((0, 1), (2, 2)))",
    ),
    "RamificationFiltration": (
        lambda: RamificationFiltration(((-1, 1), (1, 1)), 3, "upper"),
        lambda: RamificationFiltration(((-1, 1), (1, 1)), 3, "lower"),
        "RamificationFiltration(jumps=((-1, 1), (1, 1)), p=3, numbering='upper')",
    ),
    "HerbrandMap": (
        lambda: herbrand_psi(upper_filtration(P3E2)),
        lambda: herbrand_psi(upper_filtration(P3E2)).inverse(),
        "HerbrandMap(breakpoints=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), "
        "Fraction(1, 1)), (Fraction(2, 1), Fraction(4, 1))), slopes=(Fraction(1, 1), "
        "Fraction(3, 1), Fraction(9, 1)))",
    ),
    "MassReport": (
        lambda: cyclic_mass(FieldParams(2, 1, e=1)),
        lambda: cyclic_mass(FieldParams(2, 1, e=2)),
        "MassReport(params=FieldParams(p=2, f=1, characteristic=0, e=1, zeta_in_field=True), "
        "per_break=((1, 1, 2, Fraction(1, 1)),), tres_ramifiee=(4, Fraction(1, 1)), "
        "total=Fraction(2, 1))",
    ),
    "FpMatrix": (
        lambda: FpMatrix(3, ((4, 2), (0, -1))),
        lambda: FpMatrix(5, ((4, 2), (0, -1))),
        "FpMatrix(p=3, entries=((1, 2), (0, 2)))",
    ),
    "FpSubspace": (
        lambda: FpSubspace(3, 2, ((2, 1),)),
        lambda: FpSubspace(3, 2, ((1, 0),)),
        "FpSubspace(p=3, ambient_dim=2, basis=((1, 2),))",
    ),
    "GroupAlgebraElement": (
        lambda: GroupAlgebraElement(3, (4, 2)),
        lambda: GroupAlgebraElement(3, (1, 1)),
        "GroupAlgebraElement(p=3, coeffs=(1, 2))",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_value_semantics(name):
    make, make_other, text = CASES[name]
    value, twin, other = make(), make(), make_other()
    assert type(value).__name__ == name and value is not twin
    assert value == twin and not value != twin and hash(value) == hash(twin)
    assert value != other and not value == other
    assert value != text
    assert repr(value) == text
    field = text[len(name) + 1 :].split("=", 1)[0]
    for attr in (field, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == text
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value) and repr(clone) == text


def test_a_filtration_never_equals_a_space_with_its_jumps():
    jumps = ((-1, 1), (1, 1))
    space, filtration = FilteredSpace(jumps), RamificationFiltration(jumps, 3, "upper")
    assert space != filtration and filtration != space
    assert not space == filtration and not filtration == space
