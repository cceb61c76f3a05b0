"""Exact arithmetic of ramification filtrations for degree-p local field data.

The package computes break sequences, upper/lower ramification filtrations
with their Herbrand transition maps, discriminant exponents, and the cyclic
contribution to the degree-p mass of a local field, all in exact rational
arithmetic. A brute-force line-counting oracle and a battery of invariant
checks (`ramify.verify`) cross-validate the closed forms.
"""

from importlib import import_module

# The module that defines each public name. `import ramify` loads none of
# them: __getattr__ imports a name's module on its first access, so a
# command pays only for the modules it runs.
_LAZY = {
    name: module
    for module, names in {
        "breaks": "a_of b_lower b_upper c_truncation prime_to_p_breaks",
        "filtration": "FieldParams FilteredSpace HerbrandMap RamificationFiltration"
        " cyclic_discriminant different_exponent_oracle discriminant_exponent herbrand_phi"
        " herbrand_psi index_table lower_filtration orthogonal_index space_model upper_filtration",
        "fpspace": "FpMatrix FpSubspace GroupAlgebraElement apply_idempotent count_lines"
        " eigenspace enumerate_lines idempotent multiplicative_order",
        "mass": "MassReport average_c_closed_form average_c_cyclotomic brute_force_mass"
        " cyclic_mass lines_with_break_count series_value tres_ramifiee_count",
        "rationals": "decimal_string geometric_sum_finite",
    }.items()
    for name in names.split()
}

__version__ = "0.1.0"

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
