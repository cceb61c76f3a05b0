"""The public surface: every name in an `__all__` resolves.

Tools that walk `__all__` (the benchmark's tracer wraps every entry) break on
a stale name, so each module of the package is checked, and so is
`from ramify import *`.
"""

import importlib
import pkgutil

import pytest

import ramify

MODULES = ["ramify"] + [
    f"ramify.{info.name}" for info in pkgutil.iter_modules(ramify.__path__) if info.name != "__main__"
]

# Public names that were removed; none may come back as a stale entry.
REMOVED = {
    "splitting_data",
    "dim_at_level",
    "tres_ramifiee_discriminant",
    "V_REGULAR",
    "UBAR_ZETA",
    "WP_CHAR_P",
    "BELOW_BREAK_RANGE",
    "ABOVE_BREAK_RANGE",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert REMOVED.isdisjoint(vars(module))


def test_star_import():
    namespace = {}
    exec("from ramify import *", namespace)
    assert set(ramify.__all__) <= namespace.keys()
