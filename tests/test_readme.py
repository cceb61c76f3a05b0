"""The README's library examples are doctests, so they cannot go stale."""

import doctest
import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failed == 0
