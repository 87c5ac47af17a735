import doctest
import importlib
import pkgutil
from pathlib import Path

import padic


def test_library_doctests():
    """Every example in the library's docstrings runs and gives its output."""
    names = ["padic"] + [
        info.name for info in pkgutil.iter_modules(padic.__path__, "padic.")
    ]
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted >= 5


def test_readme_examples():
    """The README quickstart runs and prints what the README says it prints."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.failed == 0
    assert result.attempted >= 10
