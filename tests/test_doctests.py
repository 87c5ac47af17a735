import doctest
import importlib
import pkgutil

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
