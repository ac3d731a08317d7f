"""The ``>>>`` examples in the package's docstrings run and hold."""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import modcomplete

MODULES = sorted(
    f"{modcomplete.__name__}.{info.name}" for info in pkgutil.iter_modules(modcomplete.__path__)
) + [modcomplete.__name__]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_hold(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name
