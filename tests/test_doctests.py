"""The ``>>>`` examples in the package's docstrings and the README's Python
examples run and hold."""

from __future__ import annotations

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import modcomplete

ROOT = Path(__file__).resolve().parents[1]

MODULES = sorted(
    f"{modcomplete.__name__}.{info.name}" for info in pkgutil.iter_modules(modcomplete.__path__)
) + [modcomplete.__name__]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_hold(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name


def test_readme_python_examples_run(monkeypatch):
    """Each ```python fence of README.md runs from the repository root, so
    the relative paths it reads resolve as they do for a reader there."""
    fences = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    assert fences
    monkeypatch.chdir(ROOT)
    for i, code in enumerate(fences):
        exec(compile(code, f"README.md python example {i + 1}", "exec"), {"__name__": "readme"})
