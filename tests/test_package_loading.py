"""The package namespace: which layer modules ``import modcomplete`` loads,
and that every exported name still reads as the object its module defines."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modcomplete
from modcomplete.kb import DEFAULT_KB_TEXT

from conftest import FIXTURES

SUBMODULES = ("errors", "gherkin", "generator", "kb", "matcher", "model", "normalize", "trace")

LOADING_RUN = """
import sys
sys.path.insert(0, sys.argv[1])

def loaded():
    return sorted(name.split(".")[1] for name in sys.modules if name.startswith("modcomplete."))

def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()

import modcomplete
print("import", *loaded())
modcomplete.load_model(read(sys.argv[2]))
modcomplete.parse_corpus(read(sys.argv[3]))
modcomplete.parse_kb(read(sys.argv[4]))
inputs = loaded()
print("inputs", *inputs)
modcomplete.complete_model
print("complete_model", *sorted(set(loaded()) - set(inputs)))
"""


def test_each_layer_is_loaded_on_first_use(tmp_path):
    """Counts modules, times nothing: in a fresh ``python -S`` process,
    ``import modcomplete`` loads no layer module; loading a model, a corpus
    and a KB loads exactly the five layers they need; reading
    ``complete_model`` then loads the matcher, the trace and the generator."""
    kb_path = tmp_path / "kb.txt"
    kb_path.write_text(DEFAULT_KB_TEXT, encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LOADING_RUN, src,
         str(FIXTURES / "railway_model.json"), str(FIXTURES / "railway.feature"), str(kb_path)],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env={k: v for k, v in os.environ.items() if k != "MODCOMPLETE_KB"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "import",
        "inputs errors gherkin kb model normalize",
        "complete_model generator matcher trace",
    ]


@pytest.mark.parametrize("name", [name for name in modcomplete.__all__ if name != "__version__"])
def test_each_exported_name_is_the_object_of_its_home_module(name):
    """Read from the package, a name is the object its defining module
    holds, and the first read leaves it in the package's namespace."""
    value = getattr(modcomplete, name)
    assert value is getattr(importlib.import_module(value.__module__), name)
    assert value.__module__.startswith("modcomplete.")
    assert vars(modcomplete)[name] is value


def test_the_namespace_lists_and_binds_exactly_all():
    namespace: dict = {}
    exec("from modcomplete import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(modcomplete.__all__)
    assert set(modcomplete.__all__) <= set(dir(modcomplete))
    assert len(modcomplete.__all__) == len(set(modcomplete.__all__))


def test_layer_modules_are_attributes_after_a_bare_import():
    """A fresh ``import modcomplete`` loads no layer, yet each of the
    layers the package used to import eagerly reads as an attribute; an
    unknown name still raises as before."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import modcomplete\n"
         "for name in sys.argv[2:]:\n"
         "    print(name, getattr(modcomplete, name).__name__)\n"
         "try:\n"
         "    modcomplete.nope\n"
         "except AttributeError as error:\n"
         "    print(error)\n",
         str(Path(__file__).resolve().parents[1] / "src"), *SUBMODULES],
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        *(f"{name} modcomplete.{name}" for name in SUBMODULES),
        "module 'modcomplete' has no attribute 'nope'",
    ]


def _builtin_sha256() -> str | None:
    for name in ("_sha2", "_sha256"):
        try:
            importlib.import_module(name)
        except ImportError:
            continue
        return name
    return None


COMPLETE_RUN = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from modcomplete import cli
out = sys.argv[4]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["complete", "--model", sys.argv[2], "--reqs", sys.argv[3],
                     "--out", out + "/m.json", "--report", out + "/r.json", "--trace", out + "/t.json"])
print(code, *(name for name in ("__future__", "_hashlib", "_sha2", "_sha256", "hashlib")
               if name in sys.modules))
"""


@pytest.mark.skipif(_builtin_sha256() is None, reason="this interpreter has no built-in SHA-256")
def test_a_run_hashes_with_the_built_in_sha256(tmp_path):
    """Counts modules, times nothing: a fresh ``python -S`` process that
    completes the railway model takes SHA-256 from the interpreter's own
    module, never from ``hashlib`` and the OpenSSL behind it, and no
    package module imports ``__future__``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", COMPLETE_RUN, src,
         str(FIXTURES / "railway_model.json"), str(FIXTURES / "railway.feature"), str(tmp_path)],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env={k: v for k, v in os.environ.items() if k != "MODCOMPLETE_KB"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", _builtin_sha256()]
    assert json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))["name"]


def test_without_the_built_in_sha256_ids_come_from_hashlib():
    """An interpreter built without its own hashes falls back to
    ``hashlib``, and the ids stay the golden ones."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys; sys.path.insert(0, sys.argv[1])\n"
         "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
         "from modcomplete.model import SendEffect, transition_identity\n"
         "print('hashlib' in sys.modules)\n"
         "print(transition_identity('Gate', 'open', 'closed', None, ()))\n"
         "effects = (SendEffect('Stop', 'Brake'), SendEffect('Alarm', 'Horn'))\n"
         "print(transition_identity('Zug', 'F\\xe4hrt', 'Bremst', 'Nothalt', effects))\n",
         str(Path(__file__).resolve().parents[1] / "src")],
        capture_output=True,
        text=True,
        encoding="utf-8",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True", "39bd433fe26a", "dc59ef2723c0"]
