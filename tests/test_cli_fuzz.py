"""In-process fuzzing of the command line: whatever the input files hold,
``main`` returns 0, 1 or 2 and raises nothing.

The inputs are byte-mutated copies of the model, feature and knowledge-base
fixtures, random bytes, and model documents in which random JSON values
replace fields. Every run is a call of ``main`` in this process.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from modcomplete.cli import main
from modcomplete.kb import DEFAULT_KB_TEXT

from conftest import FIXTURES

MODEL = (FIXTURES / "railway_model.json").read_bytes()
FEATURE = (FIXTURES / "railway.feature").read_bytes()
KB = DEFAULT_KB_TEXT.encode("utf-8")
MODEL_DOC = json.loads(MODEL)

FUZZ = settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

# Bytes that break UTF-8, JSON, the clause grammar or the KB syntax.
SPECIAL = [b"\xff", b"\xc3", b"\x00", b'"', b"{", b"}", b"[", b"]", b",", b":", b"\\",
           b"\n", b" ", b".", b"@", b"#", b"or", b"and", b"When", b"Then", b"Given", b"->"]


@st.composite
def byte_mutants(draw, data: bytes) -> bytes:
    """``data`` after one to eight random edits, or random bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=200))
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 8))):
        pos = draw(st.integers(0, len(out)))
        op = draw(st.sampled_from(["replace", "insert", "delete", "duplicate"]))
        chunk = draw(st.sampled_from(SPECIAL) | st.binary(min_size=1, max_size=4))
        if op == "replace":
            out[pos:pos + len(chunk)] = chunk
        elif op == "insert":
            out[pos:pos] = chunk
        elif op == "delete":
            del out[pos:pos + draw(st.integers(1, 40))]
        else:
            end = min(len(out), pos + draw(st.integers(1, 80)))
            out[end:end] = out[pos:end]
    return bytes(out)


def _paths(value, prefix=()):
    """The path of every value inside a JSON document, the root excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield prefix + (key,)
        yield from _paths(item, prefix + (key,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


MODEL_PATHS = list(_paths(MODEL_DOC))
MODEL_STRINGS = sorted({v for v in (_get(MODEL_DOC, p) for p in MODEL_PATHS) if isinstance(v, str)})

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8) | st.sampled_from(MODEL_STRINGS),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["name", "id", "source", "target", "trigger", "effects", "signal", "x"]),
        inner, max_size=3),
    max_leaves=6,
)


@st.composite
def json_mutants(draw) -> bytes:
    """The model document after one to three edits: a value replaced by
    another name from the model or by a random JSON value, or deleted from
    its object. A name keeps the document well-formed more often, so more
    mutants reach validation and completion."""
    doc = json.loads(MODEL)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(MODEL_PATHS))
        try:
            holder = _get(doc, path[:-1])
            holder[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit removed or replaced this path
        if not isinstance(holder, (dict, list)):
            continue
        op = draw(st.sampled_from(["name", "value", "delete"]))
        if op == "delete" and isinstance(holder, dict):
            del holder[path[-1]]
        else:
            holder[path[-1]] = draw(st.sampled_from(MODEL_STRINGS) if op == "name" else json_values)
    return json.dumps(doc).encode("utf-8")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(workdir, command: str, model: bytes = MODEL, feature: bytes = FEATURE, kb: bytes = KB) -> int:
    inputs = {"model.json": model, "reqs.feature": feature, "kb.txt": kb}
    for name, data in inputs.items():
        (workdir / name).write_bytes(data)
    kb_arg = ["--kb", str(workdir / "kb.txt")]
    io_args = ["--model", str(workdir / "model.json"), "--reqs", str(workdir / "reqs.feature"), *kb_arg]
    argv = {
        "check": ["check", *io_args, "--explain"],
        "complete": ["complete", *io_args, "--out", str(workdir / "out.json"),
                     "--report", str(workdir / "report.json"), "--trace", str(workdir / "trace.json"),
                     "--diagrams", str(workdir / "diagrams")],
        "kb-lint": ["kb-lint", *kb_arg],
    }[command]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def test_unmutated_fixtures_run(workdir):
    assert [run(workdir, c) for c in ("check", "complete", "kb-lint")] == [0, 0, 0]


@FUZZ
@given(command=st.sampled_from(["check", "complete"]), model=byte_mutants(MODEL))
def test_byte_mutated_model(workdir, command, model):
    assert run(workdir, command, model=model) in (0, 1, 2)


@FUZZ
@given(command=st.sampled_from(["check", "complete"]), feature=byte_mutants(FEATURE))
def test_byte_mutated_feature(workdir, command, feature):
    assert run(workdir, command, feature=feature) in (0, 1, 2)


@FUZZ
@given(command=st.sampled_from(["check", "complete", "kb-lint"]), kb=byte_mutants(KB))
def test_byte_mutated_kb(workdir, command, kb):
    assert run(workdir, command, kb=kb) in (0, 1, 2)


@FUZZ
@given(command=st.sampled_from(["check", "complete"]), model=json_mutants())
def test_json_value_mutated_model(workdir, command, model):
    assert run(workdir, command, model=model) in (0, 1, 2)
