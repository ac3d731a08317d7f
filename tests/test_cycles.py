"""The pipeline frees its garbage by reference counting alone.

Counts objects, times nothing: with the cyclic collector off during a call,
``gc.collect()`` after it must find nothing to free. A run that leaves no
cycles keeps the collector idle, and ``cli.run`` relies on it when it
freezes every object before exit.
"""

from __future__ import annotations

import gc

import pytest

from modcomplete import (
    AmbiguousMatch,
    NoMatch,
    StateNotInOwnerMachine,
    complete_model,
    default_kb,
    emit_requirement_diagram,
    emit_trace_json,
    load_model,
    parse_corpus,
    parse_kb,
    save_model,
)
from modcomplete.gherkin import ParseError
from modcomplete.kb import shadowed_rules

from conftest import FIXTURES

GOLDEN = FIXTURES / "report_golden"

# A rule that binds the state before its owner, so the state can belong to
# another block's machine and instantiation fails.
FOREIGN_STATE_RULE = (
    'metareq MX -> FX:\n'
    '  given: "<<State as starting>> state of <<Block as context1>>"\n'
    '  then:  "goes in <<State as final>>"\n'
    "fragment FX:\n"
    "  owner: context1   source: starting   target: final\n"
)
FOREIGN_STATE_REQUIREMENT = "Scenario: state of another block\n@id: FOREIGN-1\nGiven p1 state of Gate, Then goes in s2.\n"


def garbage_left_by(call, *args):
    """Return ``call(*args)`` and the number of objects in reference cycles
    it left, counted before the collector could run."""
    gc.collect()
    gc.disable()
    try:
        result = call(*args)
        return result, gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def golden_run():
    """A completion that meets every outcome, and the garbage it left."""
    model = load_model((GOLDEN / "model.json").read_text(encoding="utf-8"))
    kb = parse_kb((GOLDEN / "kb.txt").read_text(encoding="utf-8") + FOREIGN_STATE_RULE)
    corpus = parse_corpus((GOLDEN / "reqs.feature").read_text(encoding="utf-8") + FOREIGN_STATE_REQUIREMENT)
    return garbage_left_by(complete_model, model, corpus, kb)


def test_the_golden_run_meets_every_outcome(golden_run):
    result, _ = golden_run
    assert any(o.error is None for o in result.outcomes)
    for kind in (NoMatch, AmbiguousMatch, ParseError, StateNotInOwnerMachine):
        assert any(isinstance(o.error, kind) for o in result.outcomes), kind
    assert result.report.added and result.report.duplicates and result.report.conflicts


def test_complete_model_leaves_no_cycle(golden_run):
    _, left = golden_run
    assert left == 0


def test_outcome_errors_are_stored_without_traceback(golden_run):
    result, _ = golden_run
    errors = [o.error for o in result.outcomes if o.error is not None]
    assert len(errors) == 4
    assert all(e.__traceback__ is None for e in errors)


def test_writers_leave_no_cycle(golden_run):
    result, _ = golden_run
    assert garbage_left_by(save_model, result.model)[1] == 0
    assert garbage_left_by(emit_trace_json, result.trace)[1] == 0
    for record in result.trace:
        assert garbage_left_by(emit_requirement_diagram, record)[1] == 0


def test_shadowed_rules_leaves_no_cycle():
    kb = default_kb()
    assert garbage_left_by(shadowed_rules, kb) == ([], 0)
