"""The public surface: exported names and the signatures callers rely on.

Changing one of these is an interface change and should be a deliberate edit
of this file, not a side effect of refactoring.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import is_dataclass

import pytest

import modcomplete
from modcomplete import matcher

PACKAGE_ALL = [
    "ModcompleteError", "Clause", "RequirementAST", "RequirementDoc", "parse_corpus", "parse_requirement", "tokenize", "CompletionReport",
    "CompletionResult", "ConflictRecord", "Finding", "RequirementOutcome",
    "StateNotInOwnerMachine", "check_acceptability", "complete_model",
    "instantiate_fragment", "ClauseTemplate", "KnowledgeBase", "MetaFragment", "MetaReq",
    "SlotPattern", "default_kb", "parse_kb", "serialize_kb", "AmbiguousMatch", "Binding",
    "MatchResult", "Mentions", "NoMatch", "lookup_elements", "match_clause", "match_requirement",
    "normalize_phrase",
    "normalize_signal_phrase", "oracle_match", "Block",
    "Metaclass", "SchemaError", "SendEffect", "Signal", "StateMachine",
    "SystemModel", "Transition", "ValidationError", "load_model",
    "save_model", "TraceRecord", "build_trace",
    "emit_requirement_diagram", "emit_trace_json", "__version__",
]

MATCHER_ALL = [
    "Binding", "MatchResult", "SpanAmbiguity", "ClauseMatches", "MetaReqDiagnostic",
    "MatchError", "NoMatch", "AmbiguousMatch", "Mentions", "lookup_elements", "match_clause",
    "match_requirement",
]

# The record modules do not postpone annotations, so each annotation is the
# type object itself and renders with its module; ``BindingSet`` renders as
# the tuple type it names. ``match_requirement``'s third parameter takes a
# model or a run's ``Mentions``; ``match_clause`` and ``lookup_elements``
# read only a ``Mentions``.
SIGNATURES = {
    "match_requirement": (
        "(ast: modcomplete.gherkin.RequirementAST, kb: modcomplete.kb.KnowledgeBase, "
        "model: modcomplete.model.SystemModel | modcomplete.matcher.Mentions) "
        "-> modcomplete.matcher.MatchResult"
    ),
    "match_clause": (
        "(clause: modcomplete.gherkin.Clause, template: modcomplete.kb.ClauseTemplate, "
        "mentions: modcomplete.matcher.Mentions, *, "
        "owner_role: str | None = None, scope: str | None = None) -> modcomplete.matcher.ClauseMatches"
    ),
    "lookup_elements": (
        "(mentions: modcomplete.matcher.Mentions, phrase, metaclass: modcomplete.model.Metaclass, "
        "scope: str | None = None) -> list[str]"
    ),
    "instantiate_fragment": (
        "(fragment: modcomplete.kb.MetaFragment, "
        "binding_sets: tuple[tuple[modcomplete.matcher.Binding, ...], ...], "
        "model: modcomplete.model.SystemModel, requirement_id: str) "
        "-> tuple[tuple[str, modcomplete.model.Transition], ...]"
    ),
    "check_acceptability": (
        "(result: modcomplete.generator.CompletionResult) -> list[modcomplete.generator.Finding]"
    ),
    "build_trace": (
        "(match: modcomplete.matcher.MatchResult, transition_ids: tuple[str, ...], "
        "text: str) -> modcomplete.trace.TraceRecord"
    ),
    "emit_requirement_diagram": "(record: modcomplete.trace.TraceRecord) -> str | None",
    "complete_model": (
        "(model: modcomplete.model.SystemModel, corpus: list[modcomplete.gherkin.RequirementDoc], "
        "kb: modcomplete.kb.KnowledgeBase) -> modcomplete.generator.CompletionResult"
    ),
}


def test_package_exports():
    assert modcomplete.__all__ == PACKAGE_ALL
    assert all(hasattr(modcomplete, name) for name in PACKAGE_ALL)


def test_matcher_exports():
    assert matcher.__all__ == MATCHER_ALL
    assert all(hasattr(matcher, name) for name in MATCHER_ALL)


def test_oracle_match_is_loaded_on_first_read():
    """``oracle_match`` is exported by the package but lives in
    ``modcomplete.oracle``, which a module ``__getattr__`` imports the first
    time the name is read; ``matcher`` no longer exports it. Other names
    still fail as usual."""
    from modcomplete import oracle_match
    from modcomplete.oracle import oracle_match as defined

    assert oracle_match is defined
    assert modcomplete.oracle_match is defined
    assert not hasattr(matcher, "oracle_match")
    for module in (modcomplete, matcher):
        assert not hasattr(module, "nope")
        with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute 'nope'"):
            module.nope


def test_oracle_shares_only_records_with_the_matcher():
    """The reference oracle bounds spans, rejoins clauses, cuts the
    elliptical tail and drops repeated binding sets with its own code, so a
    bug in the matcher's span bounds, ``merge_clauses``,
    ``_tail_template`` or ``_distinct`` cannot hide from the differential
    tests. From ``matcher`` it takes only records."""
    from modcomplete import oracle

    helpers = (matcher.merge_clauses, matcher._tail_template, matcher._distinct)
    own = (oracle._oracle_join, oracle._oracle_tail, oracle._oracle_unique)
    assert all(mine is not theirs for mine in own for theirs in helpers)
    taken = [alias.name for node in ast.walk(ast.parse(inspect.getsource(oracle)))
             if isinstance(node, ast.ImportFrom) and node.module == "matcher" for alias in node.names]
    assert "MatchResult" in taken
    assert [name for name in taken if not inspect.isclass(getattr(matcher, name))] == []


def test_signatures():
    actual = {name: str(inspect.signature(getattr(modcomplete, name))) for name in SIGNATURES}
    assert actual == SIGNATURES


def test_replaceable_types():
    """No exported type is a dataclass, so ``dataclasses.replace`` works on
    none of them: every record is a ``NamedTuple``, rebuilt with ``_replace``."""
    exported = [getattr(modcomplete, name) for name in PACKAGE_ALL]
    assert not [t for t in exported if isinstance(t, type) and is_dataclass(t)]
    for t in (modcomplete.Transition, modcomplete.StateMachine, modcomplete.Block,
              modcomplete.SystemModel, modcomplete.TraceRecord):
        assert issubclass(t, tuple) and hasattr(t, "_replace")
