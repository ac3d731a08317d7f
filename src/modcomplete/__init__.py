"""modcomplete: complete partial state-machine models from BDD requirements.

The pipeline parses Given-When-Then requirements, matches them against a
knowledge base of requirement templates, binds template slots to model
elements, and generates state-machine transitions merged into the model,
with full traceability records and acceptability checks.

``import modcomplete`` loads none of the layers. Each exported name, and
each layer module named in ``_EXPORTS``, imports its module the first time
it is read (PEP 562), so a caller pays only for the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each layer module and the names the package exports from it, in the order
#: of ``__all__``.
_EXPORTS = {
    "errors": ("ModcompleteError",),
    "gherkin": ("Clause", "RequirementAST", "RequirementDoc", "parse_corpus", "parse_requirement", "tokenize"),
    "generator": (
        "CompletionReport", "CompletionResult", "ConflictRecord", "Finding", "RequirementOutcome",
        "StateNotInOwnerMachine", "check_acceptability", "complete_model", "instantiate_fragment",
    ),
    "kb": (
        "ClauseTemplate", "KnowledgeBase", "MetaFragment", "MetaReq", "SlotPattern",
        "default_kb", "parse_kb",
    ),
    "matcher": (
        "AmbiguousMatch", "Binding", "MatchResult", "Mentions", "NoMatch",
        "lookup_elements", "match_clause", "match_requirement",
    ),
    "normalize": ("normalize_phrase", "normalize_signal_phrase"),
    "oracle": ("oracle_match",),
    "model": (
        "Block", "Metaclass", "SchemaError", "SendEffect", "Signal", "StateMachine",
        "SystemModel", "Transition", "ValidationError", "load_model", "save_model",
    ),
    "trace": ("TraceRecord", "build_trace", "emit_requirement_diagram", "emit_trace_json"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
