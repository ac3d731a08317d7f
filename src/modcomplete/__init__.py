"""modcomplete: complete partial state-machine models from BDD requirements.

The pipeline parses Given-When-Then requirements, matches them against a
knowledge base of requirement templates, binds template slots to model
elements, and generates state-machine transitions merged into the model,
with full traceability records and acceptability checks.
"""

from .errors import ModcompleteError
from .gherkin import (
    Clause,
    RequirementAST,
    RequirementDoc,
    parse_corpus,
    parse_requirement,
    tokenize,
)
from .generator import (
    CompletionReport,
    CompletionResult,
    ConflictRecord,
    Finding,
    RequirementOutcome,
    StateNotInOwnerMachine,
    check_acceptability,
    complete_model,
    instantiate_fragment,
)
from .kb import (
    ClauseTemplate,
    KnowledgeBase,
    MetaFragment,
    MetaReq,
    SlotPattern,
    default_kb,
    parse_kb,
    serialize_kb,
)
from .matcher import (
    AmbiguousMatch,
    Binding,
    MatchResult,
    NoMatch,
    match_clause,
    match_requirement,
)
from .model import (
    Block,
    Metaclass,
    SchemaError,
    SendEffect,
    Signal,
    StateMachine,
    SystemModel,
    Transition,
    ValidationError,
    load_model,
    lookup_elements,
    save_model,
)
from .normalize import normalize_phrase, normalize_signal_phrase
from .trace import TraceRecord, build_trace, emit_requirement_diagram, emit_trace_json

__version__ = "0.1.0"

__all__ = [
    "ModcompleteError",
    "Clause",
    "RequirementAST",
    "RequirementDoc",
    "parse_corpus",
    "parse_requirement",
    "tokenize",
    "CompletionReport",
    "CompletionResult",
    "ConflictRecord",
    "Finding",
    "RequirementOutcome",
    "StateNotInOwnerMachine",
    "check_acceptability",
    "complete_model",
    "instantiate_fragment",
    "ClauseTemplate",
    "KnowledgeBase",
    "MetaFragment",
    "MetaReq",
    "SlotPattern",
    "default_kb",
    "parse_kb",
    "serialize_kb",
    "AmbiguousMatch",
    "Binding",
    "MatchResult",
    "NoMatch",
    "match_clause",
    "match_requirement",
    "normalize_phrase",
    "normalize_signal_phrase",
    "oracle_match",
    "Block",
    "Metaclass",
    "SchemaError",
    "SendEffect",
    "Signal",
    "StateMachine",
    "SystemModel",
    "Transition",
    "ValidationError",
    "load_model",
    "lookup_elements",
    "save_model",
    "TraceRecord",
    "build_trace",
    "emit_requirement_diagram",
    "emit_trace_json",
    "__version__",
]


def __getattr__(name: str):
    # PEP 562: ``oracle_match`` stays exported, but its module is loaded only
    # the first time it is read; no run imports it.
    if name == "oracle_match":
        from .oracle import oracle_match

        return oracle_match
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
