"""The record types' value contract: fields in order, defaults, attribute
access, equality, hashing, ``repr`` and immutability.

Each record is pinned by one sample value, so a change of representation
(say, from a dataclass to a ``NamedTuple``) cannot change how callers see it.
"""

from __future__ import annotations

import subprocess
import sys
import typing
from pathlib import Path

import pytest

from modcomplete import generator, gherkin, kb, matcher, model, trace
from modcomplete.generator import (
    CompletionReport,
    CompletionResult,
    ConflictRecord,
    ConflictVariant,
    Finding,
    MergeEntry,
    RequirementOutcome,
    UnmatchedEntry,
)
from modcomplete.gherkin import (
    Clause,
    RequirementAST,
    RequirementDoc,
    Token,
)
from modcomplete.kb import (
    ClauseTemplate,
    KnowledgeBase,
    Literal,
    MetaFragment,
    MetaReq,
    OptionalLiteral,
    SlotPattern,
)
from modcomplete.matcher import (
    Binding,
    ClauseFailure,
    ClauseMatches,
    MatchResult,
    MetaReqDiagnostic,
    SpanAmbiguity,
)
from modcomplete.model import (
    Block,
    Metaclass,
    SendEffect,
    Signal,
    StateMachine,
    SystemModel,
    Transition,
)
from modcomplete.trace import SatisfyLink, TraceBinding, TraceRecord

_OTHER = "<other>"

TOKEN = Token("Train", "train", 1)
GIVEN = Token("Given", "given", 0)
DOC = RequirementDoc("R1", "Given a Train")
CLAUSE = Clause((TOKEN,), GIVEN)
LITERAL = Literal("in")
SLOT = SlotPattern(Metaclass.STATE, "s")
TEMPLATE = ClauseTemplate((LITERAL, SLOT))
FRAGMENT = MetaFragment("F1", "b", "s", "t", "g", (("e", "d"),))
METAREQ = MetaReq("M1", (TEMPLATE,), (), (), FRAGMENT)
BINDING = Binding("b", Metaclass.BLOCK, "the Brake", "Brake")
MATCH = MatchResult("R1", "M1", ((BINDING,),))
FAILURE = ClauseFailure(2, 3, "no element", "s", "fast")
EFFECT = SendEffect("Stop", "Brake")
TRANSITION = Transition("abc", "a", "b", "Go", None, (EFFECT,), ("R1",))
MACHINE = StateMachine(("a",), (), "a")
MODEL = SystemModel("m")
INSTANCE = (("Brake", TRANSITION),)
ENTRY = MergeEntry("Brake", "abc", ("R1",))
VARIANT = ConflictVariant("b", (EFFECT,), ("R1",))
REPORT = CompletionReport(added=(ENTRY,))
TRACE_BINDING = TraceBinding("b", Metaclass.BLOCK, "Brake")
LINK = SatisfyLink("Brake", Metaclass.BLOCK, ("b",))

# (type, sample fields in declaration order, repr of the sample,
#  fields of the smallest construction, repr of that construction)
RECORDS = [
    (Token, dict(text="Train", lower="train", index=1),
     "Token(text='Train', lower='train', index=1)",
     None, None),
    (RequirementDoc, dict(id="R1", text="Given a Train"),
     "RequirementDoc(id='R1', text='Given a Train')", None, None),
    (Clause, dict(words=(TOKEN,), lead=GIVEN),
     "Clause(words=(Token(text='Train', lower='train', index=1),), "
     "lead=Token(text='Given', lower='given', index=0))",
     None, None),
    (RequirementAST, dict(id="R1", given=(CLAUSE,), when=(), then=()),
     "RequirementAST(id='R1', given=(Clause(words=(Token(text='Train', lower='train', index=1),), "
     "lead=Token(text='Given', lower='given', index=0)),), when=(), then=())",
     None, None),
    (Literal, dict(word="in"), "Literal(word='in')", None, None),
    (OptionalLiteral, dict(words=("a", "the")), "OptionalLiteral(words=('a', 'the'))", None, None),
    (SlotPattern, dict(metaclass=Metaclass.STATE, role="s"),
     "SlotPattern(metaclass=<Metaclass.STATE: 'State'>, role='s')", None, None),
    (ClauseTemplate, dict(items=(LITERAL, SLOT)),
     "ClauseTemplate(items=(Literal(word='in'), "
     "SlotPattern(metaclass=<Metaclass.STATE: 'State'>, role='s')))",
     None, None),
    (MetaFragment, dict(id="F1", owner_role="b", source_role="s", target_role="t", trigger_role="g",
                        effect_specs=(("e", "d"),)),
     "MetaFragment(id='F1', owner_role='b', source_role='s', target_role='t', trigger_role='g', "
     "effect_specs=(('e', 'd'),))",
     dict(id="F1", owner_role="b", source_role="s", target_role="t"),
     "MetaFragment(id='F1', owner_role='b', source_role='s', target_role='t', trigger_role=None, "
     "effect_specs=())"),
    (MetaReq, dict(id="M1", given=(TEMPLATE,), when=(), then=(), fragment=FRAGMENT),
     "MetaReq(id='M1', given=(ClauseTemplate(items=("
     "Literal(word='in'), SlotPattern(metaclass=<Metaclass.STATE: 'State'>, role='s'))),), "
     "when=(), then=(), fragment=MetaFragment(id='F1', owner_role='b', source_role='s', "
     "target_role='t', trigger_role='g', effect_specs=(('e', 'd'),)))",
     None, None),
    (KnowledgeBase, dict(metareqs=(METAREQ,), fragments=(FRAGMENT,)),
     "KnowledgeBase(metareqs=(MetaReq(id='M1', given=(ClauseTemplate("
     "items=(Literal(word='in'), SlotPattern(metaclass=<Metaclass.STATE: 'State'>, "
     "role='s'))),), when=(), then=(), fragment=MetaFragment(id='F1', owner_role='b', "
     "source_role='s', target_role='t', trigger_role='g', effect_specs=(('e', 'd'),))),), "
     "fragments=(MetaFragment(id='F1', owner_role='b', source_role='s', target_role='t', "
     "trigger_role='g', effect_specs=(('e', 'd'),)),))",
     dict(), "KnowledgeBase(metareqs=(), fragments=())"),
    (Binding, dict(role="b", metaclass=Metaclass.BLOCK, phrase="the Brake", element="Brake"),
     "Binding(role='b', metaclass=<Metaclass.BLOCK: 'Block'>, phrase='the Brake', element='Brake')",
     None, None),
    (MatchResult, dict(requirement_id="R1", metareq_id="M1", binding_sets=((BINDING,),)),
     "MatchResult(requirement_id='R1', metareq_id='M1', binding_sets=((Binding(role='b', "
     "metaclass=<Metaclass.BLOCK: 'Block'>, phrase='the Brake', element='Brake'),),))",
     None, None),
    (SpanAmbiguity, dict(role="b", metaclass=Metaclass.BLOCK, phrase="Brake",
                         elements=("Brake", "Emergency Brake")),
     "SpanAmbiguity(role='b', metaclass=<Metaclass.BLOCK: 'Block'>, phrase='Brake', "
     "elements=('Brake', 'Emergency Brake'))",
     None, None),
    (ClauseFailure, dict(item_index=2, word_index=3, detail="no element", role="s", phrase="fast"),
     "ClauseFailure(item_index=2, word_index=3, detail='no element', role='s', phrase='fast')",
     dict(item_index=0, word_index=1, detail="d"),
     "ClauseFailure(item_index=0, word_index=1, detail='d', role=None, phrase=None)"),
    (ClauseMatches, dict(maps=((BINDING,),), failure=FAILURE),
     "ClauseMatches(maps=((Binding(role='b', metaclass=<Metaclass.BLOCK: 'Block'>, "
     "phrase='the Brake', element='Brake'),),), failure=ClauseFailure(item_index=2, "
     "word_index=3, detail='no element', role='s', phrase='fast'))",
     dict(maps=()), "ClauseMatches(maps=(), failure=None)"),
    (MetaReqDiagnostic, dict(metareq_id="M1", reason="no fit", section="Given", template_index=0,
                             role="s", phrase="fast"),
     "MetaReqDiagnostic(metareq_id='M1', reason='no fit', section='Given', template_index=0, "
     "role='s', phrase='fast')",
     dict(metareq_id="M1", reason="r"),
     "MetaReqDiagnostic(metareq_id='M1', reason='r', section=None, template_index=None, "
     "role=None, phrase=None)"),
    (Signal, dict(name="Stop", display="Stop()"), "Signal(name='Stop', display='Stop()')",
     dict(name="Stop"), "Signal(name='Stop', display=None)"),
    (SendEffect, dict(signal="Stop", target_block="Brake"),
     "SendEffect(signal='Stop', target_block='Brake')", None, None),
    (Transition, dict(id="abc", source="a", target="b", trigger="Go", guard="g", effects=(EFFECT,),
                      provenance=("R1",)),
     "Transition(id='abc', source='a', target='b', trigger='Go', guard='g', "
     "effects=(SendEffect(signal='Stop', target_block='Brake'),), provenance=('R1',))",
     dict(id="abc", source="a", target="b"),
     "Transition(id='abc', source='a', target='b', trigger=None, guard=None, effects=(), "
     "provenance=())"),
    (StateMachine, dict(states=("a",), transitions=(TRANSITION,), initial="a"),
     "StateMachine(states=('a',), transitions=(Transition(id='abc', "
     "source='a', target='b', trigger='Go', guard=None, effects=(SendEffect(signal='Stop', "
     "target_block='Brake'),), provenance=('R1',)),), initial='a')",
     dict(), "StateMachine(states=(), transitions=(), initial=None)"),
    (Block, dict(name="Brake", parts=("Pad",), state_machine=MACHINE, receivable_signals=("Stop",)),
     "Block(name='Brake', parts=('Pad',), state_machine=StateMachine(states=('a',), "
     "transitions=(), initial='a'), receivable_signals=('Stop',))",
     dict(name="Brake"),
     "Block(name='Brake', parts=(), state_machine=None, receivable_signals=None)"),
    (SystemModel, dict(name="m", blocks=(Block("Brake"),), signals=(Signal("Stop"),)),
     "SystemModel(name='m', blocks=(Block(name='Brake', parts=(), state_machine=None, "
     "receivable_signals=None),), signals=(Signal(name='Stop', display=None),))",
     dict(name="m"), "SystemModel(name='m', blocks=(), signals=())"),
    (MergeEntry, dict(owner="Brake", transition_id="abc", requirement_ids=("R1",)),
     "MergeEntry(owner='Brake', transition_id='abc', requirement_ids=('R1',))", None, None),
    (ConflictVariant, dict(target="b", effects=(EFFECT,), requirement_ids=("R1",)),
     "ConflictVariant(target='b', effects=(SendEffect(signal='Stop', target_block='Brake'),), "
     "requirement_ids=('R1',))",
     None, None),
    (ConflictRecord, dict(owner="Brake", source="a", trigger="Go", variants=(VARIANT,),
                          requirement_ids=("R1",)),
     "ConflictRecord(owner='Brake', source='a', trigger='Go', variants=(ConflictVariant("
     "target='b', effects=(SendEffect(signal='Stop', target_block='Brake'),), "
     "requirement_ids=('R1',)),), requirement_ids=('R1',))",
     None, None),
    (UnmatchedEntry, dict(requirement_id="R1", diagnostics=("no rule",)),
     "UnmatchedEntry(requirement_id='R1', diagnostics=('no rule',))", None, None),
    (CompletionReport, dict(added=(ENTRY,), duplicates=(ENTRY,), conflicts=(), unmatched=()),
     "CompletionReport(added=(MergeEntry(owner='Brake', transition_id='abc', "
     "requirement_ids=('R1',)),), duplicates=(MergeEntry(owner='Brake', transition_id='abc', "
     "requirement_ids=('R1',)),), conflicts=(), unmatched=())",
     dict(), "CompletionReport(added=(), duplicates=(), conflicts=(), unmatched=())"),
    (RequirementOutcome, dict(doc=DOC, match=MATCH, error=None, instance=INSTANCE),
     "RequirementOutcome(doc=RequirementDoc(id='R1', text='Given a Train'), "
     "match=MatchResult(requirement_id='R1', metareq_id='M1', binding_sets=(("
     "Binding(role='b', metaclass=<Metaclass.BLOCK: 'Block'>, phrase='the Brake', "
     "element='Brake'),),)), error=None, instance=(('Brake', "
     "Transition(id='abc', source='a', target='b', trigger='Go', guard=None, "
     "effects=(SendEffect(signal='Stop', target_block='Brake'),), provenance=('R1',))),))",
     dict(doc=DOC),
     "RequirementOutcome(doc=RequirementDoc(id='R1', text='Given a Train'), match=None, "
     "error=None, instance=None)"),
    (CompletionResult, dict(model=MODEL, report=REPORT, trace=(), outcomes=()),
     "CompletionResult(model=SystemModel(name='m', blocks=(), signals=()), "
     "report=CompletionReport(added=(MergeEntry(owner='Brake', transition_id='abc', "
     "requirement_ids=('R1',)),), duplicates=(), conflicts=(), unmatched=()), trace=(), "
     "outcomes=())",
     None, None),
    (Finding, dict(kind="Conflict", severity="error", message="m", requirement_ids=("R1",)),
     "Finding(kind='Conflict', severity='error', message='m', requirement_ids=('R1',))",
     dict(kind="Conflict", severity="error", message="m"),
     "Finding(kind='Conflict', severity='error', message='m', requirement_ids=())"),
    (TraceBinding, dict(role="b", metaclass=Metaclass.BLOCK, element="Brake"),
     "TraceBinding(role='b', metaclass=<Metaclass.BLOCK: 'Block'>, element='Brake')", None, None),
    (SatisfyLink, dict(element="Brake", metaclass=Metaclass.BLOCK, roles=("b",), stereotype="satisfy"),
     "SatisfyLink(element='Brake', metaclass=<Metaclass.BLOCK: 'Block'>, roles=('b',), "
     "stereotype='satisfy')",
     dict(element="Brake", metaclass=Metaclass.BLOCK, roles=()),
     "SatisfyLink(element='Brake', metaclass=<Metaclass.BLOCK: 'Block'>, roles=(), "
     "stereotype='satisfy')"),
    (TraceRecord, dict(requirement_id="R1", metareq_id="M1", text="text", bindings=(TRACE_BINDING,),
                       generated=("abc",), satisfies=(LINK,)),
     "TraceRecord(requirement_id='R1', metareq_id='M1', text='text', bindings=(TraceBinding("
     "role='b', metaclass=<Metaclass.BLOCK: 'Block'>, element='Brake'),), generated=('abc',), "
     "satisfies=(SatisfyLink(element='Brake', metaclass=<Metaclass.BLOCK: 'Block'>, "
     "roles=('b',), stereotype='satisfy'),))",
     None, None),
]

# The types whose values callers rebuild with ``_replace``.
REPLACEABLE = {Transition, StateMachine, Block, SystemModel, TraceRecord}

_ids = [spec[0].__name__ for spec in RECORDS]


def test_every_record_type_is_pinned():
    defined = {
        obj
        for module in (gherkin, kb, matcher, model, generator, trace)
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
        and hasattr(obj, "_fields") and not obj.__name__.startswith("_")
    }
    assert len(RECORDS) == len(defined) == 34
    assert {spec[0] for spec in RECORDS} == defined


@pytest.mark.parametrize("cls, fields, text, _min, _min_text", RECORDS, ids=_ids)
def test_fields_in_order(cls, fields, text, _min, _min_text):
    value = cls(**fields)
    assert cls(*fields.values()) == value
    for name, field_value in fields.items():
        assert getattr(value, name) == field_value


@pytest.mark.parametrize("cls, fields, text, _min, _min_text", RECORDS, ids=_ids)
def test_equality_and_hash(cls, fields, text, _min, _min_text):
    value = cls(**fields)
    assert value == cls(**fields)
    assert not value != cls(**fields)
    assert hash(value) == hash(cls(**fields)) == hash(tuple(fields.values()))
    for name in fields:
        changed = cls(**{**fields, name: _OTHER})
        assert changed != value
        assert not changed == value


@pytest.mark.parametrize("cls, fields, text, minimal, minimal_text", RECORDS, ids=_ids)
def test_repr(cls, fields, text, minimal, minimal_text):
    assert repr(cls(**fields)) == text
    if minimal is not None:
        assert repr(cls(**minimal)) == minimal_text


@pytest.mark.parametrize("cls, fields, text, _min, _min_text", RECORDS, ids=_ids)
def test_immutable(cls, fields, text, _min, _min_text):
    value = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, _OTHER)
    with pytest.raises(AttributeError):
        value.unknown_attribute = _OTHER
    assert not hasattr(value, "unknown_attribute")
    assert tuple(getattr(value, name) for name in fields) == tuple(fields.values())


@pytest.mark.parametrize(
    "cls, fields", [(spec[0], spec[1]) for spec in RECORDS if spec[0] in REPLACEABLE],
    ids=[spec[0].__name__ for spec in RECORDS if spec[0] in REPLACEABLE],
)
def test_replace_keeps_the_type(cls, fields):
    value = cls(**fields)
    first = next(iter(fields))
    assert value._replace() == value and type(value._replace()) is cls
    changed = value._replace(**{first: _OTHER})
    assert changed == cls(**{**fields, first: _OTHER}) and type(changed) is cls
    assert value == cls(**fields)


@pytest.mark.parametrize("cls, fields, text, _min, _min_text", RECORDS, ids=_ids)
def test_field_types_are_evaluated(cls, fields, text, _min, _min_text):
    """The record modules do not postpone annotations, so each field type
    is the type itself, never a string or a ``typing.ForwardRef``."""
    annotations = cls.__annotations__
    assert list(annotations) == list(fields)
    assert not [t for t in annotations.values() if isinstance(t, (str, typing.ForwardRef))]


COUNT_FORWARD_REFS = """
import sys, typing
created = []
init = typing.ForwardRef.__init__
typing.ForwardRef.__init__ = lambda self, *args, **kwargs: created.append(args) or init(self, *args, **kwargs)
sys.path.insert(0, sys.argv[1])
import modcomplete.cli
print("forward refs", len(created))
"""


def test_import_creates_no_forward_refs():
    """Counts, times nothing: a fresh ``import modcomplete.cli`` makes no
    ``typing.ForwardRef``, each of which would ``compile()`` its string."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-S", "-c", COUNT_FORWARD_REFS, src],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["forward refs 0"]
