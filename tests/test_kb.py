from __future__ import annotations

import random

import pytest

from modcomplete import default_kb, parse_kb, serialize_kb
from modcomplete.gherkin import ClauseKind
from modcomplete.kb import (
    DuplicateRole,
    KBSyntaxError,
    Literal,
    OptionalLiteral,
    SlotPattern,
    UnknownFragment,
    UntypedRole,
)
from modcomplete.model import Metaclass

from support import random_kb


def test_default_kb_shape():
    kb = default_kb()
    assert len(kb.metareqs) == 3
    assert len(kb.fragments) == 3
    assert [m.id for m in kb.metareqs] == ["MR1", "MR2", "MR3"]


def test_default_kb_mr1_mirrors_published_pattern():
    kb = default_kb()
    mr1 = kb.metareq_by_id("MR1")
    assert len(mr1.given) == 1 and len(mr1.when) == 1 and len(mr1.then) == 2
    roles = [s.role for s in mr1.slots()]
    assert roles == [
        "context1", "starting", "context2", "event",
        "context3", "operation", "context4", "final",
    ]
    f1 = kb.fragment_by_id("F1")
    assert f1.owner_role == "context1"
    assert f1.source_role == "starting"
    assert f1.target_role == "final"
    assert f1.trigger_role == "event"
    assert f1.effect_specs == (("operation", "context4"),)


def test_parse_kb_round_trips_default():
    kb = default_kb()
    assert parse_kb(serialize_kb(kb)) == kb


def test_round_trip_randomized():
    rng = random.Random(77)
    for _ in range(120):
        kb = random_kb(rng)
        text = serialize_kb(kb)
        assert parse_kb(text) == kb


def test_fragment_roles_subset_of_slots():
    kb = default_kb()
    for metareq in kb.metareqs:
        slot_types = metareq.slot_types()
        fragment = kb.fragment_by_id(metareq.fragment)
        for role, metaclass in fragment.roles():
            assert slot_types[role] is metaclass


def test_empty_document_is_valid():
    kb = parse_kb("")
    assert kb.metareqs == () and kb.fragments == ()


def test_untyped_role_rejected():
    text = (
        'metareq M -> F:\n'
        '  given: "<<Block as context1>> in <<State as starting>>"\n'
        '  then:  "goes in <<State as final>>"\n'
        "fragment F:\n"
        "  owner: context9   source: starting   target: final\n"
    )
    with pytest.raises(UntypedRole, match="context9"):
        parse_kb(text)


def test_mistyped_role_rejected():
    text = (
        'metareq M -> F:\n'
        '  given: "<<Block as context1>> in <<State as starting>>"\n'
        '  then:  "goes in <<State as final>>"\n'
        "fragment F:\n"
        "  owner: starting   source: starting   target: final\n"
    )
    with pytest.raises(UntypedRole, match="starting"):
        parse_kb(text)


def test_unknown_fragment_rejected():
    text = (
        'metareq M -> FX:\n'
        '  given: "<<Block as context1>> in <<State as starting>>"\n'
        '  then:  "goes in <<State as final>>"\n'
    )
    with pytest.raises(UnknownFragment):
        parse_kb(text)


def test_duplicate_role_rejected():
    text = (
        'metareq M -> F:\n'
        '  given: "<<Block as context1>> in <<State as context1>>"\n'
        '  then:  "goes in <<State as final>>"\n'
        "fragment F:\n"
        "  owner: context1   source: context1   target: final\n"
    )
    with pytest.raises(DuplicateRole):
        parse_kb(text)


def test_duplicate_metareq_id_rejected():
    body = (
        '  given: "<<Block as {0}>> in <<State as {1}>>"\n'
        '  then:  "goes in <<State as {2}>>"\n'
    )
    text = (
        "metareq M -> F:\n" + body.format("b1", "s1", "s2")
        + "metareq M -> F:\n" + body.format("b2", "s3", "s4")
        + "fragment F:\n  owner: b1   source: s1   target: s2\n"
    )
    with pytest.raises(KBSyntaxError, match="duplicate metareq id"):
        parse_kb(text)


def test_syntax_error_carries_line():
    try:
        parse_kb("metareq M -> F:\n  nonsense here\n")
    except KBSyntaxError as exc:
        assert exc.line == 2
    else:
        pytest.fail("expected KBSyntaxError")


def test_keyword_inside_template_rejected():
    text = (
        'metareq M -> F:\n'
        '  given: "<<Block as b>> and <<State as s>>"\n'
        '  then:  "goes in <<State as f>>"\n'
        "fragment F:\n  owner: b   source: s   target: f\n"
    )
    with pytest.raises(KBSyntaxError, match="keyword"):
        parse_kb(text)


def test_template_without_slot_rejected():
    text = (
        'metareq M -> F:\n'
        '  given: "<<Block as b>> in <<State as s>>"\n'
        '  then:  "nothing bound here"\n'
        "fragment F:\n  owner: b   source: s   target: s\n"
    )
    with pytest.raises(KBSyntaxError, match="slot"):
        parse_kb(text)


def test_bare_article_literal_becomes_optional_group():
    text = (
        'metareq M -> F:\n'
        '  given: "<<Block as b>> in the <<State as s>>"\n'
        '  then:  "goes in <<State as f>>"\n'
        "fragment F:\n  owner: b   source: s   target: f\n"
    )
    kb = parse_kb(text)
    items = kb.metareqs[0].given[0].items
    assert OptionalLiteral(("a", "an", "the")) in items


def test_optional_literal_syntax():
    text = (
        'metareq M -> F:\n'
        '  given: "<<Block as b>> in <<State as s>>"\n'
        '  then:  "<<Signal as op>> (to|into)? <<Block as t>> goes in <<State as f>>"\n'
        "fragment F:\n"
        "  owner: b   source: s   target: f\n"
        "  effect: op -> t\n"
    )
    kb = parse_kb(text)
    then_items = kb.metareqs[0].then[0].items
    assert OptionalLiteral(("to", "into")) in then_items
    assert Literal("goes") in then_items
    assert SlotPattern(Metaclass.SIGNAL, "op") in then_items
    assert kb.metareqs[0].then[0].kind is ClauseKind.THEN
