from __future__ import annotations

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcomplete import default_kb, parse_kb, serialize_kb
from modcomplete.gherkin import ParseError, RequirementDoc, parse_requirement
from modcomplete.kb import (
    DEFAULT_KB_TEXT,
    SIZE_LIMIT,
    ClauseTemplate,
    DuplicateRole,
    KBSyntaxError,
    KnowledgeBase,
    Literal,
    OptionalLiteral,
    SlotPattern,
    UnknownFragment,
    UntypedRole,
    _template_subsumes,
    shadowed_rules,
)
from modcomplete.matcher import AmbiguousMatch, Mentions, NoMatch, match_requirement
from modcomplete.model import Metaclass, load_model
from modcomplete.normalize import ARTICLES

from conftest import FIXTURES
from support import (
    random_kb,
    random_model,
    random_multi_kb,
    random_requirement,
    reference_template_subsumes,
    rendered_requirement,
    sized_rule,
    with_articles,
)


def slots(metareq):
    """A rule's slots, given to then, in template order."""
    templates = metareq.given + metareq.when + metareq.then
    return [item for template in templates for item in template.items if isinstance(item, SlotPattern)]


def test_default_kb_shape():
    kb = default_kb()
    assert len(kb.metareqs) == 3
    assert len(kb.fragments) == 3
    assert [m.id for m in kb.metareqs] == ["MR1", "MR2", "MR3"]


def test_default_kb_mr1_mirrors_published_pattern():
    kb = default_kb()
    mr1 = kb.metareqs[0]
    assert len(mr1.given) == 1 and len(mr1.when) == 1 and len(mr1.then) == 2
    roles = [s.role for s in slots(mr1)]
    assert roles == [
        "context1", "starting", "context2", "event",
        "context3", "operation", "context4", "final",
    ]
    f1 = mr1.fragment
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
        slot_types = {s.role: s.metaclass for s in slots(metareq)}
        for role, metaclass in metareq.fragment.roles():
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


RULE = (
    "metareq M -> F:\n"
    '  given: "<<Block as b>> in <<State as s>>"\n'
    '  then:  "goes in <<State as t>>"\n'
)
FRAGMENT = "fragment F:\n  owner: b   source: s   target: t\n"


@pytest.mark.parametrize("text, line, column, message", [
    (RULE.replace(" in ", " (in on)? "), 2, 26, "bad optional literal '(in on)?'"),
    (RULE.replace(" in ", " (in|or)? "), 2, 26, "keywords cannot appear inside templates"),
    (RULE + FRAGMENT + "  bogus\n", 6, 1, "expected fragment key, got 'bogus'"),
    (RULE + FRAGMENT.replace("owner: b", "owner:"), 5, 3, "fragment key 'owner' has no value"),
    (RULE + FRAGMENT + "  effect: op\n", 6, 3, "effect must be 'signal_role -> block_role', got 'op'"),
    (RULE + FRAGMENT.replace("target: t", "target: t-1"), 5, 26, "bad role name 't-1'"),
    (RULE + FRAGMENT + "  owner: b\n", 6, 3, "fragment key 'owner' given twice"),
    (RULE + FRAGMENT + FRAGMENT, 6, 1, "duplicate fragment id 'F'"),
    (RULE + FRAGMENT.replace("   target: t", ""), 4, 1, "fragment 'F' lacks 'target'"),
    ("\n".join(RULE.splitlines()[:2]) + "\n" + FRAGMENT, 1, 1,
     "metareq 'M' needs at least one given and one then template"),
    (RULE.replace("<<Block as b>>", "<<Thing as b>>"), 2, 11, "unknown metaclass 'Thing'"),
    (RULE.replace(" in ", " in, "), 2, 26, "bad literal 'in,'"),
    (RULE.replace("goes in <<State as t>>", "goes in"), 3, 11, "then template declares no slot"),
    (FRAGMENT + RULE.splitlines(keepends=True)[1], 3, 1, "clause template outside a metareq block"),
    (RULE + "  nonsense here\n", 4, 1, "unrecognized line 'nonsense here'"),
    (RULE + RULE + FRAGMENT, 4, 1, "duplicate metareq id 'M'"),
])
def test_each_syntax_error_names_its_line_and_column(text, line, column, message):
    with pytest.raises(KBSyntaxError) as info:
        parse_kb(text)
    assert type(info.value) is KBSyntaxError
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"line {line}, column {column}: {message}"


@pytest.mark.parametrize("text, error, line, message", [
    (FRAGMENT + RULE.replace("-> F", "-> FX"), UnknownFragment, 3,
     "metareq 'M' maps to undefined fragment 'FX'"),
    (RULE + FRAGMENT.replace("owner: b", "owner: nobody"), UntypedRole, 1,
     "fragment 'F' uses role 'nobody' that metareq 'M' never declares"),
    (RULE + FRAGMENT.replace("owner: b", "owner: s"), UntypedRole, 1,
     "fragment 'F' needs role 's' as Block, but metareq 'M' declares it as State"),
    (FRAGMENT.replace("target: t", "target: s") + RULE.replace("as t>>", "as s>>"), DuplicateRole, 3,
     "metareq 'M' declares role 's' twice"),
])
def test_each_rule_error_names_its_metareq_line(text, error, line, message):
    """A rule's fragment and role errors are KB syntax errors that point at
    the rule's ``metareq`` header."""
    with pytest.raises(error) as info:
        parse_kb(text)
    assert type(info.value) is error and isinstance(info.value, KBSyntaxError)
    assert (info.value.line, info.value.column) == (line, 1)
    assert str(info.value) == f"line {line}, column 1: {message}"


def test_a_rule_may_reach_the_size_limit():
    (metareq,) = parse_kb(sized_rule(10, 46)).metareqs
    assert len(metareq.then) == 46 and sum(len(t.items) for t in metareq.then) == SIZE_LIMIT


@pytest.mark.parametrize("items, templates, line, message", [
    (101, 1, 3, "then section has 101 items, more than 100"),
    (3, 50, 52, "then section has 101 items, more than 100"),
])
def test_a_rule_past_the_size_limit_is_rejected_with_its_line(items, templates, line, message):
    with pytest.raises(KBSyntaxError) as info:
        parse_kb(sized_rule(items, templates))
    assert info.value.line == line
    assert str(info.value).endswith(message)


def test_article_words_are_dropped_from_templates():
    """A bare article, the article words of an optional group, and a group
    left empty by them are dropped; they count toward no size limit."""
    text = (
        'metareq M -> F:\n'
        '  given: "<<Block as b>> in the <<State as s>>"\n'
        '  then:  "(An|the)? goes (to|The)? in <<State as f>>' + " a" * SIZE_LIMIT + '"\n'
        "fragment F:\n  owner: b   source: s   target: f\n"
    )
    (metareq,) = parse_kb(text).metareqs
    assert metareq.given[0].items == (
        SlotPattern(Metaclass.BLOCK, "b"), Literal("in"), SlotPattern(Metaclass.STATE, "s"),
    )
    assert metareq.then[0].items == (
        Literal("goes"), OptionalLiteral(("to",)), Literal("in"), SlotPattern(Metaclass.STATE, "f"),
    )


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


SUBSUMPTION_WORDS = ["go", "to", "in"]
# Items as ``parse_kb`` returns them: no article words.
TEMPLATE_ITEMS = st.one_of(
    st.sampled_from([Literal(w) for w in SUBSUMPTION_WORDS]),
    st.lists(st.sampled_from(SUBSUMPTION_WORDS), min_size=1, max_size=3, unique=True)
    .map(lambda words: OptionalLiteral(tuple(words))),
    st.sampled_from([SlotPattern(Metaclass.BLOCK, r) for r in ("b", "o")] + [SlotPattern(Metaclass.SIGNAL, "s")]),
)
# A template's owner role: none, or one of its block roles (if it holds one).
OWNERS = st.sampled_from([None, "b", "o"])
TEMPLATES = st.lists(TEMPLATE_ITEMS, max_size=7).map(
    lambda items: ClauseTemplate(tuple(items))
)


def specializations(template: ClauseTemplate):
    """Templates that ``template`` subsumes, or nearly: each optional literal
    is dropped, kept, or pinned to one of its words."""

    def choices(item):
        if isinstance(item, OptionalLiteral):
            return st.sampled_from([(), (item,)] + [(Literal(w),) for w in item.words])
        return st.just((item,))

    return st.tuples(*map(choices, template.items)).map(
        lambda parts: ClauseTemplate(tuple(i for part in parts for i in part))
    )


@settings(max_examples=400)
@given(st.data())
def test_template_subsumption_agrees_with_the_reference_recursion(data):
    ta = data.draw(TEMPLATES)
    tb = data.draw(st.one_of(TEMPLATES, specializations(ta)))
    owners = data.draw(st.one_of(st.just((None, None)), st.tuples(OWNERS, OWNERS)))
    assert _template_subsumes(ta, tb, *owners) == reference_template_subsumes(ta, tb, *owners)


def with_twins(kb: KnowledgeBase, rng: random.Random, owner_twins: bool) -> KnowledgeBase:
    """``kb`` with each rule followed by a twin of the same templates. An
    owner twin's owner is another block slot of the rule, if it has one; an
    exact twin keeps the rule's owner."""
    rules = []
    for metareq in kb.metareqs:
        owner = metareq.fragment.owner_role
        others = [s.role for s in slots(metareq) if s.metaclass is Metaclass.BLOCK and s.role != owner]
        fragment = metareq.fragment._replace(
            id=f"T{metareq.fragment.id}", owner_role=rng.choice(others) if owner_twins and others else owner
        )
        rules += [metareq, metareq._replace(id=f"T{metareq.id}", fragment=fragment)]
    return KnowledgeBase(tuple(rules), tuple(rule.fragment for rule in rules))


def reads_alone(ast, metareq, mentions) -> str | None:
    """How ``metareq`` as the only rule reads ``ast``: "match", "ambiguous" or None."""
    try:
        match_requirement(ast, KnowledgeBase((metareq,)), mentions)
    except AmbiguousMatch:
        return "ambiguous"
    except NoMatch:
        return None
    return "match"


def test_a_twin_with_another_owner_matches_what_the_first_rule_misses():
    """The two rules of ``owner_twins_kb.txt`` read the same words, and only
    the second finds s1, in the machine of its owner Pump."""
    kb = parse_kb((FIXTURES / "owner_twins_kb.txt").read_text(encoding="utf-8"))
    model = load_model(json.dumps({"version": "1", "name": "Twins", "signals": [], "blocks": [
        {"name": "Gate", "state_machine": {"states": ["g1", "g2"], "transitions": []}},
        {"name": "Pump", "state_machine": {"states": ["s1", "s2"], "transitions": []}},
    ]}))
    ast = parse_requirement(RequirementDoc("R", "Given Gate Pump in s1, Then goes in s2."))
    assert match_requirement(ast, kb, model).metareq_id == "B"
    assert shadowed_rules(kb) == []


@pytest.mark.parametrize("owner_twins", [True, False], ids=["owner-twins", "exact-twins"])
def test_a_shadowed_rule_matches_nothing_its_shadow_misses(owner_twins):
    """Differential of ``shadowed_rules`` against the matcher: for every
    reported (high, low) pair, each requirement rendered from ``low`` that
    ``low`` alone matches is matched by ``high`` alone, or is ambiguous
    under it. Owner twins read the same words with another block's machine,
    so they are not shadows whenever a state slot follows the owners."""
    pairs = matches = 0
    for seed in range(200):
        rng = random.Random(seed)
        kb = with_twins((random_kb if seed % 2 else random_multi_kb)(rng), rng, owner_twins)
        model = random_model(rng)
        mentions = Mentions(model)
        for high, low in shadowed_rules(kb):
            pairs += 1
            for i in range(20):
                text = rendered_requirement(rng, KnowledgeBase((low,)), model)
                try:
                    ast = parse_requirement(RequirementDoc(f"R{i}", text))
                except ParseError:
                    continue
                if reads_alone(ast, low, mentions) == "match":
                    matches += 1
                    assert reads_alone(ast, high, mentions) is not None, (seed, high.id, low.id, text)
    floors = (120, 1500) if owner_twins else (300, 3600)
    assert pairs >= floors[0] and matches >= floors[1], (pairs, matches)


# ---------------------------------------------------------------------------
# Article words: the matcher skips every run of articles before it reads a
# template item, so parse_kb drops them and a rule means the same with or
# without them.
# ---------------------------------------------------------------------------

KB_SOURCES = ["default", "random", "multi"]


def twin_kb_text(rng: random.Random, source: str) -> str:
    """A KB text followed by a copy with renamed ids, whose rules each
    shadow their copy: the shadowing analysis then has pairs to find."""
    if source == "default":
        text = DEFAULT_KB_TEXT
    else:
        text = serialize_kb((random_kb if source == "random" else random_multi_kb)(rng))
    return text + "\n" + re.sub(r"\b(MR|F)(\d+)\b", r"T\1\2", text)


def template_articles(kb) -> list:
    return [
        item
        for metareq in kb.metareqs
        for template in metareq.given + metareq.when + metareq.then
        for item in template.items
        if (isinstance(item, Literal) and item.word in ARTICLES)
        or (isinstance(item, OptionalLiteral) and ARTICLES & set(item.words))
    ]


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), source=st.sampled_from(KB_SOURCES))
def test_parsed_templates_hold_no_article_word(seed, source):
    rng = random.Random(seed)
    assert template_articles(parse_kb(with_articles(rng, twin_kb_text(rng, source)))) == []


def full_outcome(ast, kb, model):
    """A match, or everything a NoMatch or AmbiguousMatch reports."""
    try:
        return match_requirement(ast, kb, model)
    except NoMatch as exc:
        return ("NoMatch", exc.diagnostics)
    except AmbiguousMatch as exc:
        return ("AmbiguousMatch", exc.metareq_id, exc.binding_sets)


@settings(max_examples=1000)
@given(seed=st.integers(0, 2**32 - 1), source=st.sampled_from(KB_SOURCES))
def test_article_words_in_templates_change_no_outcome(seed, source):
    """Spelling articles out in a KB text changes no match, diagnostic,
    ambiguity or shadowing verdict."""
    rng = random.Random(seed)
    plain_text = twin_kb_text(rng, source)
    plain, spelled = parse_kb(plain_text), parse_kb(with_articles(rng, plain_text))
    ids = lambda pairs: [(high.id, low.id) for high, low in pairs]
    assert ids(shadowed_rules(spelled)) == ids(shadowed_rules(plain))
    model = random_model(rng)
    for i in range(3):
        if source == "default":
            text = random_requirement(rng, model)
        else:
            text = rendered_requirement(rng, spelled, model)
        try:
            ast = parse_requirement(RequirementDoc(f"R{i}", text))
        except ParseError:
            continue
        assert full_outcome(ast, spelled, model) == full_outcome(ast, plain, model), text


# ---------------------------------------------------------------------------
# Which error parse_kb reports when a document has several faults.
# ---------------------------------------------------------------------------


def test_duplicate_metareq_id_is_reported_before_an_unknown_fragment():
    text = (
        "metareq A -> FX:\n" + RULE.split("\n", 1)[1]
        + RULE + RULE + FRAGMENT
    )
    with pytest.raises(KBSyntaxError, match="duplicate metareq id 'M'"):
        parse_kb(text)


def test_earlier_rules_role_error_is_reported_before_a_later_unknown_fragment():
    text = (
        RULE + FRAGMENT.replace("owner: b", "owner: nobody")
        + "metareq B -> FX:\n" + RULE.split("\n", 1)[1]
    )
    with pytest.raises(UntypedRole, match="nobody"):
        parse_kb(text)


@pytest.mark.parametrize("text, line, message", [
    # A block's fault is raised when the next header closes it, before a
    # later line is read.
    (FRAGMENT.replace("   target: t", "") + RULE + "nonsense\n", 1, "fragment 'F' lacks 'target'"),
    ("\n".join(RULE.splitlines()[:2]) + "\n" + FRAGMENT + FRAGMENT, 1,
     "metareq 'M' needs at least one given and one then template"),
    # A header's id is checked when the header is read, before a later block closes.
    (RULE + RULE + FRAGMENT.replace("   target: t", ""), 4, "duplicate metareq id 'M'"),
    # Every line is read before any rule resolves its fragment or roles.
    (RULE.replace("-> F", "-> FX") + "nonsense\n", 4, "unrecognized line 'nonsense'"),
    (RULE + FRAGMENT.replace("owner: b", "owner: nobody")
     + FRAGMENT.replace("fragment F", "fragment G").replace("   target: t", ""), 6, "fragment 'G' lacks 'target'"),
])
def test_the_walk_reports_the_first_fault_in_its_order(text, line, message):
    with pytest.raises(KBSyntaxError) as info:
        parse_kb(text)
    assert str(info.value) == f"line {line}, column 1: {message}"
