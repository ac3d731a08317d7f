from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import given, reject, strategies as st

from modcomplete import (
    AmbiguousMatch,
    Binding,
    KnowledgeBase,
    MatchResult,
    Mentions,
    Metaclass,
    NoMatch,
    default_kb,
    load_model,
    lookup_elements,
    match_clause,
    match_requirement,
    oracle_match,
    parse_kb,
    parse_requirement,
)
from modcomplete import matcher
from modcomplete.gherkin import ParseError, RequirementDoc
from modcomplete.kb import SIZE_LIMIT, ClauseTemplate, KBSyntaxError, Literal, OptionalLiteral, SlotPattern
from modcomplete.matcher import ClauseFailure, ClauseMatches, MetaReqDiagnostic, SpanAmbiguity
from modcomplete.oracle import _oracle_clause_maps  # white-box: segmentation oracle

from conftest import RAILWAY_REQUIREMENT
from support import (
    ARTICLE_SPELLINGS,
    agreement,
    random_case,
    random_kb,
    random_model,
    random_multi_kb,
    random_requirement,
    random_section_case,
    reference_match_section,
    reference_section_failure,
    rendered_requirement,
    semantic,
)


def ast_of(text: str, rid: str = "R"):
    return parse_requirement(RequirementDoc(id=rid, text=text))


def small_model(**overrides):
    doc = {
        "version": "1",
        "name": "S",
        "signals": [{"name": "Halt"}],
        "blocks": [
            {"name": "Gate", "state_machine": {"states": ["s1", "s2"], "transitions": []}},
            {"name": "Pump"},
        ],
    }
    doc.update(overrides)
    return load_model(json.dumps(doc))


def test_match_clause_given_template(railway_model, kb):
    ast = ast_of("Given a Train in running Then x goes in braking")
    template = kb.metareqs[0].given[0]
    result = match_clause(ast.given[0], template, Mentions(railway_model), owner_role="context1")
    assert len(result.maps) == 1
    assert {b.role: b.element for b in result.maps[0]} == {
        "context1": "Train",
        "starting": "Running",
    }


def test_match_clause_unknown_block(railway_model, kb):
    ast = ast_of("Given a Spaceship in running Then x goes in braking")
    template = kb.metareqs[0].given[0]
    result = match_clause(ast.given[0], template, Mentions(railway_model), owner_role="context1")
    assert result.maps == ()
    assert result.failure is not None
    assert "Spaceship" in (result.failure.phrase or "")


def test_match_clause_only_resolving_split_survives(kb):
    # Two span splits are grammatically possible; only one resolves.
    model = load_model(json.dumps({
        "version": "1",
        "name": "S",
        "signals": [{"name": "Halt"}],
        "blocks": [
            {"name": "Brake", "state_machine": {"states": ["s1", "s2"], "transitions": []}},
            {"name": "BrakeMonitor"},
        ],
    }))
    ast = ast_of("Given x in s1 When the Brake Monitor receives a Halt Then y goes in s2")
    template = kb.metareqs[0].when[0]
    result = match_clause(ast.when[0], template, Mentions(model))
    assert [{b.role: b.element for b in m} for m in result.maps] == [
        {"context2": "BrakeMonitor", "event": "Halt"}
    ]
    # agrees with the exhaustive segmentation oracle
    oracle_maps = _oracle_clause_maps(ast.when[0], template, model, None, ())
    assert [{b.role: b.element for b in m} for m in oracle_maps] == [
        {"context2": "BrakeMonitor", "event": "Halt"}
    ]


def test_two_paths_into_one_slot_state_both_finish_in_search_order():
    """"Pump" then the optional "now", and the span "Pump now" with the
    optional skipped, both reach the event slot at word 2 and finish there.
    The reading that skips "now" after "Pump" binds "now Halt" to Halt, a
    repeat of the first map's (role, element) pairs, so the first map's
    phrases are kept."""
    model = small_model(
        signals=[{"name": "Halt"}],
        blocks=[{"name": "Pump"}, {"name": "PumpNow"}],
    )
    template = ClauseTemplate((SlotPattern(BLOCK, "owner"), OptionalLiteral(("now",)), SlotPattern(SIGNAL, "event")))
    clause = ast_of("Given Pump now Halt Then x").given[0]
    result = match_clause(clause, template, Mentions(model))
    assert [[(b.role, b.phrase, b.element) for b in mp] for mp in result.maps] == [
        [("owner", "Pump", "Pump"), ("event", "Halt", "Halt")],
        [("owner", "Pump now", "PumpNow"), ("event", "Halt", "Halt")],
    ]
    assert result.failure is None
    oracle_maps = _oracle_clause_maps(clause, template, model, None, ())
    assert [[(b.role, b.element) for b in mp] for mp in oracle_maps] == [
        [("owner", "Pump"), ("event", "Halt")],
        [("owner", "PumpNow"), ("event", "Halt")],
    ]


def test_split_names_are_searched_once_per_clause_state(monkeypatch):
    """m × "Emergency Brake" then "end", against 1.5·m block slots and a
    literal that never matches, with blocks Emergency, Brake and
    EmergencyBrake. Every slot state (word, item, scope) is searched once,
    so the lookups grow as m², not exponentially: searching each state
    again for every path that reaches it would take 79,190 at m = 8."""
    m = 20
    model = small_model(blocks=[{"name": n} for n in ("Emergency", "Brake", "EmergencyBrake")])
    slots = tuple(SlotPattern(BLOCK, f"b{i}") for i in range(3 * m // 2))
    template = ClauseTemplate(slots + (Literal("zzz"),))
    clause = ast_of("Given " + "Emergency Brake " * m + "end Then x").given[0]
    calls = 0
    real = matcher.lookup_elements

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(matcher, "lookup_elements", counting)
    result = match_clause(clause, template, Mentions(model))
    assert result == ClauseMatches((), ClauseFailure(3 * m // 2, 2 * m, "expected literal 'zzz', got 'end'"))
    assert calls == 2180 <= 6 * m * m


def test_match_requirement_railway_table(railway_model, railway_ast, kb):
    result = match_requirement(railway_ast, kb, railway_model)
    assert result.metareq_id == "MR1"
    assert result.alternatives_consumed == 0
    assert [(b.role, b.element) for b in result.bindings] == [
        ("context1", "Train"),
        ("starting", "Running"),
        ("context2", "BrakingSupervision"),
        ("event", "EmergencyStop"),
        ("context3", "BrakingSupervision"),
        ("operation", "Activate"),
        ("context4", "Brake"),
        ("final", "Braking"),
    ]


def test_a_decomposed_name_names_the_composed_element(railway_model_text, kb):
    """A name a model writes composed (NFC) and a requirement writes
    decomposed (u and U+0308) is one name."""
    composed, decomposed = "Brems\u00fcberwachung", "Bremsu\u0308berwachung"
    model = load_model(railway_model_text.replace("BrakingSupervision", composed))
    text = f"Given a Train in running, When {decomposed} receives EmergencyStop, Then {decomposed} goes in braking."
    result = match_requirement(ast_of(text), kb, model)
    assert result.metareq_id == "MR2"
    assert ("context2", composed) in [(b.role, b.element) for b in result.bindings]


UBER_SPELLINGS = {
    "composed": "\u00fcber",
    "decomposed": "u\u0308ber",
    "upper": "\u00dcBER",
    "upper-decomposed": "U\u0308BER",
}


@pytest.mark.parametrize("in_text", UBER_SPELLINGS, ids=[f"text-{k}" for k in UBER_SPELLINGS])
@pytest.mark.parametrize("in_rule", UBER_SPELLINGS, ids=[f"rule-{k}" for k in UBER_SPELLINGS])
def test_a_literal_matches_every_spelling_of_its_word(railway_model, in_rule, in_text):
    """Template literals and requirement words are compared in one folded
    form, so composed, decomposed and upper-case spellings of a literal
    match each other, in the rule and in the text."""
    kb = parse_kb(
        "metareq M1 -> F1:\n"
        '  given: "<<Block as b>> in <<State as s>>"\n'
        f'  then: "geht {UBER_SPELLINGS[in_rule]} in <<State as t>>"\n'
        "fragment F1:\n"
        "  owner: b   source: s   target: t\n"
    )
    assert kb.metareqs[0].then[0].items[1].word == "\u00fcber"
    text = f"Given a Train in running, Then geht {UBER_SPELLINGS[in_text]} in braking."
    result = match_requirement(ast_of(text), kb, railway_model)
    assert result.metareq_id == "M1"
    assert ("t", "Braking") in [(b.role, b.element) for b in result.bindings]


@pytest.mark.parametrize("comma, period", [(",", "."), ("，", "．")], ids=["ascii", "full-width"])
def test_a_literal_before_full_width_punctuation_matches(railway_model, comma, period):
    """A full-width comma or period is peeled off the word before it, as
    the ASCII one is, so the literal ``now`` still reads ``now``."""
    kb = parse_kb(
        "metareq M1 -> F1:\n"
        '  given: "<<Block as b>> in <<State as s>>"\n'
        '  then: "<<Block as c>> goes in <<State as t>> now"\n'
        "fragment F1:\n"
        "  owner: b   source: s   target: t\n"
    )
    text = f"Given a Train in running{comma} Then the Train goes in braking now{period}"
    result = match_requirement(ast_of(text), kb, railway_model)
    assert [(b.role, b.element) for b in result.bindings] == [
        ("b", "Train"), ("s", "Running"), ("c", "Train"), ("t", "Braking"),
    ]


@pytest.mark.parametrize("old, new, mention, phrase", [
    ("BrakingSupervision", "Radio Block Centre Interface Unit", "the Braking Supervision",
     "Radio Block Centre Interface Unit"),
    ("Running", "waiting for radio block centre", "running", "waiting for radio block centre"),
    ("EmergencyStop", "RadioBlockCentreInterfaceReset", "an Emergency Stop Message",
     "Radio Block Centre Interface Reset Message"),
], ids=["block", "state", "signal-with-filler"])
def test_a_name_of_five_words_is_matched(railway_model_text, kb, old, new, mention, phrase):
    """A slot span may cover as many words as the wordiest name of its
    metaclass has, one more for a signal; four words used to be the limit."""
    model = load_model(railway_model_text.replace(old, new))
    ast = ast_of(RAILWAY_REQUIREMENT.replace(mention, phrase))
    result = match_requirement(ast, kb, model)
    assert result == oracle_match(ast, kb, model)
    bound = [b.element for b in result.bindings if b.phrase == phrase]
    assert bound == [new] * RAILWAY_REQUIREMENT.count(mention)
    assert max(Mentions(model).spans.values()) == (6 if old == "EmergencyStop" else 5)


def test_empty_kb_no_match(railway_model, railway_ast):
    with pytest.raises(NoMatch):
        match_requirement(railway_ast, KnowledgeBase(), railway_model)


def test_disjunctive_when_produces_one_set_per_alternative(kb):
    model = load_model(json.dumps({
        "version": "1",
        "name": "S",
        "signals": [{"name": "Sig1"}, {"name": "Sig2"}],
        "blocks": [{"name": "Gate", "state_machine": {"states": ["s1", "s2"], "transitions": []}}],
    }))
    ast = ast_of("Given Gate in s1, When Gate receives Sig1 or Sig2, Then Gate goes in s2")
    result = match_requirement(ast, kb, model)
    assert result.alternatives_consumed == 2
    assert len(result.binding_sets) == 2
    events = [
        next(b.element for b in s if b.role == "event") for s in result.binding_sets
    ]
    assert events == ["Sig1", "Sig2"]
    others = [
        tuple((b.role, b.element) for b in s if b.role != "event")
        for s in result.binding_sets
    ]
    assert others[0] == others[1]
    assert semantic(oracle_match(ast, kb, model)) == semantic(result)


def test_disjunctive_full_clause_alternative(kb):
    model = load_model(json.dumps({
        "version": "1",
        "name": "S",
        "signals": [{"name": "Sig1"}, {"name": "Sig2"}],
        "blocks": [
            {"name": "Gate", "state_machine": {"states": ["s1", "s2"], "transitions": []}},
            {"name": "Pump"},
        ],
    }))
    ast = ast_of(
        "Given Gate in s1, When Gate receives Sig1 or Pump receives Sig2, Then Gate goes in s2"
    )
    result = match_requirement(ast, kb, model)
    assert len(result.binding_sets) == 2
    second = {b.role: b.element for b in result.binding_sets[1]}
    assert second["context2"] == "Pump"
    assert second["event"] == "Sig2"
    assert semantic(oracle_match(ast, kb, model)) == semantic(result)


def test_ambiguous_span_raises_ambiguous_match(kb):
    model = load_model(json.dumps({
        "version": "1",
        "name": "S",
        "signals": [{"name": "Stop"}, {"name": "Stops"}],
        "blocks": [{"name": "Gate", "state_machine": {"states": ["s1", "s2"], "transitions": []}}],
    }))
    # "Stops" names the signal Stops directly and the signal Stop after
    # stemming: two distinct complete binding sets.
    ast = ast_of("Given Gate in s1, When Gate receives Stops, Then Gate goes in s2")
    with pytest.raises(AmbiguousMatch) as info:
        match_requirement(ast, kb, model)
    assert len(info.value.binding_sets) == 2
    assert info.value.ambiguities == (SpanAmbiguity("event", SIGNAL, "Stops", ("Stop", "Stops")),)
    with pytest.raises(AmbiguousMatch) as oracle_info:
        oracle_match(ast, kb, model)
    # The oracle's error derives the same ambiguity from its binding sets.
    assert oracle_info.value.ambiguities == info.value.ambiguities


def test_priority_respects_file_order(kb):
    # Fits MR1 directly; also fits MR2 by re-merging the Then clauses into
    # one, with the noun span absorbing up to the block named "And".
    model = load_model(json.dumps({
        "version": "1",
        "name": "P",
        "signals": [{"name": "Ping"}],
        "blocks": [
            {"name": "Gate", "state_machine": {"states": ["s1", "s2"], "transitions": []}},
            {"name": "Pump"},
            {"name": "And"},
        ],
    }))
    ast = ast_of("Given Gate in s1, When Gate receives Ping, Then Gate Ping Pump and goes in s2")
    assert match_requirement(ast, kb, model).metareq_id == "MR1"
    demoted = KnowledgeBase(metareqs=kb.metareqs[1:], fragments=kb.fragments)
    assert match_requirement(ast, demoted, model).metareq_id == "MR2"
    assert oracle_match(ast, kb, model).metareq_id == "MR1"
    assert oracle_match(ast, demoted, model).metareq_id == "MR2"


def test_remerge_nounphrase_and(kb):
    # "Command and Control" is one block mention, split at parse time and
    # re-merged during matching.
    model = load_model(json.dumps({
        "version": "1",
        "name": "S",
        "signals": [{"name": "Halt"}],
        "blocks": [
            {"name": "Gate", "state_machine": {"states": ["s1", "s2"], "transitions": []}},
            {"name": "CommandAndControl"},
        ],
    }))
    ast = ast_of(
        "Given Gate in s1, When the Command and Control receives a Halt, Then Gate goes in s2"
    )
    result = match_requirement(ast, kb, model)
    assert result.metareq_id == "MR2"
    assert {b.role: b.element for b in result.bindings}["context2"] == "CommandAndControl"
    assert semantic(oracle_match(ast, kb, model)) == semantic(result)


def test_determinism(railway_model, railway_ast, kb):
    first = match_requirement(railway_ast, kb, railway_model)
    second = match_requirement(railway_ast, kb, railway_model)
    assert first == second
    try:
        match_requirement(ast_of("Given a Ghost in limbo Then x goes in nowhere"), kb, railway_model)
    except NoMatch as e1:
        try:
            match_requirement(ast_of("Given a Ghost in limbo Then x goes in nowhere"), kb, railway_model)
        except NoMatch as e2:
            assert e1.diagnostics == e2.diagnostics


def test_no_match_diagnostics_name_clause_slot_phrase(railway_model, kb):
    ast = ast_of(
        "Given a Spaceship in running, When the Braking Supervision receives an "
        "Emergency Stop Message, Then the Braking Supervision activates the "
        "Emergency Brake and goes in braking."
    )
    with pytest.raises(NoMatch) as info:
        match_requirement(ast, kb, railway_model)
    diag = info.value.diagnostics[0]
    assert diag.metareq_id == "MR1"
    assert diag.section == "given"
    assert "Spaceship" in (diag.phrase or "")


def test_renaming_invariance(kb):
    def build(block_name: str):
        model = load_model(json.dumps({
            "version": "1",
            "name": "S",
            "signals": [{"name": "Halt"}],
            "blocks": [
                {"name": block_name, "state_machine": {"states": ["s1", "s2"], "transitions": []}},
            ],
        }))
        ast = ast_of(f"Given {block_name} in s1, When {block_name} receives Halt, "
                     f"Then {block_name} goes in s2")
        return semantic(match_requirement(ast, kb, model))

    a = build("Gate")
    b = build("Valve")
    rename = lambda sem: tuple(
        (sem[0], sem[1], tuple(tuple((r, "X" if e in ("Gate", "Valve") else e) for r, e in s) for s in sem[2]))
        for sem in [sem]
    )[0]
    assert rename(a) == rename(b)


def test_oracle_agrees_on_railway(railway_model, railway_ast, kb):
    assert match_requirement(railway_ast, kb, railway_model).binding_sets == oracle_match(
        railway_ast, kb, railway_model
    ).binding_sets


def test_oracle_agrees_on_shuffled_words(railway_model, kb):
    rng = random.Random(3)
    words = RAILWAY = (
        "Given a Train in running When the Braking Supervision receives an Emergency "
        "Stop Message Then the Braking Supervision activates the Emergency Brake and "
        "goes in braking".split()
    )
    for _ in range(20):
        rng.shuffle(words)
        try:
            ast = ast_of(" ".join(words))
        except Exception:
            continue
        main, oracle = agreement(ast, kb, railway_model)
        assert main == oracle


def test_oracle_agreement_randomized_quick(kb):
    rng = random.Random(12345)
    for _ in range(250):
        model, _, ast = random_case(rng)
        main, oracle = agreement(ast, kb, model)
        assert main == oracle, f"disagreement on {ast!r}"


def test_oracle_agrees_on_knowledge_bases_with_several_templates_per_section():
    """Sections of two or three templates, so clause groupings share their
    first groups; a quarter of the cases must match for the check to count."""
    rng = random.Random(2026)
    cases, matched = 200, 0
    for _ in range(cases):
        model = random_model(rng)
        kb = random_multi_kb(rng)
        text = rendered_requirement(rng, kb, model)
        main, oracle = agreement(ast_of(text), kb, model)
        assert main == oracle, text
        matched += main[0] == "ok"
    assert matched >= cases // 4


ARTICLE_RUNS = st.lists(st.sampled_from(ARTICLE_SPELLINGS), min_size=1, max_size=3)


@given(
    seed=st.integers(0, 2**32 - 1),
    use_default_kb=st.booleans(),
    runs=st.lists(st.tuples(st.floats(0, 1), ARTICLE_RUNS), max_size=4),
    tail=st.lists(st.sampled_from(ARTICLE_SPELLINGS), max_size=3),
)
def test_oracle_agrees_with_runs_of_articles_anywhere(seed, use_default_kb, runs, tail):
    """Runs of articles at any word boundary, and at the clause end, are
    skipped alike by the matcher and the oracle."""
    rng = random.Random(seed)
    model = random_model(rng)
    kb = default_kb() if use_default_kb else random_kb(rng)
    words = random_requirement(rng, model).rstrip(".").split()
    for where, run in runs:
        at = round(where * len(words))
        words[at:at] = run
    text = " ".join(words + tail) + "."
    try:
        ast = ast_of(text)
    except ParseError:
        reject()
    main, oracle = agreement(ast, kb, model)
    assert main == oracle, text


def test_binding_soundness(railway_model, railway_ast, kb):
    result = match_requirement(railway_ast, kb, railway_model)
    mentions = Mentions(railway_model)
    for binding_set in result.binding_sets:
        for binding in binding_set:
            assert binding.element in lookup_elements(
                mentions, binding.phrase, binding.metaclass
            )


def test_binding_soundness_randomized(kb):
    rng = random.Random(4242)
    for _ in range(120):
        model, text, ast = random_case(rng)
        try:
            result = match_requirement(ast, kb, model)
        except (NoMatch, AmbiguousMatch):
            continue
        for binding_set in result.binding_sets:
            for binding in binding_set:
                assert binding.element in lookup_elements(
                    Mentions(model), binding.phrase, binding.metaclass
                ), (binding, text)


# ---------------------------------------------------------------------------
# Exact outcome of each way one rule can end: Given, When or Then fails, a
# disjunctive When meets a rule it cannot fan out over, an elliptical
# alternative fails, the rule fits ambiguously, or it fits.
# ---------------------------------------------------------------------------

BLOCK, STATE, SIGNAL = Metaclass.BLOCK, Metaclass.STATE, Metaclass.SIGNAL

PATH_KB_HEAD = '''
metareq M -> F:
  given: "<<Block as owner>> in <<State as src>>"
'''
PATH_KB_TAIL = '''
  then:  "goes in <<State as dst>>"
fragment F:
  owner: owner  source: src  target: dst
'''


def path_kb(*when_templates: str) -> KnowledgeBase:
    whens = "".join(f'  when:  "{t}"\n' for t in when_templates)
    return parse_kb(PATH_KB_HEAD + whens + PATH_KB_TAIL)


def path_outcome(text: str, kb: KnowledgeBase):
    model = small_model(
        signals=[{"name": n} for n in ("Halt", "Ping", "Stop", "Stops")],
    )
    try:
        return match_requirement(ast_of(text), kb, model)
    except NoMatch as exc:
        return ("NoMatch", exc.requirement_id, exc.diagnostics)
    except AmbiguousMatch as exc:
        return ("AmbiguousMatch", exc.requirement_id, exc.metareq_id, exc.binding_sets, exc.ambiguities)


def gate_set(*middle: Binding) -> tuple[Binding, ...]:
    """Bindings of a default-KB rule whose Given and Then name Gate in s1 and s2."""
    head = (Binding("context1", BLOCK, "Gate", "Gate"), Binding("starting", STATE, "s1", "s1"))
    return head + middle + (Binding("final", STATE, "s2", "s2"),)


def receives(event: str, phrase: str) -> tuple[Binding, ...]:
    return (Binding("context2", BLOCK, "Gate", "Gate"), Binding("event", SIGNAL, phrase, event))


def path_set(cause: str, event: str, phrase: str) -> tuple[Binding, ...]:
    return (
        Binding("owner", BLOCK, "Gate", "Gate"),
        Binding("src", STATE, "s1", "s1"),
        Binding("cause", SIGNAL, cause, cause),
        Binding("event", SIGNAL, phrase, event),
        Binding("dst", STATE, "s2", "s2"),
    )


def stops(role: str) -> SpanAmbiguity:
    return SpanAmbiguity(role, SIGNAL, "Stops", ("Stop", "Stops"))


def test_outcome_when_given_fails(kb):
    assert path_outcome("Given Ghost in s1, When Gate receives Halt, Then Gate goes in s2", kb) == (
        "NoMatch",
        "R",
        tuple(
            MetaReqDiagnostic(rule, "no Block matches", "given", 0, "context1", "Ghost in s1")
            for rule in ("MR1", "MR2", "MR3")
        ),
    )


def test_outcome_when_when_fails(kb):
    literal = "expected literal 'receives', got 'hears'"
    assert path_outcome("Given Gate in s1, When Gate hears Halt, Then Gate goes in s2", kb) == (
        "NoMatch",
        "R",
        (
            MetaReqDiagnostic("MR1", literal, "when", 0),
            MetaReqDiagnostic("MR2", literal, "when", 0),
            MetaReqDiagnostic("MR3", "rule expects no when clause", "when"),
        ),
    )


def test_outcome_disjunctive_when_against_two_when_templates():
    kb = path_kb("<<Block as first>> receives <<Signal as event>>",
                 "<<Block as second>> receives <<Signal as other>>")
    text = "Given Gate in s1, When Gate receives Halt or Gate receives Ping, Then goes in s2"
    reason = "a disjunctive When requires a rule with exactly one When template"
    assert path_outcome(text, kb) == ("NoMatch", "R", (MetaReqDiagnostic("M", reason, "when"),))


def test_outcome_when_then_fails(kb):
    assert path_outcome("Given Gate in s1, When Gate receives Halt, Then Gate flies to s2", kb) == (
        "NoMatch",
        "R",
        (
            MetaReqDiagnostic("MR1", "rule expects 2 then clause(s), requirement has 1", "then"),
            MetaReqDiagnostic("MR2", "expected literal 'goes', got 'flies'", "then", 0),
            MetaReqDiagnostic("MR3", "rule expects no when clause", "when"),
        ),
    )


def test_outcome_when_an_elliptical_alternative_fails(kb):
    text = "Given Gate in s1, When Gate receives Halt or Banana, Then Gate goes in s2"
    assert path_outcome(text, kb) == (
        "NoMatch",
        "R",
        (
            MetaReqDiagnostic("MR1", "rule expects 2 then clause(s), requirement has 1", "then"),
            MetaReqDiagnostic(
                "MR2", "When alternative 2: no Signal matches", "when", 0, "event", "Banana"
            ),
            MetaReqDiagnostic(
                "MR3", "a disjunctive When requires a rule with exactly one When template", "when"
            ),
        ),
    )


def test_outcome_ambiguous_when(kb):
    text = "Given Gate in s1, When Gate receives Stops, Then Gate goes in s2"
    then = (Binding("context3", BLOCK, "Gate", "Gate"),)
    assert path_outcome(text, kb) == (
        "AmbiguousMatch",
        "R",
        "MR2",
        (gate_set(*receives("Stop", "Stops"), *then), gate_set(*receives("Stops", "Stops"), *then)),
        (stops("event"),),
    )


def operation_then(operation: str) -> tuple[Binding, ...]:
    """Then bindings of MR1 for "Gate Stops Pump"."""
    return (
        Binding("context3", BLOCK, "Gate", "Gate"),
        Binding("operation", SIGNAL, "Stops", operation),
        Binding("context4", BLOCK, "Pump", "Pump"),
    )


GATE, HALT = ("Gate", "Gate"), ("Halt", "Halt")
SEND_PAIR_KB = parse_kb(
    PATH_KB_HEAD
    + '  then:  "<<Block as a>> <<Signal as x>>"\n'
    + '  then:  "<<Block as b>> <<Signal as y>>"\n'
    + PATH_KB_TAIL
)


def send_pair_set(
    a: tuple[str, str], x: tuple[str, str], y: tuple[str, str]
) -> tuple[Binding, ...]:
    """Bindings of SEND_PAIR_KB: Gate in s1, sends ``a x`` and ``Pump y``
    (each slot given as (phrase, element)), then s2."""
    return (
        Binding("owner", BLOCK, "Gate", "Gate"),
        Binding("src", STATE, "s1", "s1"),
        Binding("a", BLOCK, *a),
        Binding("x", SIGNAL, *x),
        Binding("b", BLOCK, "Pump", "Pump"),
        Binding("y", SIGNAL, *y),
        Binding("dst", STATE, "s2", "s2"),
    )


@pytest.mark.parametrize(
    "rules, text, metareq_id, binding_sets, ambiguities",
    [
        # The Then span is read once for each of the two When readings, and
        # each ambiguous slot is listed once.
        pytest.param(
            default_kb(),
            "Given Gate in s1, When Gate receives Stops, Then Gate Stops Pump and goes in s2",
            "MR1",
            tuple(
                gate_set(*receives(event, "Stops"), *operation_then(operation))
                for event in ("Stop", "Stops")
                for operation in ("Stop", "Stops")
            ),
            (stops("event"), stops("operation")),
            id="per-when-reading",
        ),
        # "Gate Stops" is the first group of two groupings, and
        # "Gate Stops and Pump Halt" is another group: x's phrase "Stops"
        # binds two elements, and the other phrases one each.
        pytest.param(
            SEND_PAIR_KB,
            "Given Gate in s1, Then Gate Stops and Pump Halt and Pump Halt and goes in s2",
            "M",
            (
                send_pair_set(GATE, ("Stops", "Stop"), ("Halt and Pump Halt", "Halt")),
                send_pair_set(GATE, ("Stops", "Stops"), ("Halt and Pump Halt", "Halt")),
                send_pair_set(GATE, ("Stops and Pump Halt", "Halt"), HALT),
                send_pair_set(("Gate Stops and Pump", "Pump"), HALT, HALT),
            ),
            (stops("x"),),
            id="per-clause-group",
        ),
    ],
)
def test_outcome_ambiguity_is_listed_once_per_ambiguous_phrase(
    rules, text, metareq_id, binding_sets, ambiguities
):
    assert path_outcome(text, rules) == (
        "AmbiguousMatch", "R", metareq_id, binding_sets, ambiguities
    )


PUMP = {"name": "Pump", "state_machine": {"states": ["Off", "On"], "transitions": []}}
GOES_IN = "<<Block as b{i}>> goes in <<State as s{i}>>"
SIGNAL_SLOT, BLOCK_SLOT = "<<Signal as b{i}>>", "<<Block as b{i}>>"


def signal_chain(n: int) -> list[str]:
    return [f"Sig{i}" for i in range(n)] + ["Valve"]


@pytest.mark.parametrize(
    "template, clauses, k, then_phrases, trailing",
    [
        (GOES_IN, ["Pump goes in On"] * 24, 6, None, " ".join(["and Pump goes in On"] * 18)),
        (BLOCK_SLOT, ["Pump"] * 30, 20, ["Pump"] * 10 + ["Pump and Pump"] * 10, None),
        (BLOCK_SLOT, ["Pump"] * 30 + ["Valve"], 20, None, "and Valve"),
        (SIGNAL_SLOT, signal_chain(24), 16, None, "and Valve"),
        (SIGNAL_SLOT, signal_chain(60), 40, None, "and Valve"),
        (BLOCK_SLOT, ["Pump"] * 2000, 3, None, " ".join(["and Pump"] * 1994)),
    ],
    ids=["24x6", "30x20", "30x20-valve", "24x16-distinct-valve", "60x40-distinct-valve", "2000x3"],
)
def test_a_clause_group_is_matched_once_per_context(monkeypatch, template, clauses, k, then_phrases, trailing):
    """A section is one ``match_clause`` search per context, and that search
    makes at most one lookup per (word, slot, span length). A span may
    absorb "Pump and Pump" or "Sig0 and Sig1", so one- and two-clause groups
    both fit, and the signal chains read differently in every grouping. When
    each grouping was searched apart, 30x20 took 1,732,099 calls (1,046 once
    each (next clause, bindings) was kept once), 24x16-distinct-valve
    143,216 calls and 431,113 lookups, and 2000x3 5,997 calls."""
    model = small_model(signals=[{"name": f"Sig{i}"} for i in range(60)], blocks=[PUMP])
    rules = parse_kb(
        'metareq M -> F:\n  given: "<<Block as owner>> in <<State as src>>"\n'
        + "".join(f'  then:  "{template.format(i=i)}"\n' for i in range(k))
        + "fragment F:\n  owner: owner  source: src  target: src\n"
    )
    calls = lookups = 0
    real_match, real_lookup = matcher.match_clause, matcher.lookup_elements

    def counting_match(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_match(*args, **kwargs)

    def counting_lookup(*args, **kwargs):
        nonlocal lookups
        lookups += 1
        return real_lookup(*args, **kwargs)

    monkeypatch.setattr(matcher, "match_clause", counting_match)
    monkeypatch.setattr(matcher, "lookup_elements", counting_lookup)
    ast = ast_of("Given Pump in Off, Then " + " and ".join(clauses) + ".")
    if then_phrases is not None:
        result = match_requirement(ast, rules, model)
        assert [b.phrase for b in result.bindings] == ["Pump", "Off"] + then_phrases
        assert {b.element for b in result.bindings[2:]} == {"Pump"}
    else:
        with pytest.raises(NoMatch) as info:
            match_requirement(ast, rules, model)
        # Every template has read a clause, and the furthest reading leaves the rest.
        assert info.value.diagnostics == (
            MetaReqDiagnostic("M", f"trailing words {trailing!r} fit no template item", "then", k - 1),
        )
    assert calls == 2  # the Given and the Then section, each entered by one context
    # At most one lookup per (word, slot) state and span length (at most 4
    # words): 3 words and 2 slots in the Given, and the Then's words
    # (connectives included) and slots.
    then_words = sum(len(c.words) for c in ast.then) + len(ast.then) - 1
    assert lookups <= 4 * (3 * 2 + then_words * k * template.count("<<"))


def every_item_case(items: int, templates: int) -> tuple[str, str]:
    """A rule whose Then section has ``templates`` templates of ``items``
    items each, and a requirement whose Then reads through every item."""
    clause = " go" * (items - 1)
    rule = (
        'metareq M -> F:\n  given: "<<Block as owner>> in <<State as src>>"\n'
        + "".join(f'  then:  "<<Block as b{i}>>{clause}"\n' for i in range(templates))
        + "fragment F:\n  owner: owner  source: src  target: src\n"
    )
    return rule, "Given Pump in Off, Then " + " and ".join([f"Pump{clause}"] * templates) + "."


@pytest.mark.parametrize("items, templates", [(SIZE_LIMIT, 1), (2, SIZE_LIMIT // 2)])
def test_a_section_at_the_size_limit_is_matched_through_every_item(items, templates):
    rule, text = every_item_case(items, templates)
    result = match_requirement(ast_of(text), parse_kb(rule), small_model(blocks=[PUMP]))
    assert [b.element for b in result.bindings] == ["Pump", "Off"] + ["Pump"] * templates


def test_a_rule_too_large_to_match_is_refused():
    """The matcher recurses once per item of a section, which it reads as
    one clause. 100 templates of 100 items each passed the former bounds
    (per template and per section), and matching them raised RecursionError;
    ``parse_kb`` refuses them now, so no match is tried."""
    rule, text = every_item_case(SIZE_LIMIT, SIZE_LIMIT)
    with pytest.raises(KBSyntaxError):
        match_requirement(ast_of(text), parse_kb(rule), small_model(blocks=[PUMP]))


def _sections_as_reference(ast, metareq, model) -> list:
    """Thread each section of ``ast`` through ``_match_section``. The outcome
    kind and the contexts as a multiset (phrases included) must equal the
    depth-first reference's, and a diagnostic the breadth-first reference's.
    Returns the Then contexts, or [] where a section fails."""
    mentions, owner, ctxs = Mentions(model), metareq.fragment.owner_role, [()]
    for section in ("given", "when", "then"):
        clauses, templates = getattr(ast, section), getattr(metareq, section)
        args = (metareq.id, section, clauses, templates, mentions, owner, ctxs)
        found, expected = matcher._match_section(*args), reference_match_section(*args)
        assert type(found) is type(expected), (section, ast)
        if isinstance(found, MetaReqDiagnostic):
            if expected.template_index is not None:  # the rule has a template per clause
                expected = reference_section_failure(metareq.id, section, clauses, templates, model, owner, ctxs)
            assert found == expected, (section, ast)
            return []
        assert Counter(found) == Counter(expected), (section, ast)
        ctxs = found
    return ctxs


def test_section_search_keeps_the_depth_first_contexts_and_diagnostics():
    """On random sections (``random_multi_kb`` rules, and ``random_section_case``
    with block names holding "And" and Givens read two ways) and on a fixed
    case whose ten binding sets come in ``match_clause``'s order: the first
    Then slot's shorter spans first, each with every reading of the rest."""
    rng = random.Random(35)
    found = []
    for i in range(2400):
        if i % 2:
            model, kb = random_model(rng), random_multi_kb(rng)
            text = rendered_requirement(rng, kb, model)
        else:
            model, kb, text = random_section_case(rng)
        try:
            ast = ast_of(text)
        except ParseError:
            continue
        found.extend(len(_sections_as_reference(ast, metareq, model)) for metareq in kb.metareqs)
    assert sum(n > 0 for n in found) >= len(found) // 5
    assert sum(n > 1 for n in found) >= 40

    model = small_model(signals=[], blocks=[
        {"name": name, "state_machine": {"states": ["s1", "s2"], "transitions": []}}
        for name in ["Brake", "Gate", "Gate And Brake"]
    ] + [{"name": "Pump"}])
    then = ["stops <<Block as t0>>"] + [f"<<Block as t{i}>>" for i in (1, 2, 3)] + ["<<Block as t4>> stops"]
    rules = parse_kb(
        'metareq M -> F:\n  given: "<<Block as owner>> in <<State as src>>"\n'
        + "".join(f'  then:  "{template}"\n' for template in then)
        + "fragment F:\n  owner: owner  source: src  target: src\n"
    )
    text = "Given Gate in s2, Then stops Gate And Brake and Gate And Brake and Pump and the Gate and the Brake stops."
    ctxs = _sections_as_reference(ast_of(text), rules.metareqs[0], model)
    assert [[b.phrase for b in ctx[2:]] for ctx in ctxs] == [
        ["Gate", "Brake", "Gate", "Brake and Pump", "Gate and the Brake"],
        ["Gate", "Brake", "Gate And Brake", "Pump", "Gate and the Brake"],
        ["Gate", "Brake", "Gate And Brake", "Pump and the Gate", "Brake"],
        ["Gate", "Brake and Gate", "Brake", "Pump", "Gate and the Brake"],
        ["Gate", "Brake and Gate", "Brake", "Pump and the Gate", "Brake"],
        ["Gate", "Brake and Gate", "Brake and Pump", "Gate", "Brake"],
        ["Gate And Brake", "Gate", "Brake", "Pump", "Gate and the Brake"],
        ["Gate And Brake", "Gate", "Brake", "Pump and the Gate", "Brake"],
        ["Gate And Brake", "Gate", "Brake and Pump", "Gate", "Brake"],
        ["Gate And Brake", "Gate And Brake", "Pump", "Gate", "Brake"],
    ]


def test_a_failure_beside_a_match_in_one_clause_group_is_not_reported():
    """The Given reads two ways: owner Gate (other "Pump Valve") and owner
    Pump ("Gate Pump", other Valve). Only Gate's machine has s2, so the first
    Then group fits for Gate and fails for Pump at its state slot, deeper in
    the clause than Gate's failure in the second group. The diagnostic names
    the second template, where the last context still standing failed."""
    model = small_model(blocks=[
        {"name": "Gate", "state_machine": {"states": ["s1", "s2"], "transitions": []}},
        {"name": "Pump", "state_machine": {"states": ["s1"], "transitions": []}},
        {"name": "Valve"},
    ])
    rules = parse_kb(
        'metareq M -> F:\n'
        '  given: "<<Block as owner>> <<Block as other>> in <<State as src>>"\n'
        '  then:  "goes in <<State as dst>> now"\n'
        '  then:  "sends <<Signal as sig>>"\n'
        'fragment F:\n  owner: owner  source: src  target: dst\n'
    )
    text = "Given Gate Pump Valve in s1, Then goes in s2 now and emits Halt."
    given = matcher._match_section("M", "given", ast_of(text).given, rules.metareqs[0].given,
                                   Mentions(model), "owner", [()])
    assert [{b.role: b.element for b in ctx}["owner"] for ctx in given] == ["Gate", "Pump"]
    with pytest.raises(NoMatch) as info:
        match_requirement(ast_of(text), rules, model)
    assert info.value.diagnostics == (
        MetaReqDiagnostic("M", "expected literal 'sends', got 'emits'", "then", 1),
    )


def test_the_failure_furthest_into_the_section_is_reported():
    """The Given reads owner Gate (state "p and q") or owner Pump (state p).
    Gate's context reads "p and q" as one state and fails on "Xray" at "zz";
    Pump's fails at "zz" two words sooner, on "q". The furthest word wins,
    whichever context or grouping meets it first."""
    model = small_model(blocks=[
        {"name": "Gate", "state_machine": {"states": ["s1", "p and q"], "transitions": []}},
        {"name": "Pump", "state_machine": {"states": ["s1", "p"], "transitions": []}},
        {"name": "Valve"},
    ])
    rules = parse_kb(
        'metareq M -> F:\n'
        '  given: "<<Block as owner>> <<Block as other>> in <<State as src>>"\n'
        '  then:  "<<State as x>>"\n'
        '  then:  "zz <<Block as y>>"\n'
        'fragment F:\n  owner: owner  source: src  target: x\n'
    )
    with pytest.raises(NoMatch) as info:
        match_requirement(ast_of("Given Gate Pump Valve in s1, Then p and q and Xray."), rules, model)
    assert info.value.diagnostics == (MetaReqDiagnostic("M", "expected literal 'zz', got 'Xray'", "then", 1),)


@pytest.mark.parametrize("then, ti, reason, role, phrase", [
    # A literal meets a connective as the end of its clause.
    ("Gate stops and goes and in s2", 1, "expected literal 'in', got 'end of clause'", None, None),
    # A slot that reads nothing at a connective meets the end of its clause.
    ("Gate stops and goes in and Xray", 1, "clause ended before slot 'dst'", "dst", None),
    # A slot's failure phrase stops before a connective.
    ("Gate stops and goes in Nowhere and Xray", 1, "no State matches", "dst", "Nowhere"),
    # A template whose clause goes on leaves the rest of that clause.
    ("Gate stops now and goes in s2 and Pump", 0, "trailing words 'now' fit no template item", None, None),
])
def test_a_connective_ends_a_clause_in_a_diagnostic(then, ti, reason, role, phrase):
    kb = parse_kb(PATH_KB_HEAD + '  then:  "<<Block as b>> stops"\n' + PATH_KB_TAIL)
    assert path_outcome(f"Given Gate in s1, Then {then}.", kb) == (
        "NoMatch", "R", (MetaReqDiagnostic("M", reason, "then", ti, role, phrase),)
    )


@pytest.mark.parametrize("diagnostics, message", [
    ((), "R: no rule fits (knowledge base is empty)"),
    ((MetaReqDiagnostic("M1", "rule expects no when clause", "when"),
      MetaReqDiagnostic("M2", "no Block matches", "then", 1, "b", "Ghost")),
     "R: no rule fits (M1 at when: rule expects no when clause; "
     "M2 at then[1]: no Block matches (slot b, phrase 'Ghost'))"),
])
def test_a_no_match_message_lists_every_diagnostic(diagnostics, message):
    assert str(NoMatch("R", diagnostics)) == message


def test_outcome_ambiguous_elliptical_alternative_leaves_out_the_failed_reading():
    # "Stops" read as a whole When clause binds cause ambiguously and then
    # fails; the competing sets are the elliptical reading's, so only its
    # ambiguity (slot event) is listed.
    kb = path_kb("<<Signal as cause>> with <<Signal as event>>")
    text = "Given Gate in s1, When Halt with Ping or Stops, Then goes in s2"
    assert path_outcome(text, kb) == (
        "AmbiguousMatch",
        "R",
        "M",
        (path_set("Halt", "Stop", "Stops"), path_set("Halt", "Stops", "Stops")),
        (stops("event"),),
    )


def test_outcome_disjunctive_success(kb):
    text = "Given Gate in s1, When Gate receives Halt or Ping, Then Gate goes in s2"
    then = (Binding("context3", BLOCK, "Gate", "Gate"),)
    assert path_outcome(text, kb) == MatchResult(
        "R",
        "MR2",
        (gate_set(*receives("Halt", "Halt"), *then), gate_set(*receives("Ping", "Ping"), *then)),
    )


def test_outcome_disjunctive_success_with_an_elliptical_alternative():
    kb = path_kb("<<Signal as cause>> with <<Signal as event>>")
    text = "Given Gate in s1, When Halt with Ping or Halt, Then goes in s2"
    assert path_outcome(text, kb) == MatchResult(
        "R", "M", (path_set("Halt", "Ping", "Ping"), path_set("Halt", "Halt", "Halt"))
    )
