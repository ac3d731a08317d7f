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
from modcomplete.gherkin import SECTIONS, ParseError, RequirementDoc
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


def counted(monkeypatch, *names: str) -> Counter:
    """Calls of each of the matcher's ``names`` from now on."""
    calls: Counter = Counter()
    for name in names:
        def counting(*args, _name=name, _real=getattr(matcher, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(matcher, name, counting)
    return calls


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
    calls = counted(monkeypatch, "lookup_elements")
    result = match_clause(clause, template, Mentions(model))
    assert result == ClauseMatches((), ClauseFailure(3 * m // 2, 2 * m, "expected literal 'zzz', got 'end'"))
    assert calls["lookup_elements"] == 2180 <= 6 * m * m


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


def test_oracle_agrees_on_disjunctive_whens():
    """Disjunctive Whens rendered from ``random_kb`` rules (one When template
    or none) and ``random_multi_kb`` rules (two, three or none), each
    alternative a whole clause, an elliptical mention or a mention that
    names nothing, and the built-in rules' random requirements. Each way a
    disjunctive When ends must occur for the check to count."""
    rng = random.Random(37)
    seen = Counter()
    for i in range(600):
        model = random_model(rng)
        if i % 3 == 2:
            kb, text = default_kb(), random_requirement(rng, model)
        else:
            kb = (random_kb if i % 3 else random_multi_kb)(rng)
            text = rendered_requirement(rng, kb, model, disjunctive=1.0)
        try:
            ast = ast_of(text)
        except ParseError:
            continue
        main, oracle = agreement(ast, kb, model)
        assert main == oracle, text
        if main[0] == "ok":
            seen["alternatives fit"] += main[1][1] > 1
        elif main[0] == "NoMatch":
            with pytest.raises(NoMatch) as info:
                match_requirement(ast, kb, model)
            whens = {metareq.id: len(metareq.when) for metareq in kb.metareqs}
            for d in info.value.diagnostics:
                if d.reason.startswith("When alternative"):
                    seen["elliptical fails"] += 1
                elif d.reason.startswith("a disjunctive When"):
                    seen[f"{whens[d.metareq_id]} When templates"] += 1
    ways = ("alternatives fit", "elliptical fails", "0 When templates", "2 When templates")
    assert min(seen[way] for way in ways) >= 10, seen


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


def test_outcome_when_a_later_alternative_fails_in_the_then():
    """The When binds the owner, so a later alternative can fit the When and
    still fail the Then: its owner Pump has no machine to hold s2. That
    failure is reported; no elliptical reading is tried."""
    kb = parse_kb(
        'metareq M -> F:\n  given: "<<Block as b>> in <<State as src>>"\n'
        '  when:  "<<Block as owner>> receives <<Signal as event>>"\n'
        + PATH_KB_TAIL
    )
    text = "Given Gate in s1, When Gate receives Halt or Pump receives Halt, Then goes in s2"
    assert path_outcome(text, kb) == (
        "NoMatch", "R", (MetaReqDiagnostic("M", "no State matches", "then", 0, "dst", "s2"),)
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
    """A requirement is one ``match_clause`` search, and that search makes
    at most one lookup per (word, slot, span length). A span may
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
    calls = counted(monkeypatch, "match_clause", "lookup_elements")
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
    assert calls["match_clause"] == 1  # the whole requirement, read as one clause
    # At most one lookup per (word, slot) state and span length (at most 4
    # words): 3 words and 2 slots in the Given, and the Then's words
    # (connectives included) and slots.
    then_words = sum(len(c.words) for c in ast.then) + len(ast.then) - 1
    assert calls["lookup_elements"] <= 4 * (3 * 2 + then_words * k * template.count("<<"))


# Each mention names two signals, X?Stop and X?Stops.
TWO_READINGS = [f"X{c}Stops" for c in "abcdefghijklmnopqrst"]


def signal_templates(section: str) -> str:
    return "".join(f'  {section}: "<<Signal as {section}{i}>>"\n' for i in range(len(TWO_READINGS)))


@pytest.mark.parametrize("templates, text, diagnostic, lookups", [
    (
        signal_templates("given") + '  when:  "<<Block as w>> receives <<Signal as e>>"\n',
        "Given Gate in s1 and {mentions}, When Ghost receives Halt, Then goes in s2.",
        MetaReqDiagnostic("M", "no Block matches", "when", 0, "w", "Ghost receives Halt"),
        411,
    ),
    (
        signal_templates("when"),
        "Given Gate in s1, When {mentions}, Then goes in Nowhere.",
        MetaReqDiagnostic("M", "no State matches", "then", 0, "dst", "Nowhere"),
        405,
    ),
], ids=["given-reads-2^k", "when-reads-2^k"])
def test_a_section_read_many_ways_is_searched_once(monkeypatch, templates, text, diagnostic, lookups):
    """k = 20 mentions that each read two ways, in a Given before a When
    that fails, or in a When before a Then that fails: 2^k readings of the
    section, none of which fits the next one. The whole requirement is one
    ``match_clause`` search, where threading each reading into the next
    section took a search per reading: at k = 12, 4,097 calls and 12,440
    lookups for the Given row, 4,098 calls for the When row."""
    model = small_model(signals=[{"name": name} for m in TWO_READINGS for name in (m[:-1], m)])
    rules = parse_kb(
        'metareq M -> F:\n  given: "<<Block as owner>> in <<State as src>>"\n' + templates
        + '  then:  "goes in <<State as dst>>"\nfragment F:\n  owner: owner  source: src  target: dst\n'
    )
    calls = counted(monkeypatch, "match_clause", "lookup_elements")
    ast = ast_of(text.format(mentions=" and ".join(TWO_READINGS)))
    with pytest.raises(NoMatch) as info:
        match_requirement(ast, rules, model)
    assert info.value.diagnostics == (diagnostic,)
    assert calls["match_clause"] == 1
    # At most one lookup per (word, slot) state and span length (at most 4
    # words), in the requirement's words (keywords included) and the rule's
    # slots: O(k²).
    words = sum(len(c.words) + 1 for c in ast.given + ast.when + ast.then) - 1
    metareq = rules.metareqs[0]
    slots = sum(isinstance(item, SlotPattern) for t in metareq.given + metareq.when + metareq.then for item in t.items)
    assert calls["lookup_elements"] == lookups <= 4 * words * slots


def every_item_case(items: int, templates: int, sections: tuple[str, ...] = ("then",)) -> tuple[str, str]:
    """A rule whose When and Then ``sections`` have ``templates`` templates
    of ``items`` items each, and whose Given, if in ``sections``, is one
    template of ``items`` items; and a requirement that reads through every
    item."""
    clause, given = " go" * (items - 1), " go" * (items - 3) * ("given" in sections)
    rule = (
        f'metareq M -> F:\n  given: "<<Block as owner>> in <<State as src>>{given}"\n'
        + "".join(f'  {section}: "<<Block as {section}{i}>>{clause}"\n'
                  for section in ("when", "then") if section in sections for i in range(templates))
        + "fragment F:\n  owner: owner  source: src  target: src\n"
    )
    text = f"Given Pump in Off{given}" + "".join(
        f", {section.capitalize()} " + " and ".join([f"Pump{clause}"] * templates)
        for section in ("when", "then") if section in sections
    )
    return rule, text + "."


@pytest.mark.parametrize("items, templates, sections", [
    (SIZE_LIMIT, 1, ("then",)),
    (2, SIZE_LIMIT // 2, ("then",)),
    (SIZE_LIMIT, 1, SECTIONS),  # 302 items joined
])
def test_a_section_at_the_size_limit_is_matched_through_every_item(items, templates, sections):
    rule, text = every_item_case(items, templates, sections)
    result = match_requirement(ast_of(text), parse_kb(rule), small_model(blocks=[PUMP]))
    filled = len(sections) - ("given" in sections)
    assert [b.element for b in result.bindings] == ["Pump", "Off"] + ["Pump"] * templates * filled


def test_a_rule_too_large_to_match_is_refused():
    """The matcher recurses once per item of a rule, whose sections it
    reads as one clause. 100 templates of 100 items each passed the former
    bounds (per template and per section), and matching them raised
    RecursionError; ``parse_kb`` refuses them now, so no match is tried."""
    rule, text = every_item_case(SIZE_LIMIT, SIZE_LIMIT)
    with pytest.raises(KBSyntaxError):
        match_requirement(ast_of(text), parse_kb(rule), small_model(blocks=[PUMP]))


def reference_outcome(ast, metareq, model) -> list | MetaReqDiagnostic:
    """The binding sets ``metareq`` gives a requirement whose When is not
    disjunctive, each section's contexts threaded into the next by the
    depth-first reference, or the first failing section's diagnostic: the
    depth-first reference's where the rule expects more or fewer clauses,
    else the breadth-first reference's."""
    mentions, owner, ctxs = Mentions(model), metareq.fragment.owner_role, [()]
    for section in SECTIONS:
        clauses, templates = getattr(ast, section), getattr(metareq, section)
        args = (metareq.id, section, clauses, templates, mentions, owner, ctxs)
        found = reference_match_section(*args)
        if isinstance(found, MetaReqDiagnostic):
            if found.template_index is None:  # the rule expects more or fewer clauses
                return found
            return reference_section_failure(metareq.id, section, clauses, templates, model, owner, ctxs)
        ctxs = found
    return ctxs


def requirement_as_reference(ast, metareq, model) -> list:
    """Match ``ast`` against ``metareq`` alone. The outcome kind and the
    binding sets as a multiset (phrases included) must equal
    ``reference_outcome``'s, and so must a diagnostic. Returns the binding
    sets, [] where the rule does not fit."""
    expected = reference_outcome(ast, metareq, model)
    try:
        result = match_requirement(ast, KnowledgeBase((metareq,), (metareq.fragment,)), model)
    except NoMatch as exc:
        assert exc.diagnostics == (expected,), ast
        return []
    except AmbiguousMatch as exc:
        found = exc.binding_sets
    else:
        found = result.binding_sets
    assert not isinstance(expected, MetaReqDiagnostic) and Counter(found) == Counter(expected), ast
    return list(found)


def test_requirement_search_keeps_the_depth_first_contexts_and_diagnostics():
    """On random requirements (``random_multi_kb`` rules, and
    ``random_section_case`` with block names holding "And" and Givens read
    two ways; a disjunctive When is left to the oracle tests) and on a fixed
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
        if len(ast.when) > 1 and ast.when[1].lead.lower == "or":
            continue
        found.extend(len(requirement_as_reference(ast, metareq, model)) for metareq in kb.metareqs)
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
    ctxs = requirement_as_reference(ast_of(text), rules.metareqs[0], model)
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
    given = reference_match_section("M", "given", ast_of(text).given, rules.metareqs[0].given,
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


@pytest.mark.parametrize("first, then, ti, reason, role, phrase", [
    # A literal meets a connective as the end of its clause.
    ("<<Block as b>> stops", "Gate stops and goes and in s2", 1,
     "expected literal 'in', got 'end of clause'", None, None),
    # A slot that reads nothing at a connective meets the end of its clause.
    ("<<Block as b>> stops", "Gate stops and goes in and Xray", 1, "clause ended before slot 'dst'", "dst", None),
    # A slot's failure phrase stops before a connective.
    ("<<Block as b>> stops", "Gate stops and goes in Nowhere and Xray", 1, "no State matches", "dst", "Nowhere"),
    # A template whose clause goes on leaves the rest of that clause.
    ("<<Block as b>> stops", "Gate stops now and goes in s2 and Pump", 0,
     "trailing words 'now' fit no template item", None, None),
    # A slot that reads the rest of the section ("Ghost and Gate" names
    # Gate) leaves no clause for the next template.
    ("stops <<Block as b>>", "stops Ghost and Gate", 0, "section ended before the next template", None, None),
])
def test_a_connective_ends_a_clause_in_a_diagnostic(first, then, ti, reason, role, phrase):
    kb = parse_kb(PATH_KB_HEAD + f'  then:  "{first}"\n' + PATH_KB_TAIL)
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
