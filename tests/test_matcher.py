from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, reject, strategies as st

from modcomplete import (
    AmbiguousMatch,
    Binding,
    KnowledgeBase,
    MatchResult,
    Metaclass,
    NoMatch,
    default_kb,
    load_model,
    match_clause,
    match_requirement,
    oracle_match,
    parse_kb,
    parse_requirement,
)
from modcomplete import matcher
from modcomplete.gherkin import ParseError, RequirementDoc
from modcomplete.matcher import MetaReqDiagnostic, SpanAmbiguity
from modcomplete.oracle import _oracle_clause_maps  # white-box: segmentation oracle

from support import (
    ARTICLE_SPELLINGS,
    agreement,
    random_case,
    random_kb,
    random_model,
    random_multi_kb,
    random_requirement,
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
    result = match_clause(ast.given[0], template, railway_model, owner_role="context1")
    assert len(result.maps) == 1
    assert {b.role: b.element for b in result.maps[0]} == {
        "context1": "Train",
        "starting": "Running",
    }


def test_match_clause_unknown_block(railway_model, kb):
    ast = ast_of("Given a Spaceship in running Then x goes in braking")
    template = kb.metareqs[0].given[0]
    result = match_clause(ast.given[0], template, railway_model, owner_role="context1")
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
    result = match_clause(ast.when[0], template, model)
    assert [{b.role: b.element for b in m} for m in result.maps] == [
        {"context2": "BrakeMonitor", "event": "Halt"}
    ]
    # agrees with the exhaustive segmentation oracle
    oracle_maps = _oracle_clause_maps(ast.when[0], template, model, None, ())
    assert [{b.role: b.element for b in m} for m in oracle_maps] == [
        {"context2": "BrakeMonitor", "event": "Halt"}
    ]


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
    from modcomplete import Mentions, lookup_elements

    result = match_requirement(railway_ast, kb, railway_model)
    mentions = Mentions(railway_model)
    for binding_set in result.binding_sets:
        for binding in binding_set:
            assert binding.element in lookup_elements(
                mentions, binding.phrase, binding.metaclass
            )


def test_binding_soundness_randomized(kb):
    from modcomplete import Mentions, lookup_elements

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


def test_a_clause_group_is_matched_once_per_context(monkeypatch):
    """Only one-clause groups fit here, so each (template, first clause) is
    reached by one context and the search makes at most n·k·(n−k+1)
    match_clause calls. Matching every grouping again (C(n−1, k−1) = 33,649
    of them) made 42,505."""
    n, k = 24, 6
    model = small_model(
        blocks=[{"name": "Pump", "state_machine": {"states": ["Off", "On"], "transitions": []}}]
    )
    rules = parse_kb(
        'metareq M -> F:\n  given: "<<Block as owner>> in <<State as src>>"\n'
        + "".join(f'  then:  "<<Block as b{i}>> goes in <<State as s{i}>>"\n' for i in range(k))
        + "fragment F:\n  owner: owner  source: src  target: s0\n"
    )
    calls = 0
    real = matcher.match_clause

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(matcher, "match_clause", counting)
    text = "Given Pump in Off, Then " + " and ".join(["Pump goes in On"] * n) + "."
    with pytest.raises(NoMatch) as info:
        match_requirement(ast_of(text), rules, model)
    assert calls <= n * k * (n - k + 1)
    # The last template gets the 19 clauses left by five one-clause groups.
    trailing = " ".join(["and Pump goes in On"] * (n - k))
    assert info.value.diagnostics == (
        MetaReqDiagnostic("M", f"trailing words {trailing!r} fit no template item", "then", 5),
    )


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
