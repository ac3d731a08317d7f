from __future__ import annotations

import itertools
import json
import random

import pytest

from modcomplete import (
    SendEffect,
    StateNotInOwnerMachine,
    check_acceptability,
    complete_model,
    instantiate_fragment,
    load_model,
    match_requirement,
    parse_corpus,
    parse_kb,
    parse_requirement,
    save_model,
)
from modcomplete.gherkin import RequirementDoc
from modcomplete.model import validate_model

from conftest import RAILWAY_REQUIREMENT


def ast_of(text, rid="R"):
    return parse_requirement(RequirementDoc(id=rid, text=text))


def corpus_of(*texts_with_ids):
    return [RequirementDoc(id=rid, text=text) for rid, text in texts_with_ids]


def test_instantiate_railway_fragment(railway_model, railway_ast, kb):
    match = match_requirement(railway_ast, kb, railway_model)
    fragment = kb.fragment_by_id("F1")
    instance = instantiate_fragment(fragment, match.binding_sets, railway_model, "REQ-001")
    assert instance.owner == "Train"
    (transition,) = instance.transitions
    assert (transition.source, transition.target, transition.trigger) == (
        "Running", "Braking", "EmergencyStop",
    )
    assert transition.effects == (SendEffect("Activate", "Brake"),)
    assert transition.provenance == ("REQ-001",)
    assert instance.warnings == ()


def test_instantiate_triggerless_fragment(kb):
    model = load_model(json.dumps({
        "version": "1", "name": "S", "signals": [],
        "blocks": [{"name": "Gate", "state_machine": {"states": ["s1", "s2"], "transitions": []}}],
    }))
    ast = ast_of("Given Gate in s1, Then Gate goes in s2")
    match = match_requirement(ast, kb, model)
    assert match.metareq_id == "MR3"
    instance = instantiate_fragment(kb.fragment_by_id("F3"), match.binding_sets, model, "R")
    (transition,) = instance.transitions
    assert transition.trigger is None and transition.effects == ()


def test_instantiate_disjunctive_fans_out(kb):
    model = load_model(json.dumps({
        "version": "1", "name": "S",
        "signals": [{"name": "Sig1"}, {"name": "Sig2"}],
        "blocks": [{"name": "Gate", "state_machine": {"states": ["s1", "s2"], "transitions": []}}],
    }))
    ast = ast_of("Given Gate in s1, When Gate receives Sig1 or Sig2, Then Gate goes in s2")
    match = match_requirement(ast, kb, model)
    instance = instantiate_fragment(kb.fragment_by_id("F2"), match.binding_sets, model, "R")
    assert len(instance.transitions) == 2
    assert {t.trigger for t in instance.transitions} == {"Sig1", "Sig2"}
    stripped = {
        (t.source, t.target, t.effects) for t in instance.transitions
    }
    assert len(stripped) == 1  # identical but for trigger


def test_instantiate_state_not_in_owner_machine():
    # A custom rule binds the starting state globally before the owner, so
    # it can land in another block's machine.
    kb = parse_kb(
        'metareq MX -> FX:\n'
        '  given: "<<State as starting>> state of <<Block as context1>>"\n'
        '  then:  "goes in <<State as final>>"\n'
        "fragment FX:\n"
        "  owner: context1   source: starting   target: final\n"
    )
    model = load_model(json.dumps({
        "version": "1", "name": "S", "signals": [],
        "blocks": [
            {"name": "Gate", "state_machine": {"states": ["s2"], "transitions": []}},
            {"name": "Pump", "state_machine": {"states": ["s1", "s2"], "transitions": []}},
        ],
    }))
    ast = ast_of("Given s1 state of Gate, Then goes in s2")
    match = match_requirement(ast, kb, model)
    with pytest.raises(StateNotInOwnerMachine, match="s1"):
        instantiate_fragment(kb.fragment_by_id("FX"), match.binding_sets, model, "R")
    # complete_model records it instead of raising
    result = complete_model(model, [RequirementDoc(id="R", text="Given s1 state of Gate, Then goes in s2")], kb)
    assert [u.requirement_id for u in result.report.unmatched] == ["R"]


def test_complete_railway(railway_model, railway_corpus, kb):
    result = complete_model(railway_model, railway_corpus, kb)
    machine = result.model.block("Train").state_machine
    assert len(machine.transitions) == 1
    t = machine.transitions[0]
    assert (t.source, t.target, t.trigger) == ("Running", "Braking", "EmergencyStop")
    assert t.effects == (SendEffect("Activate", "Brake"),)
    assert len(result.report.added) == 1
    assert result.report.conflicts == ()
    assert result.report.duplicates == ()
    assert result.report.unmatched == ()
    validate_model(result.model)


def test_complete_empty_corpus(railway_model, kb):
    result = complete_model(railway_model, [], kb)
    assert result.model == railway_model
    assert result.report.added == ()
    assert result.trace == ()


def test_duplicate_requirement_unions_provenance(railway_model, kb):
    corpus = corpus_of(("REQ-001", RAILWAY_REQUIREMENT), ("SAFETY-7", RAILWAY_REQUIREMENT))
    result = complete_model(railway_model, corpus, kb)
    assert len(result.report.added) == 1
    assert len(result.report.duplicates) == 1
    assert result.report.added[0].requirement_ids == ("REQ-001",)
    assert result.report.duplicates[0].requirement_ids == ("SAFETY-7",)
    (transition,) = result.model.block("Train").state_machine.transitions
    assert transition.provenance == ("REQ-001", "SAFETY-7")
    # model identical to the single-requirement run once provenance is set aside
    single = complete_model(railway_model, corpus[:1], kb)
    (single_transition,) = single.model.block("Train").state_machine.transitions
    assert single_transition.id == transition.id
    assert single_transition.provenance == ("REQ-001",)
    from dataclasses import replace
    assert replace(transition, provenance=()) == replace(single_transition, provenance=())


def test_conflicting_pair_reported_and_withheld(railway_model, kb):
    conflicting = (
        "Given a Train in running, When the Braking Supervision receives an "
        "Emergency Stop Message, Then the Train goes in running."
    )
    corpus = corpus_of(("REQ-A", RAILWAY_REQUIREMENT), ("REQ-B", conflicting))
    result = complete_model(railway_model, corpus, kb)
    assert len(result.report.conflicts) == 1
    conflict = result.report.conflicts[0]
    assert conflict.requirement_ids() == ("REQ-A", "REQ-B")
    assert (conflict.owner, conflict.source, conflict.trigger) == (
        "Train", "Running", "EmergencyStop",
    )
    assert len(conflict.variants) == 2
    # both withheld: the model gains nothing
    assert result.model == railway_model
    assert result.report.added == ()


def test_conflict_does_not_block_other_requirements(railway_model, kb):
    conflicting = (
        "Given a Train in running, When the Braking Supervision receives an "
        "Emergency Stop Message, Then the Train goes in running."
    )
    independent = "Given a Train in braking, Then the Train goes in running."
    corpus = corpus_of(
        ("REQ-A", RAILWAY_REQUIREMENT),
        ("REQ-B", conflicting),
        ("REQ-C", independent),
    )
    result = complete_model(railway_model, corpus, kb)
    assert len(result.report.conflicts) == 1
    assert [e.requirement_ids for e in result.report.added] == [("REQ-C",)]
    machine = result.model.block("Train").state_machine
    assert len(machine.transitions) == 1
    assert machine.transitions[0].provenance == ("REQ-C",)


def test_requirement_ids_land_in_exactly_one_bucket(railway_model, kb):
    conflicting = (
        "Given a Train in running, When the Braking Supervision receives an "
        "Emergency Stop Message, Then the Train goes in running."
    )
    corpus = corpus_of(
        ("R1", RAILWAY_REQUIREMENT),
        ("R2", RAILWAY_REQUIREMENT),
        ("R3", conflicting),
        ("R4", "Given a Spaceship in orbit, Then the Spaceship goes in reentry."),
    )
    result = complete_model(railway_model, corpus, kb)
    buckets = {
        "added": {rid for e in result.report.added for rid in e.requirement_ids},
        "duplicates": {rid for e in result.report.duplicates for rid in e.requirement_ids},
        "conflicts": {rid for c in result.report.conflicts for rid in c.requirement_ids()},
        "unmatched": {u.requirement_id for u in result.report.unmatched},
    }
    for rid in ("R1", "R2", "R3", "R4"):
        assert sum(rid in bucket for bucket in buckets.values()) == 1


def test_idempotence(railway_model, railway_corpus, kb):
    once = complete_model(railway_model, railway_corpus, kb)
    again = complete_model(once.model, railway_corpus, kb)
    assert again.model == once.model
    assert again.report.added == ()
    assert len(again.report.duplicates) == 1


def test_corpus_order_insensitivity(railway_model, kb):
    conflicting = (
        "Given a Train in running, When the Braking Supervision receives an "
        "Emergency Stop Message, Then the Train goes in running."
    )
    independent = "Given a Train in braking, Then the Train goes in running."
    docs = corpus_of(
        ("R1", RAILWAY_REQUIREMENT),
        ("R2", conflicting),
        ("R3", independent),
    )
    outputs = set()
    conflict_sets = set()
    for perm in itertools.permutations(docs):
        result = complete_model(railway_model, list(perm), kb)
        outputs.add(save_model(result.model))
        conflict_sets.add(
            frozenset(
                (c.owner, c.source, c.trigger, c.requirement_ids())
                for c in result.report.conflicts
            )
        )
    assert len(outputs) == 1
    assert len(conflict_sets) == 1


def test_conservation(railway_model, railway_corpus, kb):
    result = complete_model(railway_model, railway_corpus, kb)
    assert {b.name for b in result.model.blocks} == {b.name for b in railway_model.blocks}
    assert result.model.signals == railway_model.signals
    for before, after in zip(railway_model.blocks, result.model.blocks):
        if before.state_machine:
            assert after.state_machine.states == before.state_machine.states
            assert after.state_machine.initial == before.state_machine.initial


def test_acceptability_clean_run(railway_model, railway_corpus, kb):
    result = complete_model(railway_model, railway_corpus, kb)
    findings = check_acceptability(result.report, result.model)
    assert [f for f in findings if f.severity == "error"] == []
    assert findings == []


def test_acceptability_redundancy_warning(railway_model, kb):
    corpus = corpus_of(("R1", RAILWAY_REQUIREMENT), ("R2", RAILWAY_REQUIREMENT))
    result = complete_model(railway_model, corpus, kb)
    findings = check_acceptability(result.report, result.model)
    redundancy = [f for f in findings if f.kind == "Redundancy"]
    assert len(redundancy) == 1
    assert redundancy[0].severity == "warning"
    assert redundancy[0].requirement_ids == ("R2",)


def test_acceptability_conflict_error(railway_model, kb):
    conflicting = (
        "Given a Train in running, When the Braking Supervision receives an "
        "Emergency Stop Message, Then the Train goes in running."
    )
    corpus = corpus_of(("REQ-A", RAILWAY_REQUIREMENT), ("REQ-B", conflicting))
    result = complete_model(railway_model, corpus, kb)
    findings = check_acceptability(result.report, result.model)
    conflicts = [f for f in findings if f.kind == "Conflict"]
    assert len(conflicts) == 1
    assert conflicts[0].severity == "error"
    assert conflicts[0].requirement_ids == ("REQ-A", "REQ-B")


def test_acceptability_unverifiable_info(railway_model, kb):
    corpus = corpus_of(("R1", "Given a Spaceship in orbit, Then it goes in reentry."))
    result = complete_model(railway_model, corpus, kb)
    findings = check_acceptability(result.report, result.model)
    assert [f.kind for f in findings] == ["Unverifiable"]
    assert findings[0].severity == "info"


def test_signal_not_receivable_warning(railway_model_text, kb):
    doc = json.loads(railway_model_text)
    for block in doc["blocks"]:
        if block["name"] == "Brake":
            block["receivable_signals"] = ["EmergencyStop"]  # Activate missing
    model = load_model(json.dumps(doc))
    result = complete_model(model, parse_corpus("@id: R1\n" + RAILWAY_REQUIREMENT), kb)
    findings = check_acceptability(result.report, result.model)
    warnings = [f for f in findings if f.kind == "SignalNotReceivable"]
    assert len(warnings) == 1
    assert warnings[0].severity == "warning"
    assert "Activate" in warnings[0].message
    # transition still added (warning, not error)
    assert len(result.report.added) == 1


def test_receivable_omitted_means_unchecked(railway_model_text, kb):
    doc = json.loads(railway_model_text)
    for block in doc["blocks"]:
        block.pop("receivable_signals", None)
    model = load_model(json.dumps(doc))
    result = complete_model(model, parse_corpus(RAILWAY_REQUIREMENT), kb)
    findings = check_acceptability(result.report, result.model)
    assert [f for f in findings if f.kind == "SignalNotReceivable"] == []


def test_non_singular_info_for_multi_effect_rule():
    kb = parse_kb(
        'metareq M2 -> F2:\n'
        '  given: "<<Block as owner>> in <<State as src>>"\n'
        '  when:  "<<Block as ctx>> receives <<Signal as ev>>"\n'
        '  then:  "<<Signal as op1>> (to)? <<Block as t1>>"\n'
        '  then:  "<<Signal as op2>> (to)? <<Block as t2>>"\n'
        '  then:  "goes in <<State as dst>>"\n'
        "fragment F2:\n"
        "  owner: owner   source: src   target: dst\n"
        "  trigger: ev   effect: op1 -> t1   effect: op2 -> t2\n"
    )
    model = load_model(json.dumps({
        "version": "1", "name": "S",
        "signals": [{"name": "Halt"}, {"name": "Open"}, {"name": "Close"}],
        "blocks": [
            {"name": "Gate", "state_machine": {"states": ["s1", "s2"], "transitions": []}},
            {"name": "Pump"}, {"name": "Valve"},
        ],
    }))
    text = ("Given Gate in s1, When Gate receives Halt, Then Open to Pump "
            "and Close to Valve and goes in s2")
    result = complete_model(model, [RequirementDoc(id="R", text=text)], kb)
    assert len(result.report.added) == 1
    (transition_entry,) = result.report.added
    transition = result.model.block("Gate").state_machine.transitions[0]
    assert len(transition.effects) == 2
    findings = check_acceptability(result.report, result.model)
    non_singular = [f for f in findings if f.kind == "NonSingular"]
    assert len(non_singular) == 1
    assert non_singular[0].severity == "info"


def test_random_completions_stay_valid(kb):
    from support import random_case

    rng = random.Random(99)
    for _ in range(60):
        model, ast = random_case(rng)
        doc = RequirementDoc(id="R", text=" ".join(t.text for t in ast.tokens))
        result = complete_model(model, [doc], kb)
        validate_model(result.model)
        for block in result.model.blocks:
            if block.state_machine:
                keys = [(t.source, t.trigger) for t in block.state_machine.transitions]
                assert len(keys) == len(set(keys))  # determinism per machine
        again = complete_model(result.model, [doc], kb)
        assert again.model == result.model
        assert again.report.added == ()


def test_long_article_run_does_not_abort_the_run(railway_model, kb):
    # Skipping articles once used one stack frame per article.
    text = RAILWAY_REQUIREMENT.replace("Given a Train", "Given " + "the " * 2000 + "Train")
    result = complete_model(railway_model, [RequirementDoc(id="R", text=text)], kb)
    assert result.outcomes[0].error is None
    assert result.outcomes[0].match.metareq_id == "MR1"
    assert [entry.requirement_ids for entry in result.report.added] == [("R",)]
