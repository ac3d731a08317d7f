from __future__ import annotations

import argparse
import itertools
import json
import random

import pytest

import modcomplete.generator as generator
from modcomplete import cli
import modcomplete.model as model_module
from modcomplete import (
    SendEffect,
    StateNotInOwnerMachine,
    check_acceptability,
    complete_model,
    default_kb,
    instantiate_fragment,
    load_model,
    match_requirement,
    parse_corpus,
    parse_kb,
    parse_requirement,
    save_model,
)
from modcomplete.gherkin import RequirementDoc
from modcomplete.kb import DEFAULT_KB_TEXT
from modcomplete.model import make_transition

from conftest import FIXTURES, RAILWAY_REQUIREMENT
from reference_complete import reference_complete
from support import STATE_POOL, random_model, random_multi_kb, random_requirement, rendered_requirement


def ast_of(text, rid="R"):
    return parse_requirement(RequirementDoc(id=rid, text=text))


def corpus_of(*texts_with_ids):
    return [RequirementDoc(id=rid, text=text) for rid, text in texts_with_ids]


def test_instantiate_railway_fragment(railway_model, railway_ast, kb):
    match = match_requirement(railway_ast, kb, railway_model)
    fragment = kb.metareqs[0].fragment
    instance = instantiate_fragment(fragment, match.binding_sets, railway_model, "REQ-001")
    ((owner, transition),) = instance
    assert owner == "Train"
    assert (transition.source, transition.target, transition.trigger) == (
        "Running", "Braking", "EmergencyStop",
    )
    assert transition.effects == (SendEffect("Activate", "Brake"),)
    assert transition.provenance == ("REQ-001",)


def test_instantiate_triggerless_fragment(kb):
    model = load_model(json.dumps({
        "version": "1", "name": "S", "signals": [],
        "blocks": [{"name": "Gate", "state_machine": {"states": ["s1", "s2"], "transitions": []}}],
    }))
    ast = ast_of("Given Gate in s1, Then Gate goes in s2")
    match = match_requirement(ast, kb, model)
    assert match.metareq_id == "MR3"
    instance = instantiate_fragment(kb.metareqs[2].fragment, match.binding_sets, model, "R")
    ((_, transition),) = instance
    assert transition.trigger is None and transition.effects == ()


def test_instantiate_disjunctive_fans_out(kb):
    model = load_model(json.dumps({
        "version": "1", "name": "S",
        "signals": [{"name": "Sig1"}, {"name": "Sig2"}],
        "blocks": [{"name": "Gate", "state_machine": {"states": ["s1", "s2"], "transitions": []}}],
    }))
    ast = ast_of("Given Gate in s1, When Gate receives Sig1 or Sig2, Then Gate goes in s2")
    match = match_requirement(ast, kb, model)
    instance = instantiate_fragment(kb.metareqs[1].fragment, match.binding_sets, model, "R")
    assert len(instance) == 2
    assert {t.trigger for _, t in instance} == {"Sig1", "Sig2"}
    stripped = {
        (t.source, t.target, t.effects) for _, t in instance
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
        instantiate_fragment(kb.metareqs[0].fragment, match.binding_sets, model, "R")
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
    assert load_model(save_model(result.model)) == result.model


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
    assert transition._replace(provenance=()) == single_transition._replace(provenance=())


def test_a_requirement_with_one_new_transition_lists_no_duplicate(railway_model, kb):
    """R2's first alternative repeats R1's transition and its second is new:
    R2 counts as added, and the repeat only gains R2 in its provenance."""
    stop = "Given a Train in running, When the Braking Supervision receives an Emergency Stop Message"
    corpus = corpus_of(
        ("R1", f"{stop}, Then the Train goes in braking."),
        ("R2", f"{stop} or Activate, Then the Train goes in braking."),
    )
    result = complete_model(railway_model, corpus, kb)
    by_id = {t.id: t for t in result.model.block("Train").state_machine.transitions}
    assert [(by_id[e.transition_id].trigger, e.requirement_ids) for e in result.report.added] == [
        ("EmergencyStop", ("R1",)), ("Activate", ("R2",)),
    ]
    assert result.report.duplicates == ()
    assert sorted((t.trigger, t.provenance) for t in by_id.values()) == [
        ("Activate", ("R2",)), ("EmergencyStop", ("R1", "R2")),
    ]


def test_merge_is_linear_in_the_corpus(railway_model, kb, monkeypatch):
    """N copies of the railway requirement name one transition. The
    provenance entries sorted during one ``complete_model`` grow linearly in
    N, counted rather than timed, and the merge runs once per run. Merging
    one candidate at a time re-sorted the growing provenance list on every
    duplicate: N(N+1)/2 entries."""
    sorted_unique, merge = model_module._sorted_unique, generator.add_transition
    counts = {"entries": 0, "merges": 0}

    def counting_sort(items):
        counts["entries"] += len(items)
        return sorted_unique(items)

    def counting_merge(*args):
        counts["merges"] += 1
        return merge(*args)

    monkeypatch.setattr(model_module, "_sorted_unique", counting_sort)
    monkeypatch.setattr(generator, "add_transition", counting_merge)
    entries = {}
    for n in (1000, 4000):
        counts.update(entries=0, merges=0)
        corpus = [RequirementDoc(id=f"R{i}", text=RAILWAY_REQUIREMENT) for i in range(n)]
        result = complete_model(railway_model, corpus, kb)
        assert counts["merges"] == 1
        assert len(result.report.duplicates) == n - 1
        entries[n] = counts["entries"]
    assert entries[4000] <= 4.5 * entries[1000]


def test_conflicting_pair_reported_and_withheld(railway_model, kb):
    conflicting = (
        "Given a Train in running, When the Braking Supervision receives an "
        "Emergency Stop Message, Then the Train goes in running."
    )
    corpus = corpus_of(("REQ-A", RAILWAY_REQUIREMENT), ("REQ-B", conflicting))
    result = complete_model(railway_model, corpus, kb)
    assert len(result.report.conflicts) == 1
    conflict = result.report.conflicts[0]
    assert conflict.requirement_ids == ("REQ-A", "REQ-B")
    assert (conflict.owner, conflict.source, conflict.trigger) == (
        "Train", "Running", "EmergencyStop",
    )
    assert len(conflict.variants) == 2
    # both withheld: the model gains nothing
    assert result.model == railway_model
    assert result.report.added == ()


def test_a_candidate_repeating_one_of_two_disagreeing_transitions_is_a_conflict(railway_model, kb):
    """Train already holds two transitions on EmergencyStop from Running:
    to Braking (OLD-1), which R1 repeats, and to Running (OLD-2). R1 is one
    conflict with both variants, and nothing is added or repeated."""
    activate = (SendEffect("Activate", "Brake"),)
    existing = (
        make_transition("Train", "Running", "Braking", "EmergencyStop", activate, ("OLD-1",)),
        make_transition("Train", "Running", "Running", "EmergencyStop", (), ("OLD-2",)),
    )
    blocks = tuple(
        b._replace(state_machine=b.state_machine._replace(
            transitions=tuple(sorted(existing, key=lambda t: t.id))
        )) if b.name == "Train" else b
        for b in railway_model.blocks
    )
    model = railway_model._replace(blocks=blocks)
    assert load_model(save_model(model)) == model
    result = complete_model(model, corpus_of(("R1", RAILWAY_REQUIREMENT)), kb)
    (conflict,) = result.report.conflicts
    assert (conflict.owner, conflict.source, conflict.trigger) == ("Train", "Running", "EmergencyStop")
    assert [(v.target, v.effects, v.requirement_ids) for v in conflict.variants] == [
        ("Braking", activate, ("OLD-1", "R1")), ("Running", (), ("OLD-2",)),
    ]
    assert conflict.requirement_ids == ("OLD-1", "OLD-2", "R1")
    assert result.report.added == result.report.duplicates == result.trace == ()
    assert result.model == model


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
        "conflicts": {rid for c in result.report.conflicts for rid in c.requirement_ids},
        "unmatched": {u.requirement_id for u in result.report.unmatched},
    }
    for rid in ("R1", "R2", "R3", "R4"):
        assert sum(rid in bucket for bucket in buckets.values()) == 1


def test_an_outcome_keeps_its_instance_even_when_withheld(railway_model, kb):
    conflicting = (
        "Given a Train in running, When the Braking Supervision receives an "
        "Emergency Stop Message, Then the Train goes in running."
    )
    corpus = corpus_of(
        ("R1", RAILWAY_REQUIREMENT),
        ("R2", conflicting),
        ("R3", "Given a Spaceship in orbit, Then the Spaceship goes in reentry."),
    )
    result = complete_model(railway_model, corpus, kb)
    assert result.report.added == () and len(result.report.conflicts) == 1
    r1, r2, r3 = result.outcomes
    for outcome, fragment in ((r1, kb.metareqs[0].fragment), (r2, kb.metareqs[1].fragment)):
        assert outcome.error is None
        assert outcome.instance == instantiate_fragment(
            fragment, outcome.match.binding_sets, railway_model, outcome.doc.id
        )
    assert r3.instance is None and r3.error is not None


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
                (c.owner, c.source, c.trigger, c.requirement_ids)
                for c in result.report.conflicts
            )
        )
    assert len(outputs) == 1
    assert len(conflict_sets) == 1


def random_corpus(rng: random.Random, model, kb) -> list[RequirementDoc]:
    """Up to 30 requirements rendered from ``kb``'s rules, a quarter of them
    exact repeats of an earlier text under a new id."""
    texts: list[str] = []
    for _ in range(rng.randint(1, 30)):
        repeat = texts and rng.random() < 0.25
        texts.append(rng.choice(texts) if repeat else rendered_requirement(rng, kb, model))
    return [RequirementDoc(id=f"R{i}", text=text) for i, text in enumerate(texts, start=1)]


def test_random_corpora_keep_order_and_split_invariants():
    """(a) A shuffled corpus gives the same model bytes, conflict records and
    unmatched entries; which copy of a repeated transition is the added one
    follows corpus order, so the added/duplicate split is not compared.
    (b) Without conflicts, completing a prefix and then the rest on its
    output gives the model one run gives. Each outcome kind must occur in at
    least a tenth of the cases for the check to count."""
    rng = random.Random(20)
    cases, seen = 300, dict.fromkeys(("added", "duplicates", "conflicts", "unmatched"), 0)
    for _ in range(cases):
        model, kb = random_model(rng), random_multi_kb(rng)
        corpus = random_corpus(rng, model, kb)
        result = complete_model(model, corpus, kb)
        saved = save_model(result.model)
        shuffled = complete_model(model, rng.sample(corpus, len(corpus)), kb)
        assert save_model(shuffled.model) == saved, corpus
        for field in ("conflicts", "unmatched"):
            assert set(getattr(shuffled.report, field)) == set(getattr(result.report, field)), corpus
        if not result.report.conflicts:
            cut = rng.randint(0, len(corpus))
            first = complete_model(model, corpus[:cut], kb)
            assert save_model(complete_model(first.model, corpus[cut:], kb).model) == saved, corpus
        for field in seen:
            seen[field] += bool(getattr(result.report, field))
    assert min(seen.values()) >= cases // 10, seen


def varied_corpus(rng: random.Random, model, render, prefix: str, size: int, earlier=()) -> list[RequirementDoc]:
    """Requirements from ``render()``, with three kinds of copy of an
    earlier text (of this corpus or of ``earlier``) injected: exact repeats,
    variants with a state word swapped (a new target or source, so conflicts
    arise), and variants whose When gains ``or`` and a signal name (so one
    requirement can repeat a transition and add another)."""
    signals = [s.name for s in model.signals]
    pool, texts = list(earlier), []
    for _ in range(size):
        roll = rng.random()
        if pool and roll < 0.25:
            texts.append(rng.choice(pool))
        elif pool and roll < 0.45:
            words = rng.choice(pool).split()
            spots = [i for i, w in enumerate(words) if w.rstrip(",.") in STATE_POOL]
            if spots:
                i = rng.choice(spots)
                words[i] = words[i].replace(words[i].rstrip(",."), rng.choice(STATE_POOL))
            texts.append(" ".join(words))
        elif pool and signals and roll < 0.6:
            head, _, then = rng.choice(pool).partition(", Then ")
            if ", When " in head:
                texts.append(f"{head} or {rng.choice(signals)}, Then {then}")
        else:
            texts.append(render())
        pool[len(earlier):] = texts
    return [RequirementDoc(id=f"{prefix}{i}", text=text) for i, text in enumerate(texts, start=1)]


def disjunctive_requirement(rng: random.Random, model) -> str:
    """A requirement for the built-in rule MR2 whose When names one or two
    of the model's signals, joined by ``or``. Its target is the state after
    its source, so two such requirements never conflict, and a later one
    often repeats one transition of an earlier one and adds another."""
    block = rng.choice([b for b in model.blocks if b.state_machine])
    states = block.state_machine.states
    i = rng.randrange(len(states))
    signals = rng.sample([s.name for s in model.signals], rng.randint(1, min(2, len(model.signals))))
    return (
        f"Given {block.name} in {states[i]}, When {block.name} receives {' or '.join(signals)}, "
        f"Then {block.name} goes in {states[(i + 1) % len(states)]}."
    )


def with_disagreeing_pair(rng: random.Random, model, owner, t):
    """``model`` whose ``owner`` machine also holds two transitions on
    ``t``'s (source, trigger) that disagree: ``t``'s own content (provenance
    OLD-1) or another target, and another target (OLD-2)."""
    block = model.block(owner)
    machine = block.state_machine
    targets = [s for s in machine.states if s != t.target]
    first = t.target if rng.random() < 0.5 else rng.choice(targets)
    second = rng.choice([s for s in machine.states if s != first])
    pair = [
        make_transition(owner, t.source, target, t.trigger, t.effects, (rid,))
        for target, rid in ((first, "OLD-1"), (second, "OLD-2"))
    ]
    held = {e.id for e in machine.transitions}
    transitions = machine.transitions + tuple(e for e in pair if e.id not in held)
    machine = machine._replace(transitions=tuple(sorted(transitions, key=lambda e: e.id)))
    blocks = tuple(b._replace(state_machine=machine) if b is block else b for b in model.blocks)
    return model._replace(blocks=blocks)


def test_complete_model_agrees_with_the_reference_merge():
    """Conflicts, withheld requirements, added and duplicate entries, each
    kept requirement's generated ids (new first, then repeated) and the
    final transitions with their provenance, against ``reference_complete``
    on 1000 corpora. A third start from a model that an earlier corpus
    completed, so candidates also meet existing transitions. A quarter start
    from a model whose machine holds two disagreeing transitions on the
    (source, trigger) of one candidate, one of them sometimes that
    candidate's own content. A quarter use the built-in rules, whose
    disjunctive When gives a requirement several transitions; such a
    requirement that repeats one and adds another ("mixed") is rarer, so it
    has its own floor."""
    rng = random.Random(7)
    kinds = ("added", "duplicate", "conflict", "withheld", "disagreeing start")
    cases, seen, mixed = 1000, dict.fromkeys(kinds, 0), 0
    for case in range(cases):
        model = random_model(rng)
        if rng.random() < 0.25:
            kb = default_kb()
            render = lambda: (
                disjunctive_requirement(rng, model) if model.signals and rng.random() < 0.8
                else random_requirement(rng, model)
            )
        else:
            kb = random_multi_kb(rng)
            render = lambda: rendered_requirement(rng, kb, model)
        earlier = []
        if rng.random() < 1 / 3:
            start = varied_corpus(rng, model, render, "S", 6)
            model = complete_model(model, start, kb).model
            earlier = [doc.text for doc in start]
        corpus = varied_corpus(rng, model, render, "R", rng.randint(1, 10), earlier)
        result = complete_model(model, corpus, kb)
        pairs = [pair for o in result.outcomes if o.instance for pair in o.instance]
        if pairs and rng.random() < 0.25:
            model = with_disagreeing_pair(rng, model, *rng.choice(pairs))
            assert load_model(save_model(model)) == model
            result = complete_model(model, corpus, kb)
            seen["disagreeing start"] += 1
        instances = []
        fragments = {metareq.id: metareq.fragment for metareq in kb.metareqs}
        for outcome in result.outcomes:
            if outcome.error is None:
                match = outcome.match
                fragment = fragments[match.metareq_id]
                instances.append(
                    (outcome.doc.id, instantiate_fragment(fragment, match.binding_sets, model, outcome.doc.id))
                )
        ref = reference_complete(model, instances)
        context = (case, corpus)
        assert list(result.report.conflicts) == ref.conflicts, context
        merged = {r.requirement_id for r in result.trace}
        assert {rid for rid, _ in instances} - merged == ref.withheld, context
        assert list(result.report.added) == ref.added, context
        assert list(result.report.duplicates) == ref.duplicates, context
        assert {r.requirement_id: r.generated for r in result.trace} == ref.generated, context
        final = {b.name: b.state_machine.transitions for b in result.model.blocks if b.state_machine}
        assert final == ref.transitions, context
        for kind, happened in zip(kinds, (ref.added, ref.duplicates, ref.conflicts, ref.withheld)):
            seen[kind] += bool(happened)
        added_by = [e.requirement_ids[0] for e in ref.added]
        mixed += any(0 < added_by.count(rid) < len(ids) for rid, ids in ref.generated.items())
    assert min(seen.values()) >= cases // 10, seen
    assert mixed >= cases // 100, mixed


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
    findings = check_acceptability(result)
    assert [f for f in findings if f.severity == "error"] == []
    assert findings == []


def test_acceptability_redundancy_warning(railway_model, kb):
    corpus = corpus_of(("R1", RAILWAY_REQUIREMENT), ("R2", RAILWAY_REQUIREMENT))
    result = complete_model(railway_model, corpus, kb)
    findings = check_acceptability(result)
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
    findings = check_acceptability(result)
    conflicts = [f for f in findings if f.kind == "Conflict"]
    assert len(conflicts) == 1
    assert conflicts[0].severity == "error"
    assert conflicts[0].requirement_ids == ("REQ-A", "REQ-B")


def test_acceptability_unverifiable_info(railway_model, kb):
    corpus = corpus_of(("R1", "Given a Spaceship in orbit, Then it goes in reentry."))
    result = complete_model(railway_model, corpus, kb)
    findings = check_acceptability(result)
    assert [f.kind for f in findings] == ["Unverifiable"]
    assert findings[0].severity == "info"


def test_signal_not_receivable_warning(railway_model_text, kb):
    doc = json.loads(railway_model_text)
    for block in doc["blocks"]:
        if block["name"] == "Brake":
            block["receivable_signals"] = ["EmergencyStop"]  # Activate missing
    model = load_model(json.dumps(doc))
    result = complete_model(model, parse_corpus("@id: R1\n" + RAILWAY_REQUIREMENT), kb)
    findings = check_acceptability(result)
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
    findings = check_acceptability(result)
    assert [f for f in findings if f.kind == "SignalNotReceivable"] == []


def test_one_transition_reports_its_unreceivable_signal_once(kb):
    """Both When alternatives bind the same transition (the rule does not
    read the When block), so the requirement instantiates it once and the
    check names its unreceivable effect once, not once per binding set."""
    model = load_model((FIXTURES / "report_golden" / "model.json").read_text(encoding="utf-8"))
    text = (
        "Given a Train in running, When the Braking Supervision receives an Emergency Stop "
        "Message or the Train receives an Emergency Stop Message, Then the Braking "
        "Supervision activates the Emergency Brake and goes in braking."
    )
    result = complete_model(model, [RequirementDoc("R", text)], kb)
    (outcome,) = result.outcomes
    assert len(outcome.match.binding_sets) == 2 and len(outcome.instance) == 1
    assert [tuple(f) for f in check_acceptability(result)] == [
        ("SignalNotReceivable", "warning", "block 'Brake' does not list signal 'Activate' as receivable", ("R",)),
    ]


def test_two_transitions_report_their_shared_unreceivable_signal_once(kb):
    """Each When alternative triggers its own transition, and both send the
    same signal to the same block; the finding names neither transition, so
    the requirement reports it once."""
    model = load_model((FIXTURES / "report_golden" / "model.json").read_text(encoding="utf-8"))
    text = (
        "Given a Train in running, When the Braking Supervision receives an Emergency Stop "
        "Message or Halt, Then the Braking Supervision activates the Emergency Brake and goes in braking."
    )
    result = complete_model(model, [RequirementDoc("R", text)], kb)
    (outcome,) = result.outcomes
    assert len(outcome.instance) == 2
    assert [tuple(f) for f in check_acceptability(result)] == [
        ("SignalNotReceivable", "warning", "block 'Brake' does not list signal 'Activate' as receivable", ("R",)),
    ]


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
    findings = check_acceptability(result)
    non_singular = [f for f in findings if f.kind == "NonSingular"]
    assert len(non_singular) == 1
    assert non_singular[0].severity == "info"


FINDINGS_MODEL = {
    "version": "1", "name": "S",
    "signals": [{"name": "Halt"}, {"name": "Open"}, {"name": "Close"}, {"name": "Reset"}],
    "blocks": [
        {"name": "Gate", "state_machine": {"states": ["s1", "s2"], "transitions": []}},
        {"name": "Pump", "receivable_signals": ["Reset"],
         "state_machine": {"states": ["p1", "p2"], "transitions": []}},
        {"name": "Valve", "receivable_signals": []},
    ],
}

FINDINGS_KB = (
    "metareq M2 -> F4:\n"
    '  given: "<<Block as owner>> in <<State as src>>"\n'
    '  when:  "<<Block as ctx>> receives <<Signal as ev>>"\n'
    '  then:  "<<Signal as op1>> (to)? <<Block as t1>>"\n'
    '  then:  "<<Signal as op2>> (to)? <<Block as t2>>"\n'
    '  then:  "goes in <<State as dst>>"\n'
    "fragment F4:\n"
    "  owner: owner   source: src   target: dst\n"
    "  trigger: ev   effect: op1 -> t1   effect: op2 -> t2\n"
    "metareq MX -> FX:\n"
    '  given: "from <<State as s>> to <<State as t>> is <<Block as b>>"\n'
    '  then:  "<<Block as c>> moves"\n'
    "fragment FX:\n"
    "  owner: b   source: s   target: t\n"
) + DEFAULT_KB_TEXT

FINDINGS_REQS = """\
@id: CONFLICT-A
Given Gate in s1, When Gate receives Halt, Then Gate Open to Pump and goes in s2.
Scenario:
@id: CONFLICT-B
Given Gate in s1, When Gate receives Halt, Then Gate goes in s1.
Scenario:
@id: MULTI-1
Given Pump in p1, When Pump receives Reset, Then Open to Valve and Close to Gate and goes in p2.
Scenario:
@id: MULTI-2
Given Pump in p1, When Pump receives Reset, Then Open to Valve and Close to Gate and goes in p2.
Scenario:
@id: NOMATCH-1
Given a Spaceship in s1, Then Gate goes in s2.
Scenario:
@id: PARSE-1
Then Gate goes in s2, Given Gate in s1.
Scenario:
@id: UNINST-1
Given from s1 to s2 is Valve, then Gate moves.
"""


def test_every_finding_kind_in_order(tmp_path):
    """The findings ``check`` and ``complete`` report, every kind once or
    more, in their order: conflicts, redundancies, then per requirement in
    corpus order the unreceivable signals (a withheld requirement's too),
    the multi-effect requirements and the unverifiable ones."""
    paths = {"model": tmp_path / "m.json", "reqs": tmp_path / "r.feature", "kb": tmp_path / "kb.txt"}
    paths["model"].write_text(json.dumps(FINDINGS_MODEL), encoding="utf-8")
    paths["reqs"].write_text(FINDINGS_REQS, encoding="utf-8")
    paths["kb"].write_text(FINDINGS_KB, encoding="utf-8")
    _, findings = cli._run(argparse.Namespace(**{k: str(p) for k, p in paths.items()}))
    not_receivable = "block {!r} does not list signal {!r} as receivable"
    unmatched = "requirement could not be matched to the model"
    assert [tuple(f) for f in findings] == [
        ("Conflict", "error",
         "transitions from 's1' on Halt in 'Gate' disagree (2 variants)", ("CONFLICT-A", "CONFLICT-B")),
        ("Redundancy", "warning", "requirement repeats transition 9a2be0638dd4 of 'Pump'", ("MULTI-2",)),
        ("SignalNotReceivable", "warning", not_receivable.format("Pump", "Open"), ("CONFLICT-A",)),
        ("SignalNotReceivable", "warning", not_receivable.format("Valve", "Open"), ("MULTI-1",)),
        ("SignalNotReceivable", "warning", not_receivable.format("Valve", "Open"), ("MULTI-2",)),
        ("NonSingular", "info", "requirement produces more than one send effect", ("MULTI-1",)),
        ("NonSingular", "info", "requirement produces more than one send effect", ("MULTI-2",)),
        ("Unverifiable", "info", unmatched, ("NOMATCH-1",)),
        ("Unverifiable", "info", unmatched, ("PARSE-1",)),
        ("Unverifiable", "info",
         "requirement matched a rule but could not be instantiated in the model", ("UNINST-1",)),
    ]


def test_random_completions_stay_valid(kb):
    from support import random_case

    rng = random.Random(99)
    for _ in range(60):
        model, text, _ = random_case(rng)
        doc = RequirementDoc(id="R", text=text)
        result = complete_model(model, [doc], kb)
        assert load_model(save_model(result.model)) == result.model
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
