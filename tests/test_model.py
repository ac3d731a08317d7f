from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

import modcomplete.model as model_module
from modcomplete import (
    MergeKind,
    Metaclass,
    SchemaError,
    SendEffect,
    ValidationError,
    add_transition,
    complete_model,
    load_model,
    lookup_elements,
    save_model,
)
from modcomplete.gherkin import RequirementDoc
from modcomplete.model import Block, Signal, State, StateMachine, SystemModel, make_transition

from conftest import FIXTURES, RAILWAY_REQUIREMENT
from support import random_model, reference_lookup_elements


def test_load_railway_model(railway_model):
    assert len(railway_model.blocks) == 3
    assert len(railway_model.signals) == 2
    assert len(railway_model.machines()) == 1
    assert railway_model.machines()[0].transitions == ()


def test_load_empty_model():
    model = load_model('{"version": "1", "name": "Empty", "signals": [], "blocks": []}')
    assert model.blocks == () and model.signals == ()


def test_transition_to_missing_state_rejected():
    doc = {
        "version": "1",
        "name": "M",
        "signals": [{"name": "Halt"}],
        "blocks": [
            {
                "name": "Gate",
                "state_machine": {
                    "states": ["open"],
                    "transitions": [{"source": "open", "target": "Stopped", "trigger": "Halt"}],
                },
            }
        ],
    }
    with pytest.raises(ValidationError, match="Stopped"):
        load_model(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate, error",
    [
        (lambda d: d.__setitem__("version", "2"), SchemaError),
        (lambda d: d.__setitem__("bogus", 1), SchemaError),
        (lambda d: d.pop("name"), SchemaError),
        (lambda d: d["blocks"].append({"name": "Gate"}), ValidationError),  # duplicate
        (lambda d: d["blocks"][0].__setitem__("parts", ["Nowhere"]), ValidationError),
        (lambda d: d["blocks"][0].__setitem__("receivable_signals", ["Ghost"]), ValidationError),
        (lambda d: d["signals"].append({"name": "with space"}), ValidationError),
        (lambda d: d["signals"].append({"name": "Paren()"}), ValidationError),
    ],
)
def test_bad_documents_rejected(mutate, error):
    doc = {
        "version": "1",
        "name": "M",
        "signals": [{"name": "Halt"}],
        "blocks": [{"name": "Gate", "state_machine": {"states": ["open"], "transitions": []}}],
    }
    mutate(doc)
    with pytest.raises(error):
        load_model(json.dumps(doc))


def test_part_cycle_rejected():
    doc = {
        "version": "1",
        "name": "M",
        "signals": [],
        "blocks": [
            {"name": "Gate", "parts": ["Pump"]},
            {"name": "Pump", "parts": ["Gate"]},
        ],
    }
    with pytest.raises(ValidationError, match="cycle"):
        load_model(json.dumps(doc))


def test_deep_part_chain_loads():
    depth = 3000
    blocks = [
        {"name": f"B{i}", "parts": [f"B{i + 1}"] if i + 1 < depth else []} for i in range(depth)
    ]
    model = load_model(json.dumps({"version": "1", "name": "M", "signals": [], "blocks": blocks}))
    assert len(model.blocks) == depth


def test_save_empty_model_is_canonical():
    model = load_model('{"version": "1", "name": "Empty"}')
    out = save_model(model)
    assert out == (
        '{\n  "blocks": [],\n  "name": "Empty",\n  "signals": [],\n  "version": "1"\n}\n'
    )


def test_save_is_deterministic(railway_model):
    assert save_model(railway_model) == save_model(railway_model)


def test_round_trip(railway_model):
    assert load_model(save_model(railway_model)) == railway_model


def test_canonical_form_invariant_under_input_permutation(railway_model_text):
    doc = json.loads(railway_model_text)
    reference = save_model(load_model(railway_model_text))
    rng = random.Random(7)
    for _ in range(10):
        shuffled = json.loads(railway_model_text)
        rng.shuffle(shuffled["blocks"])
        rng.shuffle(shuffled["signals"])
        for block in shuffled["blocks"]:
            if "parts" in block:
                rng.shuffle(block["parts"])
            if "state_machine" in block:
                rng.shuffle(block["state_machine"]["states"])
        assert save_model(load_model(json.dumps(shuffled))) == reference
    assert json.loads(reference)["name"] == doc["name"]


def test_round_trip_randomized():
    rng = random.Random(20240101)
    for _ in range(120):
        model = random_model(rng)
        text = save_model(model)
        again = load_model(text)
        assert again == model
        assert save_model(again) == text


def test_add_transition_added(railway_model):
    t = make_transition(
        "Train", "Running", "Braking", "EmergencyStop",
        (SendEffect("Activate", "Brake"),), ("REQ-001",),
    )
    outcome = add_transition(railway_model, "Train", t)
    assert outcome.kind is MergeKind.ADDED
    machine = outcome.model.block("Train").state_machine
    assert len(machine.transitions) == 1
    assert machine.transitions[0].provenance == ("REQ-001",)
    # input model untouched
    assert railway_model.block("Train").state_machine.transitions == ()


def test_add_transition_duplicate_unions_provenance(railway_model):
    t1 = make_transition(
        "Train", "Running", "Braking", "EmergencyStop",
        (SendEffect("Activate", "Brake"),), ("REQ-001",),
    )
    first = add_transition(railway_model, "Train", t1)
    t2 = make_transition(
        "Train", "Running", "Braking", "EmergencyStop",
        (SendEffect("Activate", "Brake"),), ("SAFETY-7",),
    )
    second = add_transition(first.model, "Train", t2)
    assert second.kind is MergeKind.DUPLICATE
    machine = second.model.block("Train").state_machine
    assert len(machine.transitions) == 1
    assert machine.transitions[0].provenance == ("REQ-001", "SAFETY-7")
    assert machine.transitions[0].id == t1.id


def test_add_transition_agrees_with_pair_scanner(railway_model):
    # Brute-force oracle: scan all pairs; a candidate duplicates an existing
    # transition when identical (ignoring provenance).
    states = ["Running", "Braking"]
    triggers = [None, "EmergencyStop", "Activate"]
    effect_options = [(), (SendEffect("Activate", "Brake"),)]
    candidates = [
        make_transition("Train", s, t, trg, eff, (f"R{i}",))
        for i, (s, t, trg, eff) in enumerate(
            itertools.product(states, states, triggers, effect_options)
        )
    ]
    rng = random.Random(5)
    model = railway_model
    existing: list = []
    # Every candidate comes twice, so the second copy must be a duplicate.
    for candidate in rng.sample(candidates * 2, 2 * len(candidates)):
        expected = "added"
        for prior in existing:
            if prior.id == candidate.id:
                expected = "duplicate"
                break
        outcome = add_transition(model, "Train", candidate)
        assert outcome.kind.value == expected
        model = outcome.model
        if expected == "added":
            existing.append(candidate)


def test_add_transition_same_value_twice_is_identity(railway_model):
    t = make_transition(
        "Train", "Running", "Braking", "EmergencyStop",
        (SendEffect("Activate", "Brake"),), ("REQ-001",),
    )
    once = add_transition(railway_model, "Train", t)
    twice = add_transition(once.model, "Train", t)
    assert twice.kind is MergeKind.DUPLICATE
    assert twice.model == once.model


def test_display_field_round_trips():
    doc = {
        "version": "1",
        "name": "M",
        "signals": [{"name": "EmergencyStop", "display": "Emergency Stop Message"}],
        "blocks": [],
    }
    model = load_model(json.dumps(doc))
    assert model.signals[0].display == "Emergency Stop Message"
    assert load_model(save_model(model)) == model


def test_add_transition_unknown_references(railway_model):
    from modcomplete.model import UnknownOwner, UnknownSignal, UnknownState

    ghost = make_transition("Train", "Running", "Braking", "Ghost", (), ("R",))
    with pytest.raises(UnknownSignal):
        add_transition(railway_model, "Train", ghost)
    bad_state = make_transition("Train", "Running", "Stopped", None, (), ("R",))
    with pytest.raises(UnknownState):
        add_transition(railway_model, "Train", bad_state)
    t = make_transition("Brake", "Running", "Braking", None, (), ("R",))
    with pytest.raises(UnknownOwner):
        add_transition(railway_model, "Brake", t)  # Brake has no machine
    with pytest.raises(UnknownOwner):
        add_transition(railway_model, "Spaceship", t)


def test_lookup_signal_through_stopwords(railway_model):
    assert lookup_elements(railway_model, "Emergency Stop Message", Metaclass.SIGNAL) == [
        "EmergencyStop"
    ]


def test_lookup_state_scoped(railway_model):
    assert lookup_elements(railway_model, "running", Metaclass.STATE, scope="Train") == ["Running"]
    assert lookup_elements(railway_model, "running", Metaclass.STATE, scope="Brake") == []


def test_lookup_unknown_block(railway_model):
    assert lookup_elements(railway_model, "Spaceship", Metaclass.BLOCK) == []


def test_lookup_absorbs_leading_modifiers(railway_model):
    assert lookup_elements(railway_model, "the Emergency Brake", Metaclass.BLOCK) == ["Brake"]
    # full-phrase match always wins over a shorter suffix
    assert lookup_elements(railway_model, "Braking Supervision", Metaclass.BLOCK) == [
        "BrakingSupervision"
    ]


# Pools whose names collide under normalization ("Gate"/"gate"/"the Gate"),
# absorb modifiers ("Emergency Brake" -> "Brake") and stem ("Stops" -> "Stop").
BLOCK_NAMES = ["Gate", "gate", "the Gate", "GateControl", "Gate Control", "Control", "Brake", "Emergency Brake"]
SIGNAL_NAMES = ["Stop", "stop", "Stops", "EmergencyStop", "Emergency Stop", "StopMessage", "Activate"]
STATE_NAMES = ["idle", "Idle", "the idle", "running", "Running", "braking"]
PHRASE_WORDS = [
    "the", "a", "Gate", "gate", "Control", "Emergency", "Brake", "Stop", "stops",
    "Message", "activates", "Activate", "idle", "Running", "braking", "signal", "Ghost",
]


@st.composite
def hand_built_models(draw):
    """Unvalidated models: duplicate and colliding names, states shared
    across machines, blocks with and without machines."""
    blocks = []
    for name in draw(st.lists(st.sampled_from(BLOCK_NAMES), max_size=5)):
        states = draw(st.none() | st.lists(st.sampled_from(STATE_NAMES), max_size=4))
        machine = None if states is None else StateMachine(name, tuple(map(State, states)))
        blocks.append(Block(name, state_machine=machine))
    signals = draw(st.lists(st.sampled_from(SIGNAL_NAMES), max_size=5))
    return SystemModel("M", tuple(blocks), tuple(map(Signal, signals)))


@given(hand_built_models(), st.lists(st.sampled_from(PHRASE_WORDS), max_size=3))
def test_indexed_lookup_agrees_with_linear_scan(model, modifiers):
    """Every element name, stemmed or not, behind random leading words, in
    every metaclass, scoped to every block, to none and to an unknown one."""
    names = [b.name for b in model.blocks] + [s.name for s in model.signals] + [
        s.name for m in model.machines() for s in m.states
    ]
    phrases = [modifiers] + [modifiers + [n] for n in names] + [modifiers + [n + "s", "Message"] for n in names]
    for phrase in phrases:
        for metaclass in Metaclass:
            for scope in [None, "Ghost"] + [b.name for b in model.blocks]:
                assert lookup_elements(model, phrase, metaclass, scope) == reference_lookup_elements(
                    model, phrase, metaclass, scope
                ), (phrase, metaclass, scope)


def test_lookup_index_is_not_part_of_the_value(railway_model_text):
    looked_up, fresh = load_model(railway_model_text), load_model(railway_model_text)
    assert lookup_elements(looked_up, "Train", Metaclass.BLOCK) == ["Train"]
    assert looked_up == fresh and hash(looked_up) == hash(fresh)
    assert repr(looked_up) == repr(fresh)
    assert save_model(looked_up) == save_model(fresh)


def _padded_railway(n_blocks: int):
    doc = json.loads((FIXTURES / "railway_model.json").read_text(encoding="utf-8"))
    for i in range(n_blocks - len(doc["blocks"])):
        doc["blocks"].append(
            {"name": f"Unit{i}", "state_machine": {"states": ["Idle", "Busy"], "transitions": []}}
        )
    doc["signals"].extend({"name": f"Ping{i}"} for i in range(n_blocks // 2))
    return load_model(json.dumps(doc))


def test_lookup_normalizes_each_element_at_most_once(monkeypatch, kb):
    """Counts calls, times nothing: a lookup probes the index, so a whole
    run normalizes each element name once however many spans it tries."""
    corpus = [
        RequirementDoc("R1", RAILWAY_REQUIREMENT),
        RequirementDoc("R2", "Given Unit3 in idle, When Unit4 receives Ping1, Then Unit3 goes in busy."),
        RequirementDoc("R3", "Given Unit5 in idle, Then Unit5 goes in busy."),
        RequirementDoc("R4", "Given the Spaceship in orbit, Then the Spaceship goes in space."),
    ]
    models = [_padded_railway(10), _padded_railway(300)]
    calls = []
    real = model_module.normalize_phrase
    monkeypatch.setattr(
        model_module, "normalize_phrase", lambda phrase: calls.append(phrase) or real(phrase)
    )
    for model in models:
        calls.clear()
        result = complete_model(model, corpus, kb)
        assert len(result.report.added) == 3 and len(result.report.unmatched) == 1
        elements = len(model.blocks) + len(model.signals) + sum(len(m.states) for m in model.machines())
        assert 0 < len(calls) <= elements
