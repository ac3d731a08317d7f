from __future__ import annotations

import itertools
import json
import random

import pytest

from modcomplete import (
    MergeKind,
    Metaclass,
    SchemaError,
    SendEffect,
    ValidationError,
    add_transition,
    load_model,
    lookup_elements,
    save_model,
)
from modcomplete.model import make_transition

from support import random_model


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
