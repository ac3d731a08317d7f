from __future__ import annotations

import copy
import importlib.util
import itertools
import json
import random
import sys

import pytest
from hypothesis import given, strategies as st

import modcomplete.matcher as matcher_module
import modcomplete.model as model_module
from modcomplete import (
    Mentions,
    Metaclass,
    SchemaError,
    SendEffect,
    ValidationError,
    complete_model,
    load_model,
    lookup_elements,
    parse_corpus,
    parse_kb,
    save_model,
)
from modcomplete.cli import _report_doc
from modcomplete.generator import (
    CompletionReport,
    ConflictRecord,
    ConflictVariant,
    Finding,
    MergeEntry,
    UnmatchedEntry,
)
from modcomplete.gherkin import RequirementDoc
from modcomplete.normalize import normalize_phrase
from modcomplete.trace import SatisfyLink, TraceBinding, TraceRecord, emit_trace_json
from modcomplete.model import (
    Block,
    Signal,
    StateMachine,
    SystemModel,
    Transition,
    add_transition,
    dump_canonical,
    make_transition,
    transition_identity,
)

from conftest import FIXTURES, RAILWAY_REQUIREMENT
from support import (
    random_model,
    reference_lookup_elements,
    reference_model_doc,
    reference_parse_transition,
    reference_transition_identity,
)

ROOT = FIXTURES.parents[1]


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


def _fault_base() -> dict:
    """A document that loads and holds every kind of field."""
    effect = {"signal": "Zed", "target_block": "Pump"}
    transition = {"source": "open", "target": "shut", "trigger": "Halt", "effects": [effect]}
    machine = {"initial": "open", "states": ["open", "shut"], "transitions": [transition]}
    return {
        "version": "1",
        "name": "M",
        "signals": [{"name": "Halt"}, {"name": "Zed", "display": "zed"}],
        "blocks": [
            {"name": "Gate", "parts": ["Pump"], "receivable_signals": ["Halt"], "state_machine": machine},
            {"name": "Pump"},
        ],
    }


def _machine(doc: dict) -> dict:
    return doc["blocks"][0]["state_machine"]


def _transition(doc: dict) -> dict:
    return _machine(doc)["transitions"][0]


def _drop(obj: dict, key: str) -> None:
    del obj[key]


SM = "$.blocks[0].state_machine"
T0 = SM + ".transitions[0]"
#: One single-fault document per raise site of ``load_model``: (test id,
#: change to ``_fault_base()``, which may return a new document, error
#: class, path, message).
LOAD_FAULTS = [
    ("document", lambda d: [d], SchemaError, "$", "document must be a dict"),
    ("document-key", lambda d: d.update(zz=1), SchemaError, "$", "unknown key 'zz'"),
    ("version-type", lambda d: d.update(version=1), SchemaError, "$.version", "version must be a str"),
    ("version", lambda d: d.update(version="2"), SchemaError, "$.version", "unsupported version '2'"),
    ("name-missing", lambda d: _drop(d, "name"), SchemaError, "$", "document requires 'name'"),
    ("name-type", lambda d: d.update(name=None), SchemaError, "$.name", "name must be a str"),
    ("name-empty", lambda d: d.update(name=""), ValidationError, "$.name", "model name must be non-empty"),
    ("signals-type", lambda d: d.update(signals={}), SchemaError, "$.signals", "signals must be a list"),
    ("signal-type", lambda d: d["signals"].append("Go"), SchemaError, "$.signals[2]", "signal must be a dict"),
    ("signal-key", lambda d: d["signals"][0].update(zz=1), SchemaError, "$.signals[0]", "unknown key 'zz'"),
    ("signal-name-missing", lambda d: _drop(d["signals"][0], "name"), SchemaError, "$.signals[0]",
     "signal requires 'name'"),
    ("signal-display", lambda d: d["signals"][1].update(display=1), SchemaError, "$.signals[1].display",
     "display must be a str"),
    ("signal-name-type", lambda d: d["signals"][0].update(name=1), SchemaError, "$.signals[0].name",
     "name must be a str"),
    ("signal-name-empty", lambda d: d["signals"].append({"name": ""}), ValidationError, "$.signals[2].name",
     "signal name '' must be non-empty without whitespace"),
    ("signal-name-space", lambda d: d["signals"].append({"name": "Go On"}), ValidationError, "$.signals[2].name",
     "signal name 'Go On' must be non-empty without whitespace"),
    ("signal-name-paren", lambda d: d["signals"].append({"name": "Go()"}), ValidationError, "$.signals[2].name",
     "signal name 'Go()' must be the canonical form without parentheses"),
    ("signal-name-nothing", lambda d: d["signals"].append({"name": "The"}), ValidationError, "$.signals[2].name",
     "signal name 'The' normalizes to nothing"),
    ("signal-name-collides", lambda d: d["signals"].append({"name": "HALT"}), ValidationError,
     "$.signals[2].name", "signal name 'HALT' collides with 'Halt' under normalization"),
    ("blocks-type", lambda d: d.update(blocks=None), SchemaError, "$.blocks", "blocks must be a list"),
    ("block-type", lambda d: d["blocks"].append("Valve"), SchemaError, "$.blocks[2]", "block must be a dict"),
    ("block-key", lambda d: d["blocks"][1].update(zz=1), SchemaError, "$.blocks[1]", "unknown key 'zz'"),
    ("block-name-missing", lambda d: _drop(d["blocks"][1], "name"), SchemaError, "$.blocks[1]",
     "block requires 'name'"),
    ("block-name-type", lambda d: d["blocks"][1].update(name=[]), SchemaError, "$.blocks[1].name",
     "name must be a str"),
    ("block-name-empty", lambda d: d["blocks"].append({"name": ""}), ValidationError, "$.blocks[2].name",
     "block name must be non-empty"),
    ("block-name-nothing", lambda d: d["blocks"].append({"name": "An"}), ValidationError, "$.blocks[2].name",
     "block name 'An' normalizes to nothing"),
    ("block-name-collides", lambda d: d["blocks"].append({"name": "Gate"}), ValidationError,
     "$.blocks[2].name", "block name 'Gate' collides with 'Gate' under normalization"),
    ("parts-type", lambda d: d["blocks"][0].update(parts="Pump"), SchemaError, "$.blocks[0].parts",
     "parts must be a list"),
    ("parts-entry", lambda d: d["blocks"][0]["parts"].append(1), SchemaError, "$.blocks[0].parts[1]",
     "entry must be a str"),
    ("part", lambda d: d["blocks"][0]["parts"].append("Nowhere"), ValidationError, "$.blocks[0].parts[1]",
     "part 'Nowhere' is not a block"),
    ("receivable-type", lambda d: d["blocks"][1].update(receivable_signals={}), SchemaError,
     "$.blocks[1].receivable_signals", "receivable_signals must be a list"),
    ("receivable-entry", lambda d: d["blocks"][0]["receivable_signals"].append(None), SchemaError,
     "$.blocks[0].receivable_signals[1]", "entry must be a str"),
    ("receivable", lambda d: d["blocks"][0]["receivable_signals"].insert(0, "Ghost"), ValidationError,
     "$.blocks[0].receivable_signals[0]", "receivable signal 'Ghost' is not a signal"),
    ("machine-type", lambda d: d["blocks"][1].update(state_machine=[]), SchemaError,
     "$.blocks[1].state_machine", "state_machine must be a dict"),
    ("machine-key", lambda d: _machine(d).update(zz=1), SchemaError, SM, "unknown key 'zz'"),
    ("states-type", lambda d: _machine(d).update(states=None), SchemaError, SM + ".states",
     "states must be a list"),
    ("states-entry", lambda d: _machine(d)["states"].append(2), SchemaError, SM + ".states[2]",
     "entry must be a str"),
    ("state-empty", lambda d: _machine(d)["states"].append(""), ValidationError, SM + ".states[2]",
     "state name must be non-empty"),
    ("state-duplicate", lambda d: _machine(d)["states"].append("open"), ValidationError, SM + ".states[2]",
     "duplicate state 'open'"),
    ("state-nothing", lambda d: _machine(d)["states"].append("A"), ValidationError, SM + ".states[2]",
     "state name 'A' normalizes to nothing"),
    ("state-collides", lambda d: _machine(d)["states"].append("Open"), ValidationError, SM + ".states[2]",
     "state name 'Open' collides with 'open' under normalization"),
    ("initial-type", lambda d: _machine(d).update(initial=0), SchemaError, SM + ".initial",
     "initial must be a str"),
    ("initial", lambda d: _machine(d).update(initial="ajar"), ValidationError, SM + ".initial",
     "initial state 'ajar' undefined"),
    ("transitions-type", lambda d: _machine(d).update(transitions={}), SchemaError, SM + ".transitions",
     "transitions must be a list"),
    ("source", lambda d: _transition(d).update(source="ajar"), ValidationError, T0,
     "source state 'ajar' undefined"),
    ("target", lambda d: _transition(d).update(target="ajar"), ValidationError, T0,
     "target state 'ajar' undefined"),
    ("trigger", lambda d: _transition(d).update(trigger="Ghost"), ValidationError, T0,
     "trigger 'Ghost' is not a signal"),
    ("effect-signal", lambda d: _transition(d)["effects"][0].update(signal="Ghost"), ValidationError,
     T0 + ".effects[0]", "effect signal 'Ghost' is not a signal"),
    ("effect-target", lambda d: _transition(d)["effects"][0].update(target_block="Nowhere"), ValidationError,
     T0 + ".effects[0]", "effect target 'Nowhere' is not a block"),
    # An effect's path is its index in the document, not in sorted order.
    ("effect-signal-second", lambda d: _transition(d).update(effects=[
        {"signal": "Zed", "target_block": "Gate"}, {"signal": "Ghost", "target_block": "Gate"}]),
     ValidationError, T0 + ".effects[1]", "effect signal 'Ghost' is not a signal"),
    ("effect-target-first", lambda d: _transition(d).update(effects=[
        {"signal": "Zed", "target_block": "Nowhere"}, {"signal": "Zed", "target_block": "Gate"}]),
     ValidationError, T0 + ".effects[0]", "effect target 'Nowhere' is not a block"),
    ("id", lambda d: _transition(d).update(id="0123456789ab"), ValidationError, T0,
     "transition id '0123456789ab' does not match content hash"),
    ("repeat", lambda d: _machine(d)["transitions"].append({**_transition(d), "guard": "g"}), ValidationError,
     SM + ".transitions[1]", "transition repeats transitions[0] (same source, target, trigger and effects)"),
    ("cycle", lambda d: d["blocks"][1].update(parts=["Gate"]), ValidationError, "$.blocks",
     "part composition cycle: Gate -> Pump -> Gate"),
]


def test_composed_and_decomposed_spellings_of_one_name_collide(railway_model_text):
    doc = json.loads(railway_model_text)
    doc["blocks"] += [{"name": "Brems\u00fcberwachung"}, {"name": "Bremsu\u0308berwachung"}]
    with pytest.raises(ValidationError) as info:
        load_model(json.dumps(doc))
    assert info.value.path == "$.blocks[4].name"
    assert "collides with 'Brems\u00fcberwachung' under normalization" in str(info.value)


def test_the_fault_base_loads():
    assert len(load_model(json.dumps(_fault_base())).machines()[0].transitions) == 1


@pytest.mark.parametrize("mutate, error, path, message", [pytest.param(*row[1:], id=row[0]) for row in LOAD_FAULTS])
def test_each_load_fault_raises_its_class_message_and_path(mutate, error, path, message):
    doc = _fault_base()
    doc = mutate(doc) or doc
    with pytest.raises((SchemaError, ValidationError)) as info:
        load_model(json.dumps(doc))
    assert (type(info.value), str(info.value), info.value.path) == (error, f"{path}: {message}", path)


@pytest.mark.parametrize("first, second", [
    ("source", "machine-type"),  # block 0's references before block 1's fields
    ("block-name-empty", "signal-name-type"),  # every block name before any signal
    ("repeat", "cycle"),  # every machine before part cycles
])
def test_of_two_faults_the_first_in_check_order_is_raised(first, second):
    faults = {row[0]: row[1:] for row in LOAD_FAULTS}
    doc = _fault_base()
    faults[first][0](doc)
    faults[second][0](doc)
    _, error, path, message = faults[first]
    with pytest.raises((SchemaError, ValidationError)) as info:
        load_model(json.dumps(doc))
    assert (type(info.value), str(info.value), info.value.path) == (error, f"{path}: {message}", path)


@pytest.mark.parametrize("key, name, message", [
    ("blocks", "The", "block name 'The' normalizes to nothing"),
    ("blocks", "the gate", "block name 'the gate' collides with 'Gate' under normalization"),
    ("signals", "The", "signal name 'The' normalizes to nothing"),
    ("signals", "HALT", "signal name 'HALT' collides with 'Halt' under normalization"),
])
def test_a_name_must_survive_normalization_and_stay_distinct(key, name, message):
    """A name that normalizes to nothing could never be mentioned."""
    doc = {
        "version": "1",
        "name": "M",
        "signals": [{"name": "Halt"}],
        "blocks": [{"name": "Gate"}],
    }
    doc[key].append({"name": name})
    with pytest.raises(ValidationError) as info:
        load_model(json.dumps(doc))
    assert str(info.value) == f"$.{key}[1].name: {message}"
    assert info.value.path == f"$.{key}[1].name"


@pytest.mark.parametrize("state, message", [
    # Beside "Braking", every mention of braking would bind both states.
    ("braking", "state name 'braking' collides with 'Braking' under normalization"),
    # An article alone could never be mentioned.
    ("A", "state name 'A' normalizes to nothing"),
])
def test_a_state_name_must_survive_normalization_and_stay_distinct_in_its_machine(state, message):
    doc = json.loads((FIXTURES / "railway_model.json").read_text(encoding="utf-8"))
    doc["blocks"][0]["state_machine"]["states"].append(state)
    with pytest.raises(ValidationError) as info:
        load_model(json.dumps(doc))
    path = "$.blocks[0].state_machine.states[2]"
    assert str(info.value) == f"{path}: {message}"
    assert info.value.path == path


def test_two_machines_may_hold_states_of_one_normal_form():
    doc = json.loads((FIXTURES / "railway_model.json").read_text(encoding="utf-8"))
    doc["blocks"][2]["state_machine"] = {"states": ["braking", "Idle"], "transitions": []}
    assert load_model(json.dumps(doc)).block("Brake").state_machine.states == ("Idle", "braking")


TRANSITION_PATH = "$.blocks[0].state_machine.transitions[1]"


@pytest.mark.parametrize(
    "patch, message, path",
    [
        ({"trigger": 5}, "trigger must be a str", TRANSITION_PATH + ".trigger"),
        ({"trigger": False}, "trigger must be a str", TRANSITION_PATH + ".trigger"),
        ({"guard": ["x"]}, "guard must be a str", TRANSITION_PATH + ".guard"),
        ({"id": 7}, "id must be a str", TRANSITION_PATH + ".id"),
        ({"source": None}, "source must be a str", TRANSITION_PATH + ".source"),
        ({"target": 1.5}, "target must be a str", TRANSITION_PATH + ".target"),
        ({"provenance": "R1"}, "provenance must be a list", TRANSITION_PATH + ".provenance"),
        ({"provenance": ["R1", 3]}, "entry must be a str", TRANSITION_PATH + ".provenance[1]"),
        ({"zz": 1, "aa": 2}, "unknown key 'aa'", TRANSITION_PATH),
    ],
)
def test_bad_transition_field_message_and_path(patch, message, path):
    """Messages and paths as the loader has always reported them."""
    transition = {"source": "open", "target": "open", "trigger": "Halt", **patch}
    doc = {
        "version": "1",
        "name": "M",
        "signals": [{"name": "Halt"}],
        "blocks": [
            {
                "name": "Gate",
                "state_machine": {
                    "states": ["open"],
                    "transitions": [{"source": "open", "target": "open"}, transition],
                },
            }
        ],
    }
    with pytest.raises(SchemaError) as info:
        load_model(json.dumps(doc))
    assert str(info.value) == f"{path}: {message}" and info.value.path == path


@pytest.mark.parametrize("effects_order", [1, -1])
@pytest.mark.parametrize("declared_id", [False, True])
def test_repeated_transition_is_rejected_with_its_path(declared_id, effects_order):
    """Transitions that differ only in guard, provenance and the order of
    their effects share an id, and merging into such a machine would
    overwrite one with the other."""
    effects = [{"signal": "Halt", "target_block": "Pump"}, {"signal": "Go", "target_block": "Pump"}]
    first = {"source": "open", "target": "shut", "trigger": "Halt", "guard": "a", "provenance": ["X"],
             "effects": effects}
    second = {**first, "guard": "b", "provenance": ["Y"], "effects": effects[::effects_order]}
    if declared_id:
        second["id"] = transition_identity("Gate", "open", "shut", "Halt", tuple(SendEffect(**e) for e in effects))
    doc = {
        "version": "1",
        "name": "M",
        "signals": [{"name": "Halt"}, {"name": "Go"}],
        "blocks": [
            {"name": "Pump"},
            {
                "name": "Gate",
                "state_machine": {
                    "states": ["open", "shut"],
                    "transitions": [first, {"source": "shut", "target": "open"}, second],
                },
            },
        ],
    }
    with pytest.raises(ValidationError) as info:
        load_model(json.dumps(doc))
    path = "$.blocks[1].state_machine.transitions[2]"
    assert str(info.value) == (
        f"{path}: transition repeats transitions[0] (same source, target, trigger and effects)"
    )
    assert info.value.path == path
    doc["blocks"][1]["state_machine"]["transitions"][2] = {**first, "target": "open"}
    assert len(load_model(json.dumps(doc)).machines()[0].transitions) == 3


def test_overdeep_document_is_a_schema_error():
    with pytest.raises(SchemaError) as info:
        load_model("[" * 100000)
    assert str(info.value) == "$: invalid JSON: nested too deeply"


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


def _part_cycle_message(parts: dict[str, list[str]]) -> str:
    """The message of the cycle that a model of blocks with ``parts``, in
    that document order, is rejected with."""
    blocks = [{"name": name, "parts": names} for name, names in parts.items()]
    with pytest.raises(ValidationError) as info:
        load_model(json.dumps({"version": "1", "name": "M", "signals": [], "blocks": blocks}))
    assert info.value.path == "$.blocks"
    return str(info.value).removeprefix("$.blocks: part composition cycle: ")


# Each model has more than one cycle, or one that a walk could enter
# elsewhere: the message names the first cycle that a depth-first walk
# meets from block names in sorted order, following parts in document order.
@pytest.mark.parametrize("parts, cycle", [
    # two disjoint cycles; a walk in document order would start at Delta
    ({"Delta": ["Chi"], "Chi": ["Delta"], "Beta": ["Alpha"], "Alpha": ["Beta"]}, "Alpha -> Beta -> Alpha"),
    # entered from Alpha, which is not on it
    ({"Alpha": ["Beta"], "Beta": ["Chi"], "Chi": ["Beta"]}, "Beta -> Chi -> Beta"),
    # through Chi, which Alpha lists twice; sorted, Alpha's parts would reach Beta first
    ({"Alpha": ["Chi", "Beta", "Chi"], "Beta": ["Alpha"], "Chi": ["Alpha"]}, "Alpha -> Chi -> Alpha"),
    # a block that lists itself
    ({"Beta": ["Alpha"], "Alpha": ["Alpha"]}, "Alpha -> Alpha"),
], ids=["disjoint", "entered-from-outside", "repeated-part", "self"])
def test_the_first_part_cycle_of_a_sorted_walk_is_reported(parts, cycle):
    assert _part_cycle_message(parts) == cycle


def test_deep_part_chain_loads():
    depth = 3000
    blocks = [
        {"name": f"B{i}", "parts": [f"B{i + 1}"] if i + 1 < depth else []} for i in range(depth)
    ]
    model = load_model(json.dumps({"version": "1", "name": "M", "signals": [], "blocks": blocks}))
    assert len(model.blocks) == depth


def test_deep_part_cycle_is_reported_from_its_first_name():
    # Listed last to first, so only a walk in sorted order starts at B0.
    depth = 50000
    names = [f"B{i}" for i in range(depth)]
    parts = {names[i]: [names[(i + 1) % depth]] for i in reversed(range(depth))}
    assert _part_cycle_message(parts) == " -> ".join(names + ["B0"])


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


def emergency_stop(*provenance):
    return make_transition(
        "Train", "Running", "Braking", "EmergencyStop",
        (SendEffect("Activate", "Brake"),), provenance,
    )


def with_second_machine(model):
    """``model`` with a machine of the railway states on BrakingSupervision."""
    machine = StateMachine(("Braking", "Running"), (), "Running")
    blocks = tuple(
        b._replace(state_machine=machine) if b.name == "BrakingSupervision" else b
        for b in model.blocks
    )
    model = model._replace(blocks=blocks)
    assert load_model(save_model(model)) == model
    return model


def decided(*entries):
    """One owner's map as ``complete_model`` decides it: id -> (transition,
    ids of the requirements that repeat it)."""
    return {t.id: (t, list(repeats)) for t, repeats in entries}


def test_add_transition_added(railway_model):
    t = emergency_stop("REQ-001")
    merged = add_transition(railway_model, {"Train": decided((t, []))})
    assert merged.block("Train").state_machine.transitions == (t,)


def test_add_transition_duplicate_unions_provenance(railway_model):
    first = add_transition(railway_model, {"Train": decided((emergency_stop("REQ-001"), []))})
    (held,) = first.block("Train").state_machine.transitions
    second = add_transition(first, {"Train": decided((held, ["SAFETY-7", "REQ-001"]))})
    machine = second.block("Train").state_machine
    assert len(machine.transitions) == 1
    assert machine.transitions[0].provenance == ("REQ-001", "SAFETY-7")
    assert machine.transitions[0].id == emergency_stop().id


def test_add_transition_agrees_with_a_plain_rebuild(railway_model):
    # Brute-force reference: a transition's provenance becomes the sorted
    # union of its own and its repeats, and is kept as it is when that adds
    # nothing; a machine that gained a transition is sorted by id, any other
    # keeps the map's order; a block the map does not name is kept as it is.
    states = ["Running", "Braking"]
    triggers = [None, "EmergencyStop", "Activate"]
    effect_options = [(), (SendEffect("Activate", "Brake"),)]
    contents = list(itertools.product(states, states, triggers, effect_options))
    rids = ["R1", "R2", "R3"]
    rng = random.Random(5)
    base = with_second_machine(railway_model)
    for _ in range(300):
        blocks, machines = [], {}
        for block in base.blocks:
            if block.state_machine is not None:
                transitions = [
                    make_transition(block.name, *content, tuple(rng.sample(rids, rng.randint(0, 2))))
                    for content in rng.sample(contents, rng.randint(0, 5))
                ]
                cut = rng.randint(0, len(transitions))
                machine = block.state_machine._replace(transitions=tuple(transitions[:cut]))
                block = block._replace(state_machine=machine)
                if rng.random() < 0.8:
                    machines[block.name] = decided(
                        *((t, rng.sample(rids, rng.randint(0, 3))) for t in transitions)
                    )
            blocks.append(block)
        model = base._replace(blocks=tuple(blocks))
        merged = add_transition(model, machines)
        for before, after in zip(model.blocks, merged.blocks):
            if before.name not in machines:
                assert after is before
                continue
            expected, kept = [], []
            for t, repeats in machines[before.name].values():
                provenance = tuple(sorted({*t.provenance, *repeats}))
                expected.append(t._replace(provenance=provenance))
                if provenance == t.provenance:
                    kept.append(t)
            if len(expected) > len(before.state_machine.transitions):
                expected.sort(key=lambda t: t.id)
            transitions = after.state_machine.transitions
            assert transitions == tuple(expected)
            assert all(any(t is k for t in transitions) for k in kept)


def test_add_transition_same_value_twice_is_identity(railway_model):
    machines = {"Train": decided((emergency_stop("REQ-001"), ["REQ-002"]))}
    once = add_transition(railway_model, machines)
    assert add_transition(once, machines) == once


def test_add_transition_leaves_its_input_untouched(railway_model):
    model = with_second_machine(railway_model)
    model = add_transition(model, {"Train": decided((emergency_stop("REQ-001"), []))})
    (held,) = model.block("Train").state_machine.transitions
    machines = {
        "Train": decided((held, ["REQ-002"])),
        "BrakingSupervision": decided(
            (make_transition("BrakingSupervision", "Running", "Braking", None, (), ("R",)), [])
        ),
    }
    before = copy.deepcopy((model, machines))
    merged = add_transition(model, machines)
    assert (model, machines) == before
    assert merged != model


def test_add_transition_of_a_completed_models_own_transitions_changes_nothing(
    railway_model, railway_corpus, kb
):
    completed = complete_model(railway_model, railway_corpus, kb).model
    machines = {
        block.name: decided(*((t, t.provenance) for t in block.state_machine.transitions))
        for block in completed.blocks if block.state_machine
    }
    assert any(machines.values())
    merged = add_transition(completed, machines)
    assert merged == completed
    assert all(
        a is b for m, n in zip(merged.machines(), completed.machines())
        for a, b in zip(m.transitions, n.transitions)
    )


def test_add_transition_of_no_candidates_returns_the_input_model(railway_model):
    assert add_transition(railway_model, {}) is railway_model


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


def test_lookup_signal_through_stopwords(railway_model):
    assert lookup_elements(Mentions(railway_model), "Emergency Stop Message", Metaclass.SIGNAL) == [
        "EmergencyStop"
    ]


def test_lookup_state_scoped(railway_model):
    mentions = Mentions(railway_model)
    assert lookup_elements(mentions, "running", Metaclass.STATE, scope="Train") == ["Running"]
    assert lookup_elements(mentions, "running", Metaclass.STATE, scope="Brake") == []


def test_lookup_unknown_block(railway_model):
    assert lookup_elements(Mentions(railway_model), "Spaceship", Metaclass.BLOCK) == []


def test_lookup_absorbs_leading_modifiers(railway_model):
    mentions = Mentions(railway_model)
    assert lookup_elements(mentions, "the Emergency Brake", Metaclass.BLOCK) == ["Brake"]
    # full-phrase match always wins over a shorter suffix
    assert lookup_elements(mentions, "Braking Supervision", Metaclass.BLOCK) == [
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
        machine = None if states is None else StateMachine(tuple(states))
        blocks.append(Block(name, state_machine=machine))
    signals = draw(st.lists(st.sampled_from(SIGNAL_NAMES), max_size=5))
    return SystemModel("M", tuple(blocks), tuple(map(Signal, signals)))


@given(hand_built_models(), st.lists(st.sampled_from(PHRASE_WORDS), max_size=3), st.randoms())
def test_indexed_lookup_agrees_with_linear_scan(model, modifiers, rng):
    """Every element name, stemmed or not, behind random leading words, in
    every metaclass, scoped to every block, to none and to an unknown one.
    Each query is asked twice, as a word list and as a string, in shuffled
    order, so memoized answers are checked as well as fresh ones."""
    names = [b.name for b in model.blocks] + [s.name for s in model.signals] + [
        s for m in model.machines() for s in m.states
    ]
    phrases = [modifiers] + [modifiers + [n] for n in names] + [modifiers + [n + "s", "Message"] for n in names]
    queries = [
        (form, metaclass, scope)
        for phrase in phrases
        for form in (phrase, " ".join(phrase))
        for metaclass in Metaclass
        for scope in [None, "Ghost"] + [b.name for b in model.blocks]
    ] * 2
    rng.shuffle(queries)
    mentions = Mentions(model)
    for phrase, metaclass, scope in queries:
        assert lookup_elements(mentions, phrase, metaclass, scope) == reference_lookup_elements(
            model, phrase, metaclass, scope
        ), (phrase, metaclass, scope)


def test_mutating_a_lookup_result_does_not_change_the_next(railway_model):
    mentions = Mentions(railway_model)
    first = lookup_elements(mentions, "Emergency Stop Message", Metaclass.SIGNAL)
    first.append("Ghost")
    first.sort(reverse=True)
    assert lookup_elements(mentions, "Emergency Stop Message", Metaclass.SIGNAL) == ["EmergencyStop"]
    missing = lookup_elements(mentions, "Spaceship", Metaclass.BLOCK)
    missing.append("Spaceship")
    assert lookup_elements(mentions, "Spaceship", Metaclass.BLOCK) == []


def test_lookup_index_is_not_part_of_the_value(railway_model_text):
    """The index and the result memo live in a run's ``Mentions``: a model
    value has no ``__dict__`` to hold either, and looking phrases up leaves
    its equality, hashing, repr and output as they were."""
    looked_up, fresh = load_model(railway_model_text), load_model(railway_model_text)
    mentions = Mentions(looked_up)
    assert lookup_elements(mentions, "Train", Metaclass.BLOCK) == ["Train"]
    assert lookup_elements(mentions, ["the", "Train"], Metaclass.BLOCK) == ["Train"]
    assert len(mentions.memo) == 2
    assert not hasattr(looked_up, "__dict__") and not hasattr(mentions, "__dict__")
    assert looked_up == fresh and hash(looked_up) == hash(fresh)
    assert repr(looked_up) == repr(fresh)
    assert save_model(looked_up) == save_model(fresh)
    with pytest.raises(AttributeError):
        looked_up.cache = {}


def _bench_workload(monkeypatch, name: str):
    """Seed 1 of a benchmark workload: its model, corpus and knowledge base."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look themselves up
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS[name](1)
    return load_model(workload.model_text()), parse_corpus(workload.feature_text()), parse_kb(workloads.KB_TEXT)


@pytest.mark.parametrize("name, keys", [("wide-model", 360), ("clause-search", 304), ("dense-machines", 564)])
def test_each_run_builds_one_index_and_resolves_each_key_once(monkeypatch, name, keys):
    """Counts calls, times nothing: a ``complete_model`` run builds one
    lookup index, and its requirements share one memo, so each distinct
    (phrase, metaclass, scope) key reaches the index once per run. A second
    run on the same model value starts from a new index and memo, and makes
    the same resolutions."""
    builds, probes = [], []
    real_index, real_exact = matcher_module._mention_index, matcher_module._lookup_exact
    monkeypatch.setattr(matcher_module, "_mention_index", lambda model: builds.append(model) or real_index(model))
    monkeypatch.setattr(matcher_module, "_lookup_exact", lambda *args: probes.append(args[1:]) or real_exact(*args))
    model, corpus, kb = _bench_workload(monkeypatch, name)
    first = complete_model(model, corpus, kb)
    assert builds == [model]
    assert len(probes) == len(set(probes)) == keys
    first_probes = list(probes)
    builds.clear()
    probes.clear()
    second = complete_model(model, corpus, kb)
    assert builds == [model] and probes == first_probes
    assert second[:3] == first[:3]  # the model, report and trace


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
    real = matcher_module.normalize_phrase
    monkeypatch.setattr(
        matcher_module, "normalize_phrase", lambda phrase: calls.append(phrase) or real(phrase)
    )
    for model in models:
        calls.clear()
        result = complete_model(model, corpus, kb)
        assert len(result.report.added) == 3 and len(result.report.unmatched) == 1
        elements = len(model.blocks) + len(model.signals) + sum(len(m.states) for m in model.machines())
        assert 0 < len(calls) <= elements


def stdlib_canonical(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# Characters the two string escapers must agree on: quotes, backslashes,
# control characters, DEL, line and paragraph separators, non-ASCII.
AWKWARD_TEXT = st.text(
    st.characters() | st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\u2028\u2029\xe9\U0001f686')
)
# What outputs hold: no model, report or trace has a number or a bool.
OUTPUT_VALUES = st.recursive(
    st.none() | AWKWARD_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(AWKWARD_TEXT, inner, max_size=4),
    max_leaves=25,
)


@given(OUTPUT_VALUES)
def test_dump_canonical_agrees_with_stdlib_encoder(value):
    assert dump_canonical(value) == stdlib_canonical(value)


@pytest.mark.parametrize(
    "value",
    [
        {}, [], (), "", None,
        {"a": [], "b": {}, "c": ()},
        [[], {}, (), [[]], {"x": {}}],
        {"d": {"e": {"f": [], "g": {}}, "h": [{}, []]}},
    ],
)
def test_dump_canonical_empty_containers_at_every_depth(value):
    assert dump_canonical(value) == stdlib_canonical(value)


def test_dump_canonical_rejects_what_json_cannot_encode():
    with pytest.raises(TypeError):
        dump_canonical({"a": {1, 2}})


@pytest.mark.parametrize("scalar", [0, 1.5, True], ids=["int", "float", "bool"])
def test_dump_canonical_rejects_numbers_and_bools(scalar):
    """No output holds a number or a bool, so the writer takes neither, at
    the top or inside a container."""
    for value in (scalar, [scalar], {"a": scalar}):
        with pytest.raises(TypeError, match=f"Object of type {type(scalar).__name__} is not JSON serializable"):
            dump_canonical(value)


NAMES = st.text(st.characters() | st.sampled_from('"\\\u2028\xe9\U0001f686'), max_size=8)
EFFECTS = st.lists(st.builds(SendEffect, NAMES, NAMES), max_size=4).map(tuple)


def record_doc(value):
    """A report or trace record as plain data: each ``NamedTuple`` the dict
    of its fields, each other tuple or list a list, each metaclass its name."""
    if isinstance(value, Metaclass):
        return value.value
    if hasattr(value, "_asdict"):
        return {name: record_doc(item) for name, item in value._asdict().items()}
    if isinstance(value, (tuple, list)):
        return [record_doc(item) for item in value]
    return value


# Record fields: short non-ASCII text, quotes and control characters.
FIELD_TEXT = st.text(st.sampled_from('Gate "\\\x00\u2028\xe9\U0001f686'), max_size=4)


def _tuples(element):
    return st.lists(element, max_size=2).map(tuple)


TEXTS = _tuples(FIELD_TEXT)
FIELD_EFFECTS = _tuples(st.builds(SendEffect, FIELD_TEXT, FIELD_TEXT))
MERGE_ENTRIES = _tuples(st.builds(MergeEntry, FIELD_TEXT, FIELD_TEXT, TEXTS))
REPORTS = st.builds(
    CompletionReport,
    MERGE_ENTRIES,
    MERGE_ENTRIES,
    _tuples(st.builds(
        ConflictRecord, FIELD_TEXT, FIELD_TEXT, st.none() | FIELD_TEXT,
        _tuples(st.builds(ConflictVariant, FIELD_TEXT, FIELD_EFFECTS, TEXTS)), TEXTS,
    )),
    _tuples(st.builds(UnmatchedEntry, FIELD_TEXT, TEXTS)),
)
FINDINGS = st.lists(st.builds(Finding, FIELD_TEXT, FIELD_TEXT, FIELD_TEXT, TEXTS), max_size=3)
TRACE_RECORDS = st.lists(st.builds(
    TraceRecord, FIELD_TEXT, FIELD_TEXT, FIELD_TEXT,
    _tuples(st.builds(TraceBinding, FIELD_TEXT, st.sampled_from(Metaclass), FIELD_TEXT)),
    TEXTS,
    _tuples(st.builds(SatisfyLink, FIELD_TEXT, st.sampled_from(Metaclass), TEXTS, FIELD_TEXT)),
), max_size=3)


@given(REPORTS, FINDINGS, TRACE_RECORDS)
def test_report_and_trace_are_the_stdlib_encoding_of_their_records(report, findings, records):
    """``report.json`` and ``trace.json`` hold each record as the object of
    its fields, each metaclass as its name, and nothing else."""
    assert dump_canonical(_report_doc(report, findings)) == stdlib_canonical(
        {"version": "1", **record_doc(report), "findings": record_doc(findings)}
    )
    ordered = sorted(records, key=lambda r: r.requirement_id)
    assert emit_trace_json(records) == stdlib_canonical(record_doc(ordered))


@given(REPORTS, FINDINGS, TRACE_RECORDS)
def test_dump_canonical_writes_each_record_as_the_object_of_its_fields(report, findings, records):
    value = (report, findings, tuple(records), list(Metaclass))
    assert dump_canonical(value) == stdlib_canonical(record_doc(value))


@given(NAMES, NAMES, NAMES, st.none() | NAMES, EFFECTS)
def test_transition_identity_agrees_with_json_payload(owner, source, target, trigger, effects):
    assert transition_identity(owner, source, target, trigger, effects) == (
        reference_transition_identity(owner, source, target, trigger, effects)
    )


def test_transition_identity_golden(railway_model, railway_corpus, kb):
    """Ids are persisted in model files: these literals must never change."""
    completed = complete_model(railway_model, railway_corpus, kb).model
    assert [t.id for m in completed.machines() for t in m.transitions] == ["252ea0ea7fe4"]
    assert transition_identity("Gate", "open", "closed", None, ()) == "39bd433fe26a"
    unsorted = (SendEffect("Stop", "Brake"), SendEffect("Alarm", "Horn"))
    assert transition_identity("Zug", "F\xe4hrt", "Bremst", "Nothalt", unsorted) == "dc59ef2723c0"
    awkward = (SendEffect("S\xe9", "B\U0001f686"),)
    assert transition_identity(
        'Quote"Block', "back\\slash", "tab\tstate", "Sig\u2028", awkward
    ) == "0b7027697e30"


def _machine_doc(k: int) -> dict:
    """One machine with ``k`` transitions without an id and ``k`` with
    their correct id."""
    states = [f"S{i}" for i in range(2 * k + 1)]
    transitions = []
    for i in range(2 * k):
        t = {"source": states[i], "target": states[i + 1], "trigger": "Halt",
             "effects": [{"signal": "Halt", "target_block": "Gate"}]}
        if i % 2:
            t["id"] = reference_transition_identity(
                "Gate", t["source"], t["target"], "Halt", (SendEffect("Halt", "Gate"),)
            )
        transitions.append(t)
    return {
        "version": "1",
        "name": "M",
        "signals": [{"name": "Halt"}],
        "blocks": [{"name": "Gate", "state_machine": {"states": states, "transitions": transitions}}],
    }


@pytest.mark.parametrize("k", [1, 7, 40])
def test_load_computes_one_identity_per_transition(monkeypatch, k):
    """Counts calls, times nothing: a declared id is checked once, a
    missing one is computed once. ``transition_identity`` and the loader
    both hash through ``_content_id``."""
    calls = []
    real = model_module._content_id
    monkeypatch.setattr(
        model_module, "_content_id", lambda *args: calls.append(args) or real(*args)
    )
    model = load_model(json.dumps(_machine_doc(k)))
    assert len(calls) == 2 * k
    assert len(model.machines()[0].transitions) == 2 * k


def test_wrong_declared_id_is_rejected_with_its_path(railway_model, railway_corpus, kb):
    completed = complete_model(railway_model, railway_corpus, kb).model
    doc = json.loads(save_model(completed))
    doc["blocks"][2]["state_machine"]["transitions"][0]["id"] = "0123456789ab"
    with pytest.raises(ValidationError) as info:
        load_model(json.dumps(doc))
    assert str(info.value) == (
        "$.blocks[2].state_machine.transitions[0]: "
        "transition id '0123456789ab' does not match content hash"
    )
    assert info.value.path == "$.blocks[2].state_machine.transitions[0]"


@pytest.mark.parametrize("k", [1, 7, 40])
def test_load_builds_one_transition_value_per_transition(monkeypatch, k):
    """Counts constructions, times nothing: each transition, with a declared
    id or without one, is built once. A ``NamedTuple`` is built through
    ``__new__``, or through ``_make``, which ``_replace`` calls."""
    built = []
    new, make = Transition.__new__, Transition._make
    monkeypatch.setattr(Transition, "__new__", lambda cls, *a, **kw: built.append(a) or new(cls, *a, **kw))
    monkeypatch.setattr(Transition, "_make", classmethod(lambda cls, fields: built.append(fields) or make(fields)))
    model = load_model(json.dumps(_machine_doc(k)))
    assert len(built) == 2 * k == len(model.machines()[0].transitions)


# Valid names that still need escaping or normalize oddly.
MODEL_BLOCKS = ['G\xe4te"Q', "Pump\\Unit", "Zug\u2028Bahn", "T\xfcr\x01"]
MODEL_SIGNALS = ['Halt"', "R\xe9\\set", "Go\x01", "Stopp\xe9"]
MODEL_TEXT = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u2028\xe9\U0001f686'), max_size=6)
#: State names of one machine: each survives normalization, none shares
#: another's normal form.
MODEL_STATES = st.lists(
    MODEL_TEXT.filter(normalize_phrase), min_size=1, max_size=4, unique_by=normalize_phrase
)


@st.composite
def raw_and_canonical_models(draw):
    """A valid model as a caller may build it (effects unsorted, provenance
    repeated, lists in any order) and the same model as ``load_model``
    returns it."""
    blocks = draw(st.lists(st.sampled_from(MODEL_BLOCKS), min_size=1, unique=True))
    signals = draw(st.lists(st.sampled_from(MODEL_SIGNALS), unique=True))
    raw_blocks, canonical_blocks = [], []
    for owner in blocks:
        if not draw(st.booleans()):
            raw_blocks.append(Block(owner))
            canonical_blocks.append(Block(owner))
            continue
        states = draw(MODEL_STATES)
        raw, canonical = {}, {}
        for _ in range(draw(st.integers(0, 4))):
            source, target = draw(st.sampled_from(states)), draw(st.sampled_from(states))
            trigger = draw(st.none() | st.sampled_from(signals)) if signals else None
            effects = tuple(
                SendEffect(draw(st.sampled_from(signals)), draw(st.sampled_from(blocks)))
                for _ in range(draw(st.integers(0, 3) if signals else st.just(0)))
            )
            provenance = tuple(draw(st.lists(st.sampled_from(["R2", "R1", "\u2028", 'q"']), max_size=3)))
            guard = draw(st.none() | MODEL_TEXT)
            t = make_transition(owner, source, target, trigger, effects, provenance)
            canonical[t.id] = t._replace(guard=guard)
            raw[t.id] = Transition(t.id, source, target, trigger, guard, effects, provenance)
        raw_blocks.append(Block(owner, state_machine=StateMachine(
            tuple(states), tuple(raw.values()))))
        canonical_blocks.append(Block(owner, state_machine=StateMachine(
            tuple(sorted(states)), tuple(canonical[i] for i in sorted(canonical)))))
    name = draw(MODEL_TEXT.filter(bool))
    return (
        SystemModel(name, tuple(raw_blocks), tuple(Signal(n) for n in signals)),
        SystemModel(
            name,
            tuple(sorted(canonical_blocks, key=lambda b: b.name)),
            tuple(Signal(n) for n in sorted(signals)),
        ),
    )


@given(raw_and_canonical_models())
def test_save_model_is_the_stdlib_encoding_of_its_document(models):
    raw, canonical = models
    assert save_model(raw) == stdlib_canonical(reference_model_doc(raw))
    assert load_model(save_model(raw)) == canonical
    assert load_model(save_model(canonical)) == canonical
    # Without declared ids the loader hashes every transition itself.
    doc = json.loads(save_model(raw))
    for block in doc["blocks"]:
        for t in block.get("state_machine", {}).get("transitions", []):
            del t["id"]
    assert load_model(json.dumps(doc)) == canonical


TRANSITION_FIELDS = ["id", "source", "target", "trigger", "guard", "effects", "provenance", "zz"]
EFFECT_FIELDS = ["signal", "target_block", "zz"]
def _json_containers(inner):
    # A named function: hypothesis reads an ``extend`` lambda's source to
    # check that it uses its argument, and warns when it cannot.
    return st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(EFFECT_FIELDS), inner, max_size=3)


SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    _json_containers,
    max_leaves=6,
)
_DROP = object()
SWAPS = [_DROP, None, False, 0, 1.5, "", "s", [], ["s", 1], {}, {"signal": "Halt"}]


def _valid_entry() -> dict:
    effects = [{"signal": "Halt", "target_block": "Gate"}, {"signal": "Go", "target_block": "Gate"}]
    return {"source": "open", "target": "shut", "trigger": "Halt", "guard": "g", "provenance": ["R2", "R1"],
            "effects": effects,
            "id": transition_identity("Gate", "open", "shut", "Halt", tuple(SendEffect(**e) for e in effects))}


def _swapped(obj: dict, key: str, value) -> dict:
    if value is _DROP:
        obj.pop(key, None)
    else:
        obj[key] = copy.deepcopy(value)  # SWAPS' lists and dicts stay as they are
    return obj


@st.composite
def mutated_transitions(draw):
    """A valid transition entry with random JSON swapped into (or dropped
    from) a few of its fields, of one of its effects, or in place of either."""
    entry = _valid_entry()
    for key in draw(st.lists(st.sampled_from(TRANSITION_FIELDS), unique=True, max_size=3)):
        _swapped(entry, key, draw(st.sampled_from(SWAPS) | SMALL_JSON))
    if isinstance(entry.get("effects"), list) and entry["effects"] and draw(st.booleans()):
        effect = {"signal": "Go", "target_block": "Gate"}
        for key in draw(st.lists(st.sampled_from(EFFECT_FIELDS), unique=True, max_size=2)):
            _swapped(effect, key, draw(st.sampled_from(SWAPS) | SMALL_JSON))
        entry["effects"][draw(st.integers(0, len(entry["effects"]) - 1))] = (
            draw(SMALL_JSON) if draw(st.booleans()) else effect
        )
    return draw(SMALL_JSON) if draw(st.integers(0, 9)) == 9 else entry


def _outcome(parse):
    try:
        return ("ok", parse())
    except SchemaError as exc:
        return ("SchemaError", str(exc), exc.path)
    except TypeError:
        return ("TypeError",)


def _assert_loader_agrees_with_reference(entry) -> None:
    """``load_model`` on a document holding ``entry`` raises the SchemaError
    the field-by-field parser raises, or loads what it parses."""
    path = "$.blocks[0].state_machine.transitions[0]"
    expected = _outcome(lambda: reference_parse_transition(entry, path))
    doc = {"version": "1", "name": "M", "signals": [{"name": "Halt"}, {"name": "Go"}],
           "blocks": [{"name": "Gate", "state_machine": {"states": ["open", "shut"], "transitions": [entry]}}]}
    try:
        actual = _outcome(lambda: load_model(json.dumps(doc)).machines()[0].transitions[0])
    except ValidationError:
        actual = ("ValidationError",)  # well-formed; its content is checked later
    effects = entry.get("effects", []) if isinstance(entry, dict) else []
    if not isinstance(effects, list) and not (expected[0] == "SchemaError" and expected[2] == path):
        # Unless the entry failed before its effects were read, the old parser
        # crashed on them, or read a string's characters or an object's keys
        # as effects.
        expected = ("SchemaError", f"{path}.effects: effects must be a list", f"{path}.effects")
    if expected[0] != "ok":
        assert actual == expected
    elif actual[0] == "ok":
        declared, source, target, trigger, guard, effects, provenance = expected[1]
        t = actual[1]
        assert (t.source, t.target, t.trigger, t.guard, t.effects, t.provenance) == (
            source, target, trigger, guard, effects, provenance
        )
        assert t.id == (declared or transition_identity("Gate", source, target, trigger, effects))
    else:
        assert actual == ("ValidationError",)


def test_loader_agrees_with_the_field_by_field_parser_on_each_swap():
    """Every value of ``SWAPS`` in every field of a transition and of an
    effect, and in place of either; and two bad fields at once, which pins
    the order of the checks."""
    for pair in itertools.combinations(TRANSITION_FIELDS + ["effects[1].signal"], 2):
        entry = _valid_entry()
        entry["effects"][1]["signal"] = 0 if "effects[1].signal" in pair else "Go"
        entry.update({key: 0 for key in pair if key in TRANSITION_FIELDS})
        _assert_loader_agrees_with_reference(entry)
    for pair in itertools.combinations(EFFECT_FIELDS, 2):
        for values in itertools.product([_DROP, 0], repeat=2):
            entry = _valid_entry()
            for key, value in zip(pair, values):
                _swapped(entry["effects"][1], key, value)
            _assert_loader_agrees_with_reference(entry)
    for value in SWAPS:
        for key in TRANSITION_FIELDS:
            _assert_loader_agrees_with_reference(_swapped(_valid_entry(), key, value))
        for key in EFFECT_FIELDS:
            entry = _valid_entry()
            _swapped(entry["effects"][1], key, value)
            _assert_loader_agrees_with_reference(entry)
        if value is not _DROP:
            entry = _valid_entry()
            entry["effects"][1] = value
            _assert_loader_agrees_with_reference(entry)
            _assert_loader_agrees_with_reference(value)
    # An absent or empty list holds no items, but a null one is an error; a
    # later field's error still shows after either. Without an id, an entry
    # that loads has its fields compared.
    for key, value, bad in itertools.product(["effects", "provenance"], [_DROP, None, []], [None, "trigger", "source"]):
        entry = _swapped(_valid_entry(), key, value)
        del entry["id"]
        if bad is not None:
            entry[bad] = 0
        _assert_loader_agrees_with_reference(entry)


@given(mutated_transitions())
def test_loader_agrees_with_the_field_by_field_parser_on_random_swaps(entry):
    _assert_loader_agrees_with_reference(entry)
