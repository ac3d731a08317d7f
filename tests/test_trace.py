from __future__ import annotations

import json

from modcomplete import (
    complete_model,
    emit_requirement_diagram,
    emit_trace_json,
    load_model,
    parse_corpus,
)

from conftest import RAILWAY_REQUIREMENT


def railway_result(railway_model, railway_corpus, kb):
    return complete_model(railway_model, railway_corpus, kb)


def test_railway_trace_record(railway_model, railway_corpus, kb):
    result = complete_model(railway_model, railway_corpus, kb)
    (record,) = result.trace
    assert record.requirement_id == "REQ-001"
    assert record.metareq_id == "MR1"
    assert len(record.bindings) == 8
    assert len(record.satisfies) == 7  # distinct elements
    by_element = {link.element: link.roles for link in record.satisfies}
    assert by_element["BrakingSupervision"] == ("context2", "context3")
    assert by_element["Brake"] == ("context4",)
    assert len(record.generated) == 1
    (transition,) = result.model.block("Train").state_machine.transitions
    assert record.generated == (transition.id,)


def test_a_block_and_a_signal_may_share_a_name(kb):
    model = load_model(json.dumps({
        "version": "1",
        "name": "S",
        "signals": [{"name": "Gate"}],
        "blocks": [{"name": "Gate", "state_machine": {"states": ["s1", "s2"], "transitions": []}}],
    }))
    corpus = parse_corpus("Given Gate in s1, When Gate receives Gate, Then Gate goes in s2.")
    (record,) = complete_model(model, corpus, kb).trace
    assert [(link.element, link.metaclass.value, link.roles) for link in record.satisfies] == [
        ("Gate", "Block", ("context1", "context2", "context3")),
        ("Gate", "Signal", ("event",)),
        ("s1", "State", ("starting",)),
        ("s2", "State", ("final",)),
    ]


def test_unmatched_requirement_has_no_record(railway_model, kb):
    corpus = parse_corpus("Given a Spaceship in orbit, Then it goes in reentry.")
    result = complete_model(railway_model, corpus, kb)
    assert result.trace == ()
    assert len(result.report.unmatched) == 1


def test_duplicate_points_at_existing_transition(railway_model, kb):
    corpus = parse_corpus(
        "@id: R1\n" + RAILWAY_REQUIREMENT + "\nScenario: again\n@id: R2\n" + RAILWAY_REQUIREMENT
    )
    once = complete_model(railway_model, corpus[:1], kb)
    existing_id = once.model.block("Train").state_machine.transitions[0].id
    result = complete_model(once.model, corpus[1:], kb)
    (record,) = result.trace
    assert record.generated == (existing_id,)


def test_emit_trace_json_empty():
    assert emit_trace_json([]) == "[]\n"


def test_emit_trace_json_railway(railway_model, railway_corpus, kb):
    result = complete_model(railway_model, railway_corpus, kb)
    doc = json.loads(emit_trace_json(result.trace))
    assert len(doc) == 1
    assert doc[0]["requirement_id"] == "REQ-001"
    assert doc[0]["metareq_id"] == "MR1"
    assert [b["role"] for b in doc[0]["bindings"]] == [
        "context1", "starting", "context2", "event",
        "context3", "operation", "context4", "final",
    ]
    assert all(link["stereotype"] == "satisfy" for link in doc[0]["satisfies"])


def test_emit_trace_json_ordered_by_requirement_id(railway_model, kb):
    other = "Given a Train in braking, Then the Train goes in running."
    corpus = parse_corpus(
        "@id: Z-LAST\n" + RAILWAY_REQUIREMENT + "\nScenario: s\n@id: A-FIRST\n" + other
    )
    result = complete_model(railway_model, corpus, kb)
    doc = json.loads(emit_trace_json(result.trace))
    assert [r["requirement_id"] for r in doc] == ["A-FIRST", "Z-LAST"]


def test_requirement_diagram_counts(railway_model, railway_corpus, kb):
    result = complete_model(railway_model, railway_corpus, kb)
    diagram = emit_requirement_diagram(result.trace[0])
    lines = diagram.splitlines()
    assert lines[0] == "@startuml" and lines[-1] == "@enduml"
    element_nodes = [l for l in lines if l.startswith("rectangle ") and "<<requirement>>" not in l]
    requirement_nodes = [l for l in lines if "<<requirement>>" in l]
    satisfy_edges = [l for l in lines if "<<satisfy>>" in l]
    assert len(requirement_nodes) == 1
    assert len(element_nodes) == 7
    assert len(satisfy_edges) == 7
    assert "REQ-001" in requirement_nodes[0]
    assert RAILWAY_REQUIREMENT.split()[2] in requirement_nodes[0]  # verbatim text present


def test_diagram_deterministic(railway_model, railway_corpus, kb):
    first = complete_model(railway_model, railway_corpus, kb)
    second = complete_model(railway_model, railway_corpus, kb)
    assert emit_requirement_diagram(first.trace[0]) == emit_requirement_diagram(second.trace[0])


def test_diagram_skipped_without_generated_elements(railway_model, railway_corpus, kb):
    result = complete_model(railway_model, railway_corpus, kb)
    empty = result.trace[0]._replace(generated=())
    assert emit_requirement_diagram(empty) is None


def test_bidirectional_completeness(railway_model, kb):
    other = "Given a Train in braking, Then the Train goes in running."
    corpus = parse_corpus(
        "@id: R1\n" + RAILWAY_REQUIREMENT + "\nScenario: s\n@id: R2\n" + other
    )
    result = complete_model(railway_model, corpus, kb)
    trace_by_req = {r.requirement_id: set(r.generated) for r in result.trace}
    for block in result.model.blocks:
        if not block.state_machine:
            continue
        for transition in block.state_machine.transitions:
            for rid in transition.provenance:
                assert transition.id in trace_by_req[rid]
    generated_ids = {tid for r in result.trace for tid in r.generated}
    model_ids = {
        t.id
        for b in result.model.blocks
        if b.state_machine
        for t in b.state_machine.transitions
    }
    assert generated_ids <= model_ids
