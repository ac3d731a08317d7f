"""Traceability: link requirements to bindings and generated transitions.

The JSON trace is the ground truth (machine-checkable); the per-requirement
text diagram is a derived view in PlantUML syntax, one requirement node plus
one node per satisfied element, connected by ``<<satisfy>>`` dependencies,
with a note listing the role(s) each element plays.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import ModcompleteError
from .matcher import MatchResult
from .model import Metaclass, SystemModel


@dataclass(frozen=True)
class TraceBinding:
    role: str
    metaclass: Metaclass
    element: str


@dataclass(frozen=True)
class SatisfyLink:
    element: str
    metaclass: Metaclass
    roles: tuple[str, ...]
    stereotype: str = "satisfy"


@dataclass(frozen=True)
class TraceRecord:
    """requirement id <-> matched rule <-> role bindings <-> generated ids."""

    requirement_id: str
    metareq_id: str
    text: str
    bindings: tuple[TraceBinding, ...]
    generated: tuple[str, ...]
    satisfies: tuple[SatisfyLink, ...]


def build_trace(
    match: MatchResult,
    transition_ids: tuple[str, ...],
    text: str = "",
) -> TraceRecord:
    """Build the trace record for one matched requirement.

    Bindings keep slot order (first binding set first); an element bound
    under several roles appears once per role in ``bindings`` and once with
    all its roles in ``satisfies``.
    """
    bindings: list[TraceBinding] = []
    seen: set[tuple[str, str, str]] = set()
    roles_by_element: dict[tuple[str, Metaclass], list[str]] = {}
    element_order: list[tuple[str, Metaclass]] = []
    for binding_set in match.binding_sets:
        for b in binding_set:
            key = (b.role, b.metaclass.value, b.element)
            if key not in seen:
                seen.add(key)
                bindings.append(TraceBinding(b.role, b.metaclass, b.element))
            ekey = (b.element, b.metaclass)
            if ekey not in roles_by_element:
                roles_by_element[ekey] = []
                element_order.append(ekey)
            if b.role not in roles_by_element[ekey]:
                roles_by_element[ekey].append(b.role)
    satisfies = tuple(
        SatisfyLink(element=el, metaclass=mc, roles=tuple(sorted(roles_by_element[(el, mc)])))
        for el, mc in sorted(element_order)
    )
    return TraceRecord(
        requirement_id=match.requirement_id,
        metareq_id=match.metareq_id,
        text=text,
        bindings=tuple(bindings),
        generated=tuple(dict.fromkeys(transition_ids)),
        satisfies=satisfies,
    )


def emit_trace_json(records: tuple[TraceRecord, ...] | list[TraceRecord]) -> str:
    """Canonical JSON array of trace records, ordered by requirement id."""
    docs = []
    for record in sorted(records, key=lambda r: r.requirement_id):
        docs.append(
            {
                "requirement_id": record.requirement_id,
                "metareq_id": record.metareq_id,
                "text": record.text,
                "bindings": [
                    {"role": b.role, "metaclass": b.metaclass.value, "element": b.element}
                    for b in record.bindings
                ],
                "generated": list(record.generated),
                "satisfies": [
                    {
                        "element": link.element,
                        "metaclass": link.metaclass.value,
                        "stereotype": link.stereotype,
                        "roles": list(link.roles),
                    }
                    for link in record.satisfies
                ],
            }
        )
    return json.dumps(docs, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _element_exists(model: SystemModel, name: str, metaclass: Metaclass) -> bool:
    if metaclass is Metaclass.BLOCK:
        return model.block(name) is not None
    if metaclass is Metaclass.SIGNAL:
        return model.signal(name) is not None
    return any(
        name in machine.state_names() for machine in model.machines()
    )


def _node_id(prefix: str, name: str) -> str:
    return prefix + re.sub(r"\W", "_", name)


def _escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def emit_requirement_diagram(record: TraceRecord, model: SystemModel) -> str | None:
    """Requirement diagram for one record, or None when nothing was generated.

    Output is deterministic: elements sorted by (name, metaclass), note lines
    in the same order.
    """
    if not record.generated:
        return None
    for link in record.satisfies:
        if not _element_exists(model, link.element, link.metaclass):
            raise ModcompleteError(
                f"trace record {record.requirement_id} names missing element {link.element!r}"
            )
    req_node = _node_id("REQ_", record.requirement_id)
    label = record.requirement_id
    if record.text:
        label += "\\n" + _escape(record.text)
    lines = ["@startuml"]
    lines.append(f'rectangle "{label}" as {req_node} <<requirement>>')
    for link in record.satisfies:
        node = _node_id(f"EL_{link.metaclass.value}_", link.element)
        lines.append(f'rectangle "{_escape(link.element)}" as {node} <<{link.metaclass.value}>>')
    for link in record.satisfies:
        node = _node_id(f"EL_{link.metaclass.value}_", link.element)
        lines.append(f"{node} ..> {req_node} : <<satisfy>>")
    lines.append(f"note bottom of {req_node}")
    for link in record.satisfies:
        lines.append(f"  {link.element}: {', '.join(link.roles)}")
    lines.append("end note")
    lines.append("@enduml")
    return "\n".join(lines) + "\n"
