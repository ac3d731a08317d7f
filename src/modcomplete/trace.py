"""Traceability: link requirements to bindings and generated transitions.

The JSON trace is the ground truth (machine-checkable); the per-requirement
text diagram is a derived view in PlantUML syntax, one requirement node plus
one node per satisfied element, connected by ``<<satisfy>>`` dependencies,
with a note listing the role(s) each element plays.
"""

import re
from typing import NamedTuple

from .matcher import MatchResult
from .model import Metaclass, dump_canonical


class TraceBinding(NamedTuple):
    role: str
    metaclass: Metaclass
    element: str


class SatisfyLink(NamedTuple):
    element: str
    metaclass: Metaclass
    roles: tuple[str, ...]
    stereotype: str = "satisfy"


class TraceRecord(NamedTuple):
    """requirement id <-> matched rule <-> role bindings <-> generated ids."""

    requirement_id: str
    metareq_id: str
    text: str
    bindings: tuple[TraceBinding, ...]
    generated: tuple[str, ...]
    satisfies: tuple[SatisfyLink, ...]


def build_trace(match: MatchResult, transition_ids: tuple[str, ...], text: str) -> TraceRecord:
    """Build the trace record for one matched requirement.

    Bindings keep slot order (first binding set first); an element bound
    under several roles appears once per role in ``bindings`` and once with
    all its roles in ``satisfies``. ``transition_ids`` are kept as given.
    """
    bindings = tuple(dict.fromkeys(
        TraceBinding(b.role, b.metaclass, b.element) for binding_set in match.binding_sets for b in binding_set
    ))
    roles_by_element: dict[tuple[str, Metaclass], set[str]] = {}
    for b in bindings:
        roles_by_element.setdefault((b.element, b.metaclass), set()).add(b.role)
    # A block and a signal may share a name: order them by metaclass name.
    satisfies = tuple(
        SatisfyLink(element=el, metaclass=mc, roles=tuple(sorted(roles_by_element[(el, mc)])))
        for el, mc in sorted(roles_by_element, key=lambda k: (k[0], k[1].value))
    )
    return TraceRecord(
        requirement_id=match.requirement_id,
        metareq_id=match.metareq_id,
        text=text,
        bindings=bindings,
        generated=transition_ids,
        satisfies=satisfies,
    )


def emit_trace_json(records: tuple[TraceRecord, ...] | list[TraceRecord]) -> str:
    """Canonical JSON array of trace records, ordered by requirement id."""
    return dump_canonical(sorted(records, key=lambda r: r.requirement_id))


def _node_id(prefix: str, name: str) -> str:
    return prefix + re.sub(r"\W", "_", name)


def _escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def emit_requirement_diagram(record: TraceRecord) -> str | None:
    """Requirement diagram for one record, or None when nothing was generated.

    Output is deterministic: elements sorted by (name, metaclass), note lines
    in the same order.
    """
    if not record.generated:
        return None
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
