"""In-memory system model, its JSON document format, and merge operations.

A model is blocks (optionally composed of parts and carrying one state
machine each), signals, and machine states. Input models typically have no
transitions; the pipeline adds them. All types are immutable value objects;
operations return new values.

The document format is canonical JSON: keys sorted, name lists sorted,
transitions sorted by id, two-space indentation. ``load_model`` also
normalizes the in-memory ordering, so ``load_model(save_model(m)) == m``
holds with plain structural equality.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Any

from .errors import ModcompleteError
from .normalize import normalize_phrase, normalize_signal_phrase

MODEL_FORMAT_VERSION = "1"


class Metaclass(Enum):
    """Kinds of model element a requirement phrase can refer to."""

    BLOCK = "Block"
    STATE = "State"
    SIGNAL = "Signal"


class SchemaError(ModcompleteError):
    """Malformed model document; carries the offending element path."""

    def __init__(self, message: str, path: str = "$") -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


class ValidationError(ModcompleteError):
    """Well-formed document with broken references or duplicate names."""

    def __init__(self, message: str, path: str = "$") -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


class UnknownOwner(ModcompleteError):
    """Transition merge target block is missing or has no state machine."""


class UnknownState(ModcompleteError):
    """Transition names a state the owner's machine does not define."""


class UnknownSignal(ModcompleteError):
    """Transition trigger or effect names a signal the model lacks."""


@dataclass(frozen=True)
class Signal:
    name: str
    display: str | None = None


@dataclass(frozen=True)
class State:
    name: str


@dataclass(frozen=True)
class SendEffect:
    """Action on a transition: send ``signal`` to ``target_block``."""

    signal: str
    target_block: str


@dataclass(frozen=True)
class Transition:
    id: str
    source: str
    target: str
    trigger: str | None = None
    guard: str | None = None
    effects: tuple[SendEffect, ...] = ()
    provenance: tuple[str, ...] = ()


@dataclass(frozen=True)
class StateMachine:
    owner: str
    states: tuple[State, ...] = ()
    transitions: tuple[Transition, ...] = ()
    initial: str | None = None

    def state_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.states)


@dataclass(frozen=True)
class Block:
    name: str
    parts: tuple[str, ...] = ()
    state_machine: StateMachine | None = None
    # None means "not declared" (no receivability checking); an empty tuple
    # is an explicit declaration that the block receives nothing.
    receivable_signals: tuple[str, ...] | None = None


@dataclass(frozen=True)
class SystemModel:
    name: str
    blocks: tuple[Block, ...] = ()
    signals: tuple[Signal, ...] = ()
    version: str = MODEL_FORMAT_VERSION

    def block(self, name: str) -> Block | None:
        for b in self.blocks:
            if b.name == name:
                return b
        return None

    def signal(self, name: str) -> Signal | None:
        for s in self.signals:
            if s.name == name:
                return s
        return None

    def machines(self) -> tuple[StateMachine, ...]:
        return tuple(b.state_machine for b in self.blocks if b.state_machine)

    @cached_property
    def _lookup_index(self) -> _LookupIndex:
        """Element names by normal form, built on first lookup.

        ``cached_property`` stores the index in the instance ``__dict__``, so
        it stays out of equality, hashing, ``repr`` and ``replace``.
        """
        blocks: dict[str, list[str]] = defaultdict(list)
        signals: dict[str, list[str]] = defaultdict(list)
        states: dict[tuple[str | None, str], list[str]] = defaultdict(list)
        for block in self.blocks:
            blocks[normalize_phrase(block.name)].append(block.name)
            if block.state_machine is not None:
                for state in block.state_machine.states:
                    form = normalize_phrase(state.name)
                    states[(block.name, form)].append(state.name)
                    states[(None, form)].append(state.name)
        for signal in self.signals:
            signals[normalize_phrase(signal.name)].append(signal.name)
        return _LookupIndex(blocks, signals, states)


@dataclass(frozen=True)
class _LookupIndex:
    """Normal form -> element names, duplicates kept. ``states`` is keyed by
    (owning block, form) and by (None, form) for unscoped lookups."""

    blocks: dict[str, list[str]]
    signals: dict[str, list[str]]
    states: dict[tuple[str | None, str], list[str]]


def transition_identity(
    owner: str,
    source: str,
    target: str,
    trigger: str | None,
    effects: tuple[SendEffect, ...],
) -> str:
    """Deterministic transition id: hash of the canonical content.

    Provenance is excluded on purpose so that duplicate detection and
    provenance union keep the id stable across runs.
    """
    payload = json.dumps(
        {
            "owner": owner,
            "source": source,
            "target": target,
            "trigger": trigger,
            "effects": [[e.signal, e.target_block] for e in sorted_effects(effects)],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def make_transition(
    owner: str,
    source: str,
    target: str,
    trigger: str | None = None,
    effects: tuple[SendEffect, ...] = (),
    provenance: tuple[str, ...] = (),
) -> Transition:
    """Build a transition with its canonical id and sorted payload lists."""
    effs = sorted_effects(effects)
    return Transition(
        id=transition_identity(owner, source, target, trigger, effs),
        source=source,
        target=target,
        trigger=trigger,
        effects=effs,
        provenance=tuple(sorted(set(provenance))),
    )


def sorted_effects(effects: tuple[SendEffect, ...]) -> tuple[SendEffect, ...]:
    return tuple(sorted(effects, key=lambda e: (e.signal, e.target_block)))


# ---------------------------------------------------------------------------
# Document parsing
# ---------------------------------------------------------------------------


def _expect(value: Any, kind: type, path: str, what: str) -> Any:
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise SchemaError(f"{what} must be a {kind.__name__}", path)
    return value


def _expect_str_list(value: Any, path: str, what: str) -> tuple[str, ...]:
    _expect(value, list, path, what)
    out = []
    for i, item in enumerate(value):
        out.append(_expect(item, str, f"{path}[{i}]", "entry"))
    return tuple(out)


def _reject_unknown_keys(obj: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise SchemaError(f"unknown key {unknown[0]!r}", path)


def _parse_effect(obj: Any, path: str) -> SendEffect:
    _expect(obj, dict, path, "effect")
    _reject_unknown_keys(obj, {"signal", "target_block"}, path)
    if "signal" not in obj or "target_block" not in obj:
        raise SchemaError("effect requires 'signal' and 'target_block'", path)
    return SendEffect(
        signal=_expect(obj["signal"], str, f"{path}.signal", "signal"),
        target_block=_expect(obj["target_block"], str, f"{path}.target_block", "target_block"),
    )


def _parse_transition(obj: Any, path: str) -> Transition:
    _expect(obj, dict, path, "transition")
    allowed = {"id", "source", "target", "trigger", "guard", "effects", "provenance"}
    _reject_unknown_keys(obj, allowed, path)
    for key in ("source", "target"):
        if key not in obj:
            raise SchemaError(f"transition requires {key!r}", path)
    effects = tuple(
        _parse_effect(e, f"{path}.effects[{i}]") for i, e in enumerate(obj.get("effects", []))
    )
    trigger = obj.get("trigger")
    if trigger is not None:
        _expect(trigger, str, f"{path}.trigger", "trigger")
    guard = obj.get("guard")
    if guard is not None:
        _expect(guard, str, f"{path}.guard", "guard")
    declared_id = obj.get("id")
    if declared_id is not None:
        _expect(declared_id, str, f"{path}.id", "id")
    return Transition(
        id=declared_id or "",
        source=_expect(obj["source"], str, f"{path}.source", "source"),
        target=_expect(obj["target"], str, f"{path}.target", "target"),
        trigger=trigger,
        guard=guard,
        effects=effects,
        provenance=tuple(sorted(set(_expect_str_list(obj.get("provenance", []), f"{path}.provenance", "provenance")))),
    )


def _parse_machine(obj: Any, owner: str, path: str) -> StateMachine:
    _expect(obj, dict, path, "state_machine")
    _reject_unknown_keys(obj, {"initial", "states", "transitions"}, path)
    states = tuple(State(n) for n in _expect_str_list(obj.get("states", []), f"{path}.states", "states"))
    transitions = tuple(
        _parse_transition(t, f"{path}.transitions[{i}]")
        for i, t in enumerate(obj.get("transitions", []))
    )
    initial = obj.get("initial")
    if initial is not None:
        _expect(initial, str, f"{path}.initial", "initial")
    return StateMachine(owner=owner, states=states, transitions=transitions, initial=initial)


def _parse_block(obj: Any, path: str) -> Block:
    _expect(obj, dict, path, "block")
    allowed = {"name", "parts", "state_machine", "receivable_signals"}
    _reject_unknown_keys(obj, allowed, path)
    if "name" not in obj:
        raise SchemaError("block requires 'name'", path)
    name = _expect(obj["name"], str, f"{path}.name", "name")
    machine = None
    if obj.get("state_machine") is not None:
        machine = _parse_machine(obj["state_machine"], name, f"{path}.state_machine")
    receivable = None
    if "receivable_signals" in obj and obj["receivable_signals"] is not None:
        receivable = _expect_str_list(
            obj["receivable_signals"], f"{path}.receivable_signals", "receivable_signals"
        )
    return Block(
        name=name,
        parts=_expect_str_list(obj.get("parts", []), f"{path}.parts", "parts"),
        state_machine=machine,
        receivable_signals=receivable,
    )


def load_model(text: str) -> SystemModel:
    """Parse and validate a model document.

    Raises:
        SchemaError: the document is not well-formed for the model schema.
        ValidationError: a reference dangles, a name collides under
            normalization, or block composition is cyclic.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    _expect(doc, dict, "$", "document")
    _reject_unknown_keys(doc, {"version", "name", "signals", "blocks"}, "$")
    version = doc.get("version", MODEL_FORMAT_VERSION)
    _expect(version, str, "$.version", "version")
    if version != MODEL_FORMAT_VERSION:
        raise SchemaError(f"unsupported version {version!r}", "$.version")
    if "name" not in doc:
        raise SchemaError("document requires 'name'", "$")
    name = _expect(doc["name"], str, "$.name", "name")

    signals = []
    for i, entry in enumerate(doc.get("signals", [])):
        path = f"$.signals[{i}]"
        _expect(entry, dict, path, "signal")
        _reject_unknown_keys(entry, {"name", "display"}, path)
        if "name" not in entry:
            raise SchemaError("signal requires 'name'", path)
        display = entry.get("display")
        if display is not None:
            _expect(display, str, f"{path}.display", "display")
        signals.append(Signal(name=_expect(entry["name"], str, f"{path}.name", "name"), display=display))

    blocks = [
        _parse_block(entry, f"$.blocks[{i}]") for i, entry in enumerate(doc.get("blocks", []))
    ]
    model = SystemModel(name=name, blocks=tuple(blocks), signals=tuple(signals), version=version)
    validate_model(model)
    return _normalized(model)


def validate_model(model: SystemModel) -> None:
    """Check every model invariant; raise ValidationError on the first break."""
    if not model.name:
        raise ValidationError("model name must be non-empty", "$.name")

    block_names = {b.name for b in model.blocks}
    seen_norm: dict[str, str] = {}
    for i, block in enumerate(model.blocks):
        path = f"$.blocks[{i}]"
        if not block.name:
            raise ValidationError("block name must be non-empty", f"{path}.name")
        norm = normalize_phrase(block.name)
        if not norm:
            raise ValidationError(f"block name {block.name!r} normalizes to nothing", f"{path}.name")
        if norm in seen_norm:
            raise ValidationError(
                f"block name {block.name!r} collides with {seen_norm[norm]!r} under normalization",
                f"{path}.name",
            )
        seen_norm[norm] = block.name

    signal_names = {s.name for s in model.signals}
    seen_norm = {}
    for i, signal in enumerate(model.signals):
        path = f"$.signals[{i}]"
        if not signal.name or any(ch.isspace() for ch in signal.name):
            raise ValidationError(
                f"signal name {signal.name!r} must be non-empty without whitespace", f"{path}.name"
            )
        if "(" in signal.name or ")" in signal.name:
            raise ValidationError(
                f"signal name {signal.name!r} must be the canonical form without parentheses",
                f"{path}.name",
            )
        norm = normalize_phrase(signal.name)
        if norm in seen_norm:
            raise ValidationError(
                f"signal name {signal.name!r} collides with {seen_norm[norm]!r} under normalization",
                f"{path}.name",
            )
        seen_norm[norm] = signal.name

    for i, block in enumerate(model.blocks):
        path = f"$.blocks[{i}]"
        for j, part in enumerate(block.parts):
            if part not in block_names:
                raise ValidationError(f"part {part!r} is not a block", f"{path}.parts[{j}]")
        if block.receivable_signals is not None:
            for j, sig in enumerate(block.receivable_signals):
                if sig not in signal_names:
                    raise ValidationError(
                        f"receivable signal {sig!r} is not a signal",
                        f"{path}.receivable_signals[{j}]",
                    )
        if block.state_machine is not None:
            _validate_machine(block, block_names, signal_names, path)

    _check_part_cycles(model)


def _validate_machine(
    block: Block, block_names: set[str], signal_names: set[str], path: str
) -> None:
    machine = block.state_machine
    assert machine is not None
    mpath = f"{path}.state_machine"
    if machine.owner != block.name:
        raise ValidationError("machine owner must be its block", mpath)
    names = set()
    for j, state in enumerate(machine.states):
        if not state.name:
            raise ValidationError("state name must be non-empty", f"{mpath}.states[{j}]")
        if state.name in names:
            raise ValidationError(f"duplicate state {state.name!r}", f"{mpath}.states[{j}]")
        names.add(state.name)
    if machine.initial is not None and machine.initial not in names:
        raise ValidationError(f"initial state {machine.initial!r} undefined", f"{mpath}.initial")
    for j, t in enumerate(machine.transitions):
        tpath = f"{mpath}.transitions[{j}]"
        if t.source not in names:
            raise ValidationError(f"source state {t.source!r} undefined", tpath)
        if t.target not in names:
            raise ValidationError(f"target state {t.target!r} undefined", tpath)
        if t.trigger is not None and t.trigger not in signal_names:
            raise ValidationError(f"trigger {t.trigger!r} is not a signal", tpath)
        for k, eff in enumerate(t.effects):
            if eff.signal not in signal_names:
                raise ValidationError(f"effect signal {eff.signal!r} is not a signal", f"{tpath}.effects[{k}]")
            if eff.target_block not in block_names:
                raise ValidationError(
                    f"effect target {eff.target_block!r} is not a block", f"{tpath}.effects[{k}]"
                )
        expected = transition_identity(machine.owner, t.source, t.target, t.trigger, t.effects)
        if t.id and t.id != expected:
            raise ValidationError(f"transition id {t.id!r} does not match content hash", tpath)


def _check_part_cycles(model: SystemModel) -> None:
    """Depth-first search with an explicit stack, so chains of any depth
    load without hitting the interpreter's recursion limit."""
    graph = {b.name: b.parts for b in model.blocks}
    WHITE, GREY, BLACK = 0, 1, 2
    color = {name: WHITE for name in graph}

    for root in sorted(graph):
        if color[root] != WHITE:
            continue
        color[root] = GREY
        trail = [root]  # the path from root; trail[i] is iterating pending[i]
        pending = [iter(graph[root])]
        while pending:
            for part in pending[-1]:
                if color[part] == GREY:
                    cycle = " -> ".join(trail[trail.index(part):] + [part])
                    raise ValidationError(f"part composition cycle: {cycle}", "$.blocks")
                if color[part] == WHITE:
                    color[part] = GREY
                    trail.append(part)
                    pending.append(iter(graph[part]))
                    break
            else:
                color[trail.pop()] = BLACK
                pending.pop()


def _normalized(model: SystemModel) -> SystemModel:
    """Canonical in-memory ordering: every list sorted by its key."""

    def norm_machine(m: StateMachine) -> StateMachine:
        transitions = []
        for t in m.transitions:
            t = replace(t, effects=sorted_effects(t.effects), provenance=tuple(sorted(set(t.provenance))))
            if not t.id:
                t = replace(t, id=transition_identity(m.owner, t.source, t.target, t.trigger, t.effects))
            transitions.append(t)
        return StateMachine(
            owner=m.owner,
            states=tuple(sorted(m.states, key=lambda s: s.name)),
            transitions=tuple(sorted(transitions, key=lambda t: t.id)),
            initial=m.initial,
        )

    def norm_block(b: Block) -> Block:
        return Block(
            name=b.name,
            parts=tuple(sorted(b.parts)),
            state_machine=norm_machine(b.state_machine) if b.state_machine else None,
            receivable_signals=(
                tuple(sorted(b.receivable_signals)) if b.receivable_signals is not None else None
            ),
        )

    return SystemModel(
        name=model.name,
        blocks=tuple(sorted((norm_block(b) for b in model.blocks), key=lambda b: b.name)),
        signals=tuple(sorted(model.signals, key=lambda s: s.name)),
        version=model.version,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _transition_doc(t: Transition) -> dict:
    doc: dict[str, Any] = {
        "id": t.id,
        "source": t.source,
        "target": t.target,
        "effects": [{"signal": e.signal, "target_block": e.target_block} for e in sorted_effects(t.effects)],
        "provenance": sorted(set(t.provenance)),
    }
    if t.trigger is not None:
        doc["trigger"] = t.trigger
    if t.guard is not None:
        doc["guard"] = t.guard
    return doc


def save_model(model: SystemModel) -> str:
    """Serialize a model canonically (stable bytes for identical models)."""
    blocks = []
    for b in sorted(model.blocks, key=lambda b: b.name):
        entry: dict[str, Any] = {"name": b.name}
        if b.parts:
            entry["parts"] = sorted(b.parts)
        if b.receivable_signals is not None:
            entry["receivable_signals"] = sorted(b.receivable_signals)
        if b.state_machine is not None:
            m = b.state_machine
            machine: dict[str, Any] = {
                "states": sorted(s.name for s in m.states),
                "transitions": [
                    _transition_doc(t) for t in sorted(m.transitions, key=lambda t: t.id)
                ],
            }
            if m.initial is not None:
                machine["initial"] = m.initial
            entry["state_machine"] = machine
        blocks.append(entry)
    signals = []
    for s in sorted(model.signals, key=lambda s: s.name):
        entry = {"name": s.name}
        if s.display is not None:
            entry["display"] = s.display
        signals.append(entry)
    doc = {"version": model.version, "name": model.name, "signals": signals, "blocks": blocks}
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------


class MergeKind(Enum):
    ADDED = "added"
    DUPLICATE = "duplicate"


@dataclass(frozen=True)
class MergeOutcome:
    """Result of merging one transition into a model.

    ``model`` is the updated model: with the new transition for ADDED, with
    the provenance union for DUPLICATE.
    """

    kind: MergeKind
    model: SystemModel
    transition_id: str


def add_transition(model: SystemModel, owner: str, t: Transition) -> MergeOutcome:
    """Merge ``t`` into ``owner``'s machine.

    Structurally identical transitions collapse (provenance union). Conflicts
    (same source and trigger, different target or effects) are not checked
    here: ``generator.complete_model`` withholds them before merging.

    Raises:
        UnknownOwner: no such block, or the block has no state machine.
        UnknownState: source or target not in the owner's machine.
        UnknownSignal: trigger or an effect signal missing from the model.
    """
    block = model.block(owner)
    if block is None:
        raise UnknownOwner(f"no block named {owner!r}")
    machine = block.state_machine
    if machine is None:
        raise UnknownOwner(f"block {owner!r} has no state machine")
    state_names = set(machine.state_names())
    for state in (t.source, t.target):
        if state not in state_names:
            raise UnknownState(f"state {state!r} not in machine of {owner!r}")
    signal_names = {s.name for s in model.signals}
    if t.trigger is not None and t.trigger not in signal_names:
        raise UnknownSignal(f"trigger {t.trigger!r} is not a signal")
    block_names = {b.name for b in model.blocks}
    for eff in t.effects:
        if eff.signal not in signal_names:
            raise UnknownSignal(f"effect signal {eff.signal!r} is not a signal")
        if eff.target_block not in block_names:
            raise UnknownOwner(f"effect target {eff.target_block!r} is not a block")

    incoming = make_transition(owner, t.source, t.target, t.trigger, t.effects, t.provenance)

    for existing in machine.transitions:
        if existing.id == incoming.id:
            merged = replace(
                existing, provenance=tuple(sorted(set(existing.provenance) | set(incoming.provenance)))
            )
            if merged == existing:
                return MergeOutcome(MergeKind.DUPLICATE, model, existing.id)
            return MergeOutcome(
                MergeKind.DUPLICATE, _with_transitions(model, owner, existing, merged), existing.id
            )

    new_machine = replace(
        machine, transitions=tuple(sorted(machine.transitions + (incoming,), key=lambda x: x.id))
    )
    new_blocks = tuple(
        replace(b, state_machine=new_machine) if b.name == owner else b for b in model.blocks
    )
    return MergeOutcome(MergeKind.ADDED, replace(model, blocks=new_blocks), incoming.id)


def _with_transitions(
    model: SystemModel, owner: str, old: Transition, new: Transition
) -> SystemModel:
    block = model.block(owner)
    assert block is not None and block.state_machine is not None
    machine = block.state_machine
    transitions = tuple(new if t.id == old.id else t for t in machine.transitions)
    new_machine = replace(machine, transitions=transitions)
    new_blocks = tuple(
        replace(b, state_machine=new_machine) if b.name == owner else b for b in model.blocks
    )
    return replace(model, blocks=new_blocks)


# ---------------------------------------------------------------------------
# Element lookup
# ---------------------------------------------------------------------------


def lookup_elements(
    model: SystemModel,
    phrase,
    metaclass: Metaclass,
    scope: str | None = None,
) -> list[str]:
    """Names of model elements a phrase refers to, lexicographically sorted.

    Resolution is longest-suffix: the full phrase is tried first; if nothing
    matches, leading modifier words are dropped one at a time ("the Emergency
    Brake" reaches a block named Brake). Signals additionally answer to their
    stopword-stripped and stemmed forms. State lookups with a ``scope``
    search only that block's machine; without one they search every machine,
    and a name is repeated once per machine that defines it.

    Each suffix costs one probe of the model's lookup index (one per signal
    variant), not a scan of the model. The index is built on the model's
    first lookup and cached on that value; it is never part of equality or
    of any output.
    """
    from .normalize import core_words, split_words

    words = core_words(split_words(phrase))
    for k in range(len(words)):
        suffix = words[k:]
        found = _lookup_exact(model, suffix, metaclass, scope)
        if found:
            return sorted(found)
    return []


def _lookup_exact(
    model: SystemModel, words: list[str], metaclass: Metaclass, scope: str | None
) -> list[str]:
    form = "".join(words)
    if not form:
        return []
    index = model._lookup_index
    if metaclass is Metaclass.BLOCK:
        return list(index.blocks.get(form, ()))
    if metaclass is Metaclass.SIGNAL:
        return [name for v in normalize_signal_phrase(words) for name in index.signals.get(v, ())]
    return list(index.states.get((scope, form), ()))
