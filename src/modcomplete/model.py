"""In-memory system model, its JSON document format, and the merge's write-back.

A model is blocks (optionally composed of parts and carrying one state
machine each), signals, and machine states. Input models typically have no
transitions; the pipeline adds them: ``generator.complete_model`` decides
each candidate's fate, and ``add_transition`` writes the decided machines
back. All types are immutable value objects; operations return new values.
A model carries no cache: the matcher's phrase lookup keeps its index and
memo in a ``matcher.Mentions`` that lives for one run.

The document format is canonical JSON: keys sorted, name lists sorted,
transitions sorted by id, two-space indentation. ``dump_canonical`` writes
it, and the report and the trace too. ``load_model`` also normalizes the
in-memory ordering, so ``load_model(save_model(m)) == m`` holds with plain
structural equality.
"""

import json
from enum import Enum
from hashlib import sha256
from json.encoder import encode_basestring, encode_basestring_ascii
from typing import Any, NamedTuple

from .errors import ModcompleteError
# normalize_signal_phrase is unused here; it stays an attribute of this
# module because bench/traced_cli.py counts its calls by that name.
from .normalize import normalize_phrase, normalize_signal_phrase  # noqa: F401

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


class Signal(NamedTuple):
    name: str
    display: str | None = None


class SendEffect(NamedTuple):
    """Action on a transition: send ``signal`` to ``target_block``."""

    signal: str
    target_block: str


class Transition(NamedTuple):
    id: str
    source: str
    target: str
    trigger: str | None = None
    guard: str | None = None
    effects: tuple[SendEffect, ...] = ()
    provenance: tuple[str, ...] = ()


class StateMachine(NamedTuple):
    """The machine of the block that holds it; ``states`` are names."""

    states: tuple[str, ...] = ()
    transitions: tuple[Transition, ...] = ()
    initial: str | None = None


class Block(NamedTuple):
    name: str
    parts: tuple[str, ...] = ()
    state_machine: StateMachine | None = None
    # None means "not declared" (no receivability checking); an empty tuple
    # is an explicit declaration that the block receives nothing.
    receivable_signals: tuple[str, ...] | None = None


class SystemModel(NamedTuple):
    name: str
    blocks: tuple[Block, ...] = ()
    signals: tuple[Signal, ...] = ()

    def block(self, name: str) -> Block | None:
        for b in self.blocks:
            if b.name == name:
                return b
        return None

    def machines(self) -> tuple[StateMachine, ...]:
        return tuple(b.state_machine for b in self.blocks if b.state_machine)


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
    return _content_id(encode_basestring_ascii(owner), source, target, trigger, sorted_effects(effects))


def _content_id(
    owner_json: str, source: str, target: str, trigger: str | None, effects: tuple[SendEffect, ...]
) -> str:
    """``transition_identity`` of an owner already encoded as a JSON string
    by ``encode_basestring_ascii``, and of effects already sorted.

    The hashed payload is the compact, key-sorted, ASCII-escaped JSON object
    ``{"effects":[[signal,target_block],...],"owner":..,"source":..,
    "target":..,"trigger":..}``. Ids are persisted in model files, so these
    bytes must never change; they are written out directly rather than
    through ``json.dumps``.
    """
    enc = encode_basestring_ascii
    effs = ",".join([f"[{enc(signal)},{enc(block)}]" for signal, block in effects]) if effects else ""
    payload = (
        f'{{"effects":[{effs}],"owner":{owner_json},"source":{enc(source)},'
        f'"target":{enc(target)},"trigger":{"null" if trigger is None else enc(trigger)}}}'
    )
    return sha256(payload.encode()).hexdigest()[:12]


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
        provenance=_sorted_unique(provenance),
    )


def sorted_effects(effects: tuple[SendEffect, ...]) -> tuple[SendEffect, ...]:
    """Effects by (signal, target_block), which is a ``SendEffect``'s own order."""
    return tuple(effects) if len(effects) < 2 else tuple(sorted(effects))


def _sorted_unique(items: list[str] | tuple[str, ...]) -> tuple[str, ...]:
    return tuple(items) if len(items) < 2 else tuple(sorted(set(items)))


# ---------------------------------------------------------------------------
# Document parsing
# ---------------------------------------------------------------------------


def _expect(value: Any, kind: type, path: str, what: str) -> Any:
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise SchemaError(f"{what} must be a {kind.__name__}", path)
    return value


def _expect_str_list(value: Any, path: str, what: str) -> tuple[str, ...]:
    _expect(value, list, path, what)
    return tuple(_expect(item, str, f"{path}[{i}]", "entry") for i, item in enumerate(value))


def _reject_unknown_keys(obj: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise SchemaError(f"unknown key {unknown[0]!r}", path)


_TRANSITION_KEYS = frozenset({"id", "source", "target", "trigger", "guard", "effects", "provenance"})
_EFFECT_KEYS = frozenset({"signal", "target_block"})
_STR = frozenset({str})


def _parse_transitions(
    entries: list, owner: str, path: str, states: set[str], block_names: set[str], signal_names: set[str]
) -> tuple[Transition, ...]:
    """The ``transitions`` of ``owner``'s machine at ``path``, sorted by id,
    each built once with its effects sorted and its content hash as its id.

    Checks run in a fixed order per entry. First its fields: keys, required
    keys, effects, trigger, guard, id, source, target, provenance. Then its
    source and target must be ``states``, its trigger a signal, and each
    effect, in document order, must send a signal to a block. Last, a
    declared id must be the content hash, and no earlier entry may have that
    hash. Each is an inline test; an error's text and path are built only
    when a test fails. The owner's part of the id payload is encoded once
    for the whole list.
    """
    owner_json = encode_basestring_ascii(owner)
    content_id = _content_id
    no_items: list = []  # only read, never changed
    first: dict[str, int] = {}  # the index of the first entry with each id
    out = []
    for i, obj in enumerate(entries):
        if type(obj) is not dict or not _TRANSITION_KEYS.issuperset(obj):
            _expect(obj, dict, f"{path}.transitions[{i}]", "transition")
            _reject_unknown_keys(obj, _TRANSITION_KEYS, f"{path}.transitions[{i}]")
        try:
            source, target = obj["source"], obj["target"]
        except KeyError as exc:
            raise SchemaError(f"transition requires {exc.args[0]!r}", f"{path}.transitions[{i}]") from None
        get = obj.get
        effects = get("effects", no_items)
        if type(effects) is not list:
            raise SchemaError("effects must be a list", f"{path}.transitions[{i}].effects")
        if effects:
            parsed = []
            for e in effects:
                if not (type(e) is dict and e.keys() == _EFFECT_KEYS
                        and type(e["signal"]) is type(e["target_block"]) is str):
                    _effect_error(e, f"{path}.transitions[{i}].effects[{len(parsed)}]")
                parsed.append(SendEffect(e["signal"], e["target_block"]))
            effects = parsed
        trigger, guard, declared_id, provenance = get("trigger"), get("guard"), get("id"), get("provenance", no_items)
        if not (
            type(source) is type(target) is str
            and (trigger is None or type(trigger) is str)
            and (guard is None or type(guard) is str)
            and (declared_id is None or type(declared_id) is str)
            and type(provenance) is list
            and (not provenance or _STR.issuperset(map(type, provenance)))
        ):
            tpath = f"{path}.transitions[{i}]"
            for key in ("trigger", "guard", "id", "source", "target"):
                value = get(key)
                if not isinstance(value, str) and (value is not None or key in ("source", "target")):
                    raise SchemaError(f"{key} must be a str", f"{tpath}.{key}")
            _expect_str_list(provenance, f"{tpath}.provenance", "provenance")
        if source not in states:
            raise ValidationError(f"source state {source!r} undefined", f"{path}.transitions[{i}]")
        if target not in states:
            raise ValidationError(f"target state {target!r} undefined", f"{path}.transitions[{i}]")
        if trigger is not None and trigger not in signal_names:
            raise ValidationError(f"trigger {trigger!r} is not a signal", f"{path}.transitions[{i}]")
        for k, (signal, target_block) in enumerate(effects):
            if signal not in signal_names:
                raise ValidationError(
                    f"effect signal {signal!r} is not a signal", f"{path}.transitions[{i}].effects[{k}]"
                )
            if target_block not in block_names:
                raise ValidationError(
                    f"effect target {target_block!r} is not a block", f"{path}.transitions[{i}].effects[{k}]"
                )
        effects = sorted_effects(effects)
        tid = content_id(owner_json, source, target, trigger, effects)
        if declared_id and declared_id != tid:
            raise ValidationError(
                f"transition id {declared_id!r} does not match content hash", f"{path}.transitions[{i}]"
            )
        # Transitions with one content share an id, so merging would lose one.
        k = first.setdefault(tid, i)
        if k != i:
            raise ValidationError(
                f"transition repeats transitions[{k}] (same source, target, trigger and effects)",
                f"{path}.transitions[{i}]",
            )
        out.append(Transition(tid, source, target, trigger, guard, effects, _sorted_unique(provenance)))
    out.sort(key=lambda t: t.id)
    return tuple(out)


def _effect_error(obj: Any, path: str) -> None:
    """Raise the SchemaError of an effect that failed the inline test."""
    _expect(obj, dict, path, "effect")
    _reject_unknown_keys(obj, _EFFECT_KEYS, path)
    if obj.keys() != _EFFECT_KEYS:
        raise SchemaError("effect requires 'signal' and 'target_block'", path)
    for key in ("signal", "target_block"):
        _expect(obj[key], str, f"{path}.{key}", key)


def _parse_machine(
    obj: Any, owner: str, path: str, block_names: set[str], signal_names: set[str]
) -> StateMachine:
    _expect(obj, dict, path, "state_machine")
    _reject_unknown_keys(obj, {"initial", "states", "transitions"}, path)
    states = _expect_str_list(obj.get("states", []), f"{path}.states", "states")
    names: set[str] = set()
    seen_norm: dict[str, str] = {}
    for j, state in enumerate(states):
        if not state:
            raise ValidationError("state name must be non-empty", f"{path}.states[{j}]")
        if state in names:
            raise ValidationError(f"duplicate state {state!r}", f"{path}.states[{j}]")
        names.add(state)
        _check_normal_form("state", state, f"{path}.states[{j}]", seen_norm)
    initial = obj.get("initial")
    if initial is not None:
        _expect(initial, str, f"{path}.initial", "initial")
        if initial not in names:
            raise ValidationError(f"initial state {initial!r} undefined", f"{path}.initial")
    entries = _expect(obj.get("transitions", []), list, f"{path}.transitions", "transitions")
    transitions = _parse_transitions(entries, owner, path, names, block_names, signal_names)
    return StateMachine(tuple(sorted(states)), transitions, initial)


def load_model(text: str) -> SystemModel:
    """Parse and check a model document in one walk over it, and return the
    model in canonical order: every list sorted by its key.

    Each rule is checked where its value is read, so the first fault in
    this order is the one raised:

    1. the document's keys, version and name;
    2. each block's keys and name, in document order (parts and effects
       may name a later block, so every block name is read first);
    3. each signal: its keys, then its name;
    4. each block's parts, its receivable signals, then its machine: the
       machine's keys, its states, its initial state, then each transition
       (see ``_parse_transitions``);
    5. part cycles.

    Every error path is a document path: the index of a list entry, an
    effect's included, is its place in the document, not in sorted order.

    Raises:
        SchemaError: the document is not well-formed for the model schema,
            or nests too deeply for the JSON parser.
        ValidationError: a reference dangles, a name collides under
            normalization, block composition is cyclic, or two transitions
            of one machine differ only in guard or provenance.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
    _expect(doc, dict, "$", "document")
    _reject_unknown_keys(doc, {"version", "name", "signals", "blocks"}, "$")
    version = doc.get("version", MODEL_FORMAT_VERSION)
    _expect(version, str, "$.version", "version")
    if version != MODEL_FORMAT_VERSION:
        raise SchemaError(f"unsupported version {version!r}", "$.version")
    if "name" not in doc:
        raise SchemaError("document requires 'name'", "$")
    name = _expect(doc["name"], str, "$.name", "name")
    if not name:
        raise ValidationError("model name must be non-empty", "$.name")

    entries = _expect(doc.get("blocks", []), list, "$.blocks", "blocks")
    seen_norm: dict[str, str] = {}
    for i, obj in enumerate(entries):
        path = f"$.blocks[{i}]"
        _expect(obj, dict, path, "block")
        _reject_unknown_keys(obj, {"name", "parts", "state_machine", "receivable_signals"}, path)
        if "name" not in obj:
            raise SchemaError("block requires 'name'", path)
        if not _expect(obj["name"], str, f"{path}.name", "name"):
            raise ValidationError("block name must be non-empty", f"{path}.name")
        _check_normal_form("block", obj["name"], f"{path}.name", seen_norm)
    block_names = set(seen_norm.values())

    signals = []
    seen_norm = {}
    for i, entry in enumerate(_expect(doc.get("signals", []), list, "$.signals", "signals")):
        path = f"$.signals[{i}]"
        _expect(entry, dict, path, "signal")
        _reject_unknown_keys(entry, {"name", "display"}, path)
        if "name" not in entry:
            raise SchemaError("signal requires 'name'", path)
        display = entry.get("display")
        if display is not None:
            _expect(display, str, f"{path}.display", "display")
        signal = _expect(entry["name"], str, f"{path}.name", "name")
        if not signal or any(ch.isspace() for ch in signal):
            raise ValidationError(f"signal name {signal!r} must be non-empty without whitespace", f"{path}.name")
        if "(" in signal or ")" in signal:
            raise ValidationError(
                f"signal name {signal!r} must be the canonical form without parentheses", f"{path}.name"
            )
        _check_normal_form("signal", signal, f"{path}.name", seen_norm)
        signals.append(Signal(signal, display))
    signal_names = set(seen_norm.values())

    blocks = []
    graph = {}  # each block's parts in document order
    for i, obj in enumerate(entries):
        path = f"$.blocks[{i}]"
        parts = graph[obj["name"]] = _expect_str_list(obj.get("parts", []), f"{path}.parts", "parts")
        for j, part in enumerate(parts):
            if part not in block_names:
                raise ValidationError(f"part {part!r} is not a block", f"{path}.parts[{j}]")
        receivable = obj.get("receivable_signals")
        if receivable is not None:
            receivable = _expect_str_list(receivable, f"{path}.receivable_signals", "receivable_signals")
            for j, signal in enumerate(receivable):
                if signal not in signal_names:
                    raise ValidationError(
                        f"receivable signal {signal!r} is not a signal", f"{path}.receivable_signals[{j}]"
                    )
            receivable = tuple(sorted(receivable))
        machine = obj.get("state_machine")
        if machine is not None:
            machine = _parse_machine(machine, obj["name"], f"{path}.state_machine", block_names, signal_names)
        blocks.append(Block(obj["name"], tuple(sorted(parts)), machine, receivable))
    _check_part_cycles(graph)
    blocks.sort(key=lambda b: b.name)
    signals.sort(key=lambda s: s.name)
    return SystemModel(name, tuple(blocks), tuple(signals))


def _check_normal_form(kind: str, name: str, path: str, seen_norm: dict[str, str]) -> None:
    """A name must survive normalization, and no earlier name of its kind
    in ``seen_norm`` (a machine's, for a state) may share its normal form."""
    norm = normalize_phrase(name)
    if not norm:
        raise ValidationError(f"{kind} name {name!r} normalizes to nothing", path)
    if norm in seen_norm:
        raise ValidationError(
            f"{kind} name {name!r} collides with {seen_norm[norm]!r} under normalization", path
        )
    seen_norm[norm] = name


def _check_part_cycles(graph: dict[str, tuple[str, ...]]) -> None:
    """Raise on a cycle in ``graph``, each block's parts by its name.
    Depth-first search with an explicit stack, so chains of any depth
    load without hitting the interpreter's recursion limit."""
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


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def dump_canonical(value: Any) -> str:
    """Canonical JSON text of ``value``, the format of every output file.

    Returns exactly ``json.dumps(value, indent=2, sort_keys=True,
    ensure_ascii=False) + "\\n"``. The standard library encodes with
    ``indent`` in pure Python, one generator per container; this writer
    emits the same bytes with one call per container and the C string
    escaper. Takes what outputs hold: dicts with string keys, lists,
    tuples, strings and None; anything else raises TypeError.
    """
    chunks: list[str] = []
    _write_canonical(value, "\n", chunks)
    chunks.append("\n")
    return "".join(chunks)


def record_doc(value: Any) -> Any:
    """``value`` as data for ``dump_canonical``: each ``NamedTuple`` record
    becomes a dict of its fields, each other tuple or list a list, and each
    metaclass its name. Report and trace entries are written this way, so
    their record types alone state those file formats."""
    if isinstance(value, Metaclass):
        return value.value
    if hasattr(value, "_asdict"):
        return {name: record_doc(item) for name, item in value._asdict().items()}
    if isinstance(value, (tuple, list)):
        return [record_doc(item) for item in value]
    return value


def _write_canonical(value: Any, newline: str, chunks: list[str]) -> None:
    """Append ``value`` to ``chunks``; ``newline`` is the line break plus
    the indentation of the line ``value`` starts on. String members are
    written inline, saving a call for most leaves."""
    if isinstance(value, str):
        chunks.append(encode_basestring(value))
    elif isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            if isinstance(item, str):
                chunks.append(f"{sep}{encode_basestring(key)}: {encode_basestring(item)}")
            else:
                chunks.append(f"{sep}{encode_basestring(key)}: ")
                _write_canonical(item, inner, chunks)
            sep = "," + inner
        chunks.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        if type(value) is _Transitions:
            _write_transitions(value, newline, chunks)
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            if isinstance(item, str):
                chunks.append(sep + encode_basestring(item))
            else:
                chunks.append(sep)
                _write_canonical(item, inner, chunks)
            sep = "," + inner
        chunks.append(newline + "]")
    elif value is None:
        chunks.append("null")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class _Transitions(tuple):
    """One machine's transitions in a document for ``dump_canonical``, which
    writes them with ``_write_transitions``."""


def _write_transitions(transitions: _Transitions, newline: str, chunks: list[str]) -> None:
    """Write each transition from one template, in the bytes
    ``_write_canonical`` gives its document: the keys ``effects``, ``guard``
    (if set), ``id``, ``provenance``, ``source``, ``target`` and ``trigger``
    (if set), effects sorted, provenance sorted and unique."""
    enc = encode_basestring
    n1 = newline + "  "  # a transition's braces
    n2 = n1 + "  "  # its keys
    n3 = n2 + "  "  # effect braces and provenance entries
    n4 = n3 + "  "  # effect keys
    sep = "[" + n1
    # Unpacking reads a record's fields faster than attribute access.
    for tid, source, target, trigger, guard, effects, provenance in transitions:
        effects_doc = provenance_doc = "[]"
        if effects:
            effects_doc = f"[{n3}" + f",{n3}".join([
                f'{{{n4}"signal": {enc(signal)},{n4}"target_block": {enc(target_block)}{n3}}}'
                for signal, target_block in sorted_effects(effects)
            ]) + f"{n2}]"
        if provenance:
            provenance_doc = f"[{n3}" + f",{n3}".join(map(enc, _sorted_unique(provenance))) + f"{n2}]"
        guard = "" if guard is None else f'{n2}"guard": {enc(guard)},'
        trigger = "" if trigger is None else f',{n2}"trigger": {enc(trigger)}'
        chunks.append(
            f'{sep}{{{n2}"effects": {effects_doc},{guard}{n2}"id": {enc(tid)},'
            f'{n2}"provenance": {provenance_doc},{n2}"source": {enc(source)},'
            f'{n2}"target": {enc(target)}{trigger}{n1}}}'
        )
        sep = "," + n1
    chunks.append(newline + "]")


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
                "states": sorted(m.states),
                "transitions": _Transitions(sorted(m.transitions, key=lambda t: t.id)),
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
    doc = {"version": MODEL_FORMAT_VERSION, "name": model.name, "signals": signals, "blocks": blocks}
    return dump_canonical(doc)


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------


def add_transition(
    model: SystemModel, machines: dict[str, dict[str, tuple[Transition, list[str]]]]
) -> SystemModel:
    """Write the machines ``generator.complete_model`` decided back into the model.

    The name is singular only because the benchmark's tracer wraps it by
    name. ``machines`` maps an owner to its transitions by id, each with the
    ids of the requirements that repeat it. A transition's provenance is
    sorted once, and a transition that gains no id is kept as it is, as is
    a block ``machines`` does not name. A machine that grew is sorted by id.
    """
    blocks = list(model.blocks)
    for i, block in enumerate(blocks):
        merged = machines.get(block.name)
        if merged is None:
            continue
        transitions = []
        for t, repeats in merged.values():
            if repeats:
                provenance = _sorted_unique(t.provenance + tuple(repeats))
                if provenance != t.provenance:
                    t = t._replace(provenance=provenance)
            transitions.append(t)
        if len(transitions) > len(block.state_machine.transitions):
            transitions.sort(key=lambda t: t.id)
        machine = block.state_machine._replace(transitions=tuple(transitions))
        blocks[i] = block._replace(state_machine=machine)
    return model._replace(blocks=tuple(blocks)) if machines else model

