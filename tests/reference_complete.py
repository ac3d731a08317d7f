"""Reference for the merge half of ``complete_model``, computed by brute force.

It follows the README's "Completion semantics" from the model and each
requirement's (owner, transition) pairs, and shares no code with
``generator.complete_model`` or ``model.add_transition``:

* candidates that share (owner, source, trigger) with another candidate or
  with an existing transition, but differ in target or effects, are a
  conflict; every requirement with a conflicted candidate is withheld;
* the other requirements are merged in corpus order. A transition whose
  content is already in the machine is a duplicate and only gains the
  requirement in its provenance; any other is added. A requirement with no
  added transition lists all of its transitions as duplicates. A kept
  requirement's generated ids are its added ones, then its repeated ones.
"""

from __future__ import annotations

from typing import NamedTuple

from modcomplete.generator import ConflictRecord, ConflictVariant, MergeEntry
from modcomplete.model import SystemModel, Transition


class ReferenceCompletion(NamedTuple):
    conflicts: list[ConflictRecord]
    withheld: set[str]
    added: list[MergeEntry]
    duplicates: list[MergeEntry]
    #: owner -> its final transitions, sorted by id
    transitions: dict[str, tuple[Transition, ...]]
    #: kept requirement id -> its generated transition ids
    generated: dict[str, tuple[str, ...]]


def _key(owner: str, t: Transition) -> tuple:
    return (owner, t.source, t.trigger)


def _side(t: Transition) -> tuple:
    return (t.target, tuple(sorted(t.effects)))


def _content(owner: str, t: Transition) -> tuple:
    return (*_key(owner, t), *_side(t))


def reference_complete(
    model: SystemModel, instances: list[tuple[str, tuple[tuple[str, Transition], ...]]]
) -> ReferenceCompletion:
    """``instances`` holds (requirement id, its pairs) in corpus order, one for
    each requirement that matched and instantiated."""
    existing = [
        (block.name, t)
        for block in model.blocks
        if block.state_machine is not None
        for t in block.state_machine.transitions
    ]
    candidates = [(rid, owner, t) for rid, instance in instances for owner, t in instance]

    conflicts: list[ConflictRecord] = []
    seen: set[tuple] = set()
    conflicted: set[tuple] = set()
    for _, owner, t in candidates:
        key = _key(owner, t)
        if key in seen:
            continue
        seen.add(key)
        ids_by_side: dict[tuple, set[str]] = {}
        for rid, o, c in candidates:
            if _key(o, c) == key:
                ids_by_side.setdefault(_side(c), set()).add(rid)
        for o, e in existing:
            if _key(o, e) == key:
                ids_by_side.setdefault(_side(e), set()).update(e.provenance)
        if len(ids_by_side) > 1:
            conflicted.add(key)
            variants = tuple(
                ConflictVariant(side[0], side[1], tuple(sorted(ids)))
                for side, ids in sorted(ids_by_side.items())
            )
            every_id = tuple(sorted({rid for ids in ids_by_side.values() for rid in ids}))
            conflicts.append(ConflictRecord(*key, variants, every_id))
    withheld = {rid for rid, owner, t in candidates if _key(owner, t) in conflicted}

    # content -> [owner, transition, provenance], in the order first seen
    machine: dict[tuple, list] = {_content(o, e): [o, e, set(e.provenance)] for o, e in existing}
    added: list[MergeEntry] = []
    duplicates: list[MergeEntry] = []
    generated: dict[str, tuple[str, ...]] = {}
    for rid, instance in instances:
        if rid in withheld:
            continue
        new, repeated = [], []
        for owner, t in instance:
            content = _content(owner, t)
            if content in machine:
                machine[content][2].add(rid)
                repeated.append(t.id)
            else:
                machine[content] = [owner, t, {rid}]
                new.append(MergeEntry(owner, t.id, (rid,)))
        added.extend(new)
        if not new:
            duplicates.extend(MergeEntry(owner, t.id, (rid,)) for owner, t in instance)
        generated[rid] = tuple(e.transition_id for e in new) + tuple(repeated)

    transitions: dict[str, list[Transition]] = {
        b.name: [] for b in model.blocks if b.state_machine is not None
    }
    for owner, t, provenance in machine.values():
        transitions[owner].append(t._replace(provenance=tuple(sorted(provenance))))
    return ReferenceCompletion(
        conflicts,
        withheld,
        added,
        duplicates,
        {owner: tuple(sorted(ts, key=lambda t: t.id)) for owner, ts in transitions.items()},
        generated,
    )
