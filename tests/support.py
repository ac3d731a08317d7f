"""Shared helpers for the test suite: random generators and comparisons."""

from __future__ import annotations

import random
import re

from modcomplete import (
    AmbiguousMatch,
    KnowledgeBase,
    MatchResult,
    NoMatch,
    SystemModel,
    load_model,
    match_requirement,
    oracle_match,
)
from modcomplete.gherkin import ParseError, RequirementDoc, parse_requirement
from modcomplete.kb import (
    ClauseTemplate,
    Literal,
    MetaFragment,
    MetaReq,
    OptionalLiteral,
    SlotPattern,
)
from modcomplete.gherkin import ClauseKind
from modcomplete.model import Metaclass
from modcomplete.normalize import core_words, normalize_phrase, normalize_signal_phrase, split_words
import json


def semantic(result: MatchResult):
    """Projection of a match used for oracle agreement: rule, alternatives,
    and the role->element maps per binding set (phrases are display data)."""
    return (
        result.metareq_id,
        result.alternatives_consumed,
        tuple(tuple((b.role, b.element) for b in s) for s in result.binding_sets),
    )


def outcome_of(fn, ast, kb, model):
    try:
        return ("ok", semantic(fn(ast, kb, model)))
    except NoMatch:
        return ("NoMatch",)
    except AmbiguousMatch:
        return ("AmbiguousMatch",)


def agreement(ast, kb, model) -> tuple:
    """(main outcome, oracle outcome) for one case."""
    return outcome_of(match_requirement, ast, kb, model), outcome_of(oracle_match, ast, kb, model)


def camel_split(name: str) -> str:
    return re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", name)


BLOCK_POOL = ["Gate", "GateControl", "Pump", "PumpUnit", "Valve", "CommandAndControl"]
SIGNAL_POOL = ["Start", "Stop", "Stops", "Reset", "Halt", "PowerDown"]
STATE_POOL = ["idle", "busy", "armed", "failed", "running"]


def random_model(rng: random.Random) -> SystemModel:
    """Small random model (at most 8 elements) exercising name collisions,
    suffix absorption and signal stemming."""
    n_blocks = rng.randint(1, 3)
    blocks = rng.sample(BLOCK_POOL, n_blocks)
    n_signals = rng.randint(0, 2)
    signals = rng.sample(SIGNAL_POOL, n_signals)
    budget = 8 - n_blocks - n_signals
    n_states = max(2, min(3, budget))
    states = rng.sample(STATE_POOL, n_states)
    machine_holder = blocks[0]
    doc = {
        "version": "1",
        "name": "Rand",
        "signals": [{"name": s} for s in signals],
        "blocks": [],
    }
    for name in blocks:
        entry: dict = {"name": name}
        if name == machine_holder or (len(blocks) > 1 and rng.random() < 0.25):
            entry["state_machine"] = {"states": list(states), "transitions": []}
        doc["blocks"].append(entry)
    return load_model(json.dumps(doc))


def _render_block(rng: random.Random, name: str) -> str:
    words = camel_split(name) if rng.random() < 0.5 else name
    if rng.random() < 0.5:
        words = "the " + words
    return words


def _render_signal(rng: random.Random, name: str) -> str:
    style = rng.random()
    if style < 0.35:
        return name
    if style < 0.55:
        return camel_split(name)
    if style < 0.75:
        return "a " + camel_split(name) + " " + rng.choice(["Message", "Signal", "Command"])
    return name.lower() + "s"  # verb form, stems back


def random_requirement(rng: random.Random, model: SystemModel) -> str:
    """Requirement text loosely aimed at the default knowledge base, with a
    mix of fitting, almost-fitting and broken shapes."""
    machines = [b for b in model.blocks if b.state_machine]
    block = rng.choice(machines) if machines else rng.choice(model.blocks)
    states = list(block.state_machine.state_names()) if block.state_machine else ["idle", "busy"]
    s1 = rng.choice(states)
    s2 = rng.choice(states)
    any_block = rng.choice(model.blocks)
    other_block = rng.choice(model.blocks)
    signal = rng.choice(model.signals).name if model.signals else "Ghost"
    signal2 = rng.choice(model.signals).name if model.signals else "Ghost"

    shape = rng.random()
    given = f"Given {_render_block(rng, block.name)} in {s1}"
    if shape < 0.25:
        text = (
            f"{given}, When {_render_block(rng, any_block.name)} receives "
            f"{_render_signal(rng, signal)}, Then {_render_block(rng, other_block.name)} "
            f"{signal2.lower()}s the {_render_block(rng, any_block.name)} and goes in {s2}."
        )
    elif shape < 0.45:
        text = (
            f"{given}, When {_render_block(rng, any_block.name)} receives "
            f"{_render_signal(rng, signal)}, Then {_render_block(rng, other_block.name)} "
            f"goes in {s2}."
        )
    elif shape < 0.6:
        text = f"{given}, Then {_render_block(rng, other_block.name)} goes in {s2}."
    elif shape < 0.75:
        text = (
            f"{given}, When {_render_block(rng, any_block.name)} receives {signal} or "
            f"{_render_signal(rng, signal2)}, Then {_render_block(rng, other_block.name)} "
            f"goes in {s2}."
        )
    elif shape < 0.85:
        text = (
            f"{given}, When the Spaceship receives {_render_signal(rng, signal)}, "
            f"Then {_render_block(rng, other_block.name)} goes in {s2}."
        )
    else:
        words = (
            f"{given}, When {_render_block(rng, any_block.name)} receives "
            f"{_render_signal(rng, signal)}, Then {_render_block(rng, other_block.name)} "
            f"goes in {s2}."
        ).split()
        rng.shuffle(words)
        text = " ".join(words)
    return text


def random_case(rng: random.Random):
    """One parseable (model, ast) pair; retries until the text parses."""
    model = random_model(rng)
    while True:
        text = random_requirement(rng, model)
        doc = RequirementDoc(id="R", text=text)
        try:
            return model, parse_requirement(doc)
        except ParseError:
            continue


LITERAL_POOL = ["receives", "goes", "in", "switches", "sends", "into", "on", "enters"]


def random_kb(rng: random.Random) -> KnowledgeBase:
    """Random valid knowledge base for round-trip testing."""
    n = rng.randint(1, 3)
    metareqs = []
    fragments = []
    for i in range(n):
        serial = 0

        def role(prefix: str) -> str:
            nonlocal serial
            serial += 1
            return f"{prefix}{serial}"

        owner = role("blk")
        source = role("st")
        target = role("st")
        trigger = role("sig") if rng.random() < 0.7 else None
        effects = []
        if rng.random() < 0.4:
            effects.append((role("sig"), role("blk")))

        def template(kind: ClauseKind, slots: list[SlotPattern]) -> ClauseTemplate:
            items: list = []
            for j, slot in enumerate(slots):
                if j:
                    items.append(Literal(rng.choice(LITERAL_POOL)))
                if rng.random() < 0.3:
                    items.append(OptionalLiteral(tuple(sorted({rng.choice(["to", "into", "from"])}))))
                items.append(slot)
            if rng.random() < 0.3:
                items.append(Literal(rng.choice(LITERAL_POOL)))
            return ClauseTemplate(kind, tuple(items))

        given = [template(ClauseKind.GIVEN, [SlotPattern(Metaclass.BLOCK, owner), SlotPattern(Metaclass.STATE, source)])]
        when = []
        when_slots = []
        if trigger is not None:
            when_slots.append(SlotPattern(Metaclass.SIGNAL, trigger))
            when.append(template(ClauseKind.WHEN, when_slots))
        then_slots = [SlotPattern(Metaclass.STATE, target)]
        for sig, blk in effects:
            then_slots = [SlotPattern(Metaclass.SIGNAL, sig), SlotPattern(Metaclass.BLOCK, blk)] + then_slots
        then = [template(ClauseKind.THEN, then_slots)]
        fragment_id = f"F{i + 1}"
        fragments.append(
            MetaFragment(
                id=fragment_id,
                owner_role=owner,
                source_role=source,
                target_role=target,
                trigger_role=trigger,
                effect_specs=tuple(effects),
            )
        )
        metareqs.append(
            MetaReq(
                id=f"MR{i + 1}",
                given=tuple(given),
                when=tuple(when),
                then=tuple(then),
                fragment=fragment_id,
            )
        )
    return KnowledgeBase(metareqs=tuple(metareqs), fragments=tuple(fragments))


def reference_lookup_elements(
    model: SystemModel, phrase, metaclass: Metaclass, scope: str | None = None
) -> list[str]:
    """``lookup_elements`` as a linear scan that normalizes every element
    name per suffix: the reference the indexed lookup must agree with."""
    words = core_words(split_words(phrase))
    for k in range(len(words)):
        found = _reference_lookup_exact(model, words[k:], metaclass, scope)
        if found:
            return sorted(found)
    return []


def _reference_lookup_exact(
    model: SystemModel, words: list[str], metaclass: Metaclass, scope: str | None
) -> list[str]:
    form = "".join(words)
    if not form:
        return []
    if metaclass is Metaclass.BLOCK:
        return [b.name for b in model.blocks if normalize_phrase(b.name) == form]
    if metaclass is Metaclass.SIGNAL:
        variants = normalize_signal_phrase(words)
        return [s.name for s in model.signals if normalize_phrase(s.name) in variants]
    found = []
    for block in model.blocks:
        if scope is not None and block.name != scope:
            continue
        if block.state_machine is None:
            continue
        for state in block.state_machine.states:
            if normalize_phrase(state.name) == form:
                found.append(state.name)
    return found
