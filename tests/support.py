"""Shared helpers for the test suite: random generators and comparisons."""

from __future__ import annotations

import hashlib
import json
import random
import re
from typing import NamedTuple

from modcomplete import (
    AmbiguousMatch,
    KnowledgeBase,
    MatchResult,
    NoMatch,
    SystemModel,
    load_model,
    match_requirement,
    oracle_match,
    parse_kb,
)
from modcomplete import matcher
from modcomplete.gherkin import KEYWORDS, SECTIONS, ParseError, RequirementDoc, parse_requirement
from modcomplete.kb import (
    BOUNDARY,
    HEADS,
    ClauseTemplate,
    Literal,
    MetaFragment,
    MetaReq,
    OptionalLiteral,
    SlotPattern,
    join_templates,
)
from modcomplete.model import Metaclass, SchemaError, SendEffect, Transition
from modcomplete.oracle import _oracle_span_bound
from modcomplete.normalize import (
    ARTICLES,
    core_words,
    normalize_phrase,
    normalize_signal_phrase,
    split_words,
)


def semantic(result: MatchResult):
    """Projection of a match used for oracle agreement: rule, alternatives,
    and the role->element maps per binding set (phrases are display data)."""
    return (
        result.metareq_id,
        result.alternatives_consumed,
        tuple(tuple((b.role, b.element) for b in s) for s in result.binding_sets),
    )


def outcome_of(fn, ast, kb, model):
    """The outcome class; a match's ``semantic`` projection; or, for an
    ambiguity, the set of its competing role->element assignments (a set,
    because the two matchers may find them in different orders)."""
    try:
        return ("ok", semantic(fn(ast, kb, model)))
    except NoMatch:
        return ("NoMatch",)
    except AmbiguousMatch as exc:
        return (
            "AmbiguousMatch",
            frozenset(tuple((b.role, b.element) for b in s) for s in exc.binding_sets),
        )


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
    states = list(block.state_machine.states) if block.state_machine else ["idle", "busy"]
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
    """One parseable (model, text, ast) triple; retries until the text parses."""
    model = random_model(rng)
    while True:
        text = random_requirement(rng, model)
        try:
            return model, text, parse_requirement(RequirementDoc(id="R", text=text))
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

        def template(slots: list[SlotPattern]) -> ClauseTemplate:
            items: list = []
            for j, slot in enumerate(slots):
                if j:
                    items.append(Literal(rng.choice(LITERAL_POOL)))
                if rng.random() < 0.3:
                    items.append(OptionalLiteral(tuple(sorted({rng.choice(["to", "into", "from"])}))))
                items.append(slot)
            if rng.random() < 0.3:
                items.append(Literal(rng.choice(LITERAL_POOL)))
            return ClauseTemplate(tuple(items))

        given = [template([SlotPattern(Metaclass.BLOCK, owner), SlotPattern(Metaclass.STATE, source)])]
        when = []
        when_slots = []
        if trigger is not None:
            when_slots.append(SlotPattern(Metaclass.SIGNAL, trigger))
            when.append(template(when_slots))
        then_slots = [SlotPattern(Metaclass.STATE, target)]
        for sig, blk in effects:
            then_slots = [SlotPattern(Metaclass.SIGNAL, sig), SlotPattern(Metaclass.BLOCK, blk)] + then_slots
        then = [template(then_slots)]
        fragment = MetaFragment(
            id=f"F{i + 1}",
            owner_role=owner,
            source_role=source,
            target_role=target,
            trigger_role=trigger,
            effect_specs=tuple(effects),
        )
        fragments.append(fragment)
        metareqs.append(
            MetaReq(
                id=f"MR{i + 1}",
                given=tuple(given),
                when=tuple(when),
                then=tuple(then),
                fragment=fragment,
            )
        )
    return KnowledgeBase(metareqs=tuple(metareqs), fragments=tuple(fragments))


def random_multi_kb(rng: random.Random) -> KnowledgeBase:
    """Random knowledge base whose rules have two or three templates per
    section (the When section may be empty), so a section's clauses can be
    grouped in several ways and groupings share their first groups."""
    metareqs = []
    fragments = []
    for i in range(rng.randint(1, 2)):
        roles: dict[Metaclass, list[str]] = {m: [] for m in Metaclass}

        def template(metaclasses: list[Metaclass]) -> ClauseTemplate:
            items: list = []
            for j, metaclass in enumerate(metaclasses):
                if j or rng.random() < 0.4:
                    items.append(Literal(rng.choice(LITERAL_POOL)))
                if rng.random() < 0.3:
                    items.append(OptionalLiteral(("to",)))
                role = f"{metaclass.value.lower()}{sum(map(len, roles.values())) + 1}"
                roles[metaclass].append(role)
                items.append(SlotPattern(metaclass, role))
            return ClauseTemplate(tuple(items))

        def section(first: list[Metaclass]) -> tuple[ClauseTemplate, ...]:
            more = [rng.sample(list(Metaclass), rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
            return tuple(template(slots) for slots in [first] + more)

        given = section([Metaclass.BLOCK, Metaclass.STATE])
        owner, source = roles[Metaclass.BLOCK][0], roles[Metaclass.STATE][0]
        when = section([Metaclass.SIGNAL]) if rng.random() < 0.6 else ()
        then = section([Metaclass.STATE])
        trigger = roles[Metaclass.SIGNAL][0] if when else None
        fragment = MetaFragment(f"F{i + 1}", owner, source, roles[Metaclass.STATE][-1], trigger)
        fragments.append(fragment)
        metareqs.append(MetaReq(f"MR{i + 1}", given, when, then, fragment))
    return KnowledgeBase(metareqs=tuple(metareqs), fragments=tuple(fragments))


_KB_TEMPLATE_LINE = re.compile(r'^(\s*(?:given|when|then):\s*")(.*)"\s*$', re.M)
_KB_TEMPLATE_ITEM = re.compile(r"<<[^>]*>>|\([^()]*\)\?|\S+")
ARTICLE_SPELLINGS = ["a", "an", "the", "A", "An", "The", "THE", "AN", "tHe"]


def with_articles(rng: random.Random, kb_text: str) -> str:
    """``kb_text`` with article words spelled out in its templates: bare
    articles and article-only optional groups between items, and article
    words inside the optional groups it already has."""

    def article_group() -> str:
        return "(" + "|".join(rng.sample(ARTICLE_SPELLINGS, rng.randint(1, 3))) + ")?"

    def spell_out(m: re.Match) -> str:
        out: list[str] = []
        for item in _KB_TEMPLATE_ITEM.findall(m.group(2)) + [None]:
            while rng.random() < 0.3:
                out.append(rng.choice(ARTICLE_SPELLINGS) if rng.random() < 0.5 else article_group())
            if item is None:
                break
            if item.startswith("(") and rng.random() < 0.7:
                words = item[1:-2].split("|")
                words.insert(rng.randint(0, len(words)), rng.choice(ARTICLE_SPELLINGS))
                item = "(" + "|".join(words) + ")?"
            out.append(item)
        return f'{m.group(1)}{" ".join(out)}"'

    return _KB_TEMPLATE_LINE.sub(spell_out, kb_text)


def rendered_requirement(rng: random.Random, kb: KnowledgeBase, model: SystemModel, disjunctive: float = 0.0) -> str:
    """Requirement text rendered from one rule's templates (each slot named
    by a model element of its metaclass), with one word mutated in a third
    of the cases. Block names with "and" add clauses the matcher re-merges.
    A ``disjunctive`` share of the When sections join their clauses by "or":
    a rule's several templates, or a rule's one template followed by one or
    two alternatives, each a whole clause, an elliptical mention of its last
    slot, or an elliptical mention that names nothing."""
    metareq = rng.choice(kb.metareqs)
    owner = metareq.fragment.owner_role
    machines = [b for b in model.blocks if b.state_machine]
    states = machines[0].state_machine.states
    words_by_metaclass = {
        Metaclass.BLOCK: lambda: _render_block(rng, rng.choice(model.blocks).name),
        Metaclass.SIGNAL: lambda: _render_signal(
            rng, rng.choice(model.signals).name if model.signals else "Ghost"
        ),
        Metaclass.STATE: lambda: rng.choice(states),
    }

    def render(template: ClauseTemplate) -> str:
        out = []
        for item in template.items:
            if isinstance(item, Literal):
                out.append(item.word)
            elif isinstance(item, OptionalLiteral):
                out.extend(rng.sample(item.words, rng.randint(0, 1)))
            elif item.role == owner:
                out.append(_render_block(rng, rng.choice(machines).name))
            else:
                out.append(words_by_metaclass[item.metaclass]())
        return " ".join(out)

    def alternative(template: ClauseTemplate) -> str:
        last = [item for item in template.items if isinstance(item, SlotPattern)][-1]
        return rng.choice([lambda: render(template), words_by_metaclass[last.metaclass], lambda: "Nothing"])()

    def render_section(keyword: str, templates: tuple[ClauseTemplate, ...]) -> str:
        clauses = [render(t) for t in templates]
        if keyword == "When" and disjunctive and rng.random() < disjunctive:
            if len(templates) == 1:
                clauses += [alternative(templates[0]) for _ in range(rng.randint(1, 2))]
            if "and" not in " ".join(clauses).lower().split():  # "or" and "and" do not mix
                return f"{keyword} " + " or ".join(clauses)
        return f"{keyword} " + " and ".join(clauses[: len(templates)])

    sections = [("Given", metareq.given), ("When", metareq.when), ("Then", metareq.then)]
    text = ", ".join(render_section(keyword, templates) for keyword, templates in sections if templates)
    words = text.split()
    if rng.random() < 1 / 3:
        at = rng.randrange(1, len(words))
        if words[at].lower() not in {"given", "when", "then", "and"}:
            words[at] = rng.choice(LITERAL_POOL + STATE_POOL + SIGNAL_POOL)
    return " ".join(words) + "."


SECTION_BLOCK_POOL = ["Brake", "Gate", "Pump", "Pump And Gate", "Gate And Brake", "Valve"]
SECTION_THEN_POOL = [
    "<<Block as {r}>>",
    "stops <<Block as {r}>>",
    "<<Block as {r}>> stops",
    "goes in <<State as {r}>>",
    "sends <<Signal as {r}>>",
]


def random_section_case(rng: random.Random) -> tuple[SystemModel, KnowledgeBase, str]:
    """A (model, rule, text) case for section grouping: one to six Then
    templates, block names holding "And" (so a name splits into clauses the
    matcher re-merges), and in half the cases a Given of two adjacent block
    slots, which reads two ways when a name's words can go to either slot."""
    names = rng.sample(SECTION_BLOCK_POOL, rng.randint(2, 5))
    doc = {
        "version": "1",
        "name": "Sections",
        "signals": [{"name": "Halt"}, {"name": "Stop"}],
        "blocks": [
            {"name": name, "state_machine": {"states": ["s1", "s2"], "transitions": []}}
            if i == 0 or rng.random() < 0.5 else {"name": name}
            for i, name in enumerate(names)
        ],
    }
    model = load_model(json.dumps(doc))
    two_way = rng.random() < 0.5
    given = "<<Block as owner>> <<Block as other>> in <<State as src>>" if two_way else (
        "<<Block as owner>> in <<State as src>>"
    )
    then = [rng.choice(SECTION_THEN_POOL).format(r=f"t{i}") for i in range(rng.randint(1, 6))]
    kb = parse_kb(
        f'metareq M -> F:\n  given: "{given}"\n'
        + "".join(f'  then:  "{template}"\n' for template in then)
        + "fragment F:\n  owner: owner  source: src  target: src\n"
    )
    fillers = {
        "Block": lambda: _render_block(rng, rng.choice(names)),
        "State": lambda: rng.choice(["s1", "s2"]),
        "Signal": lambda: rng.choice(["Halt", "Stop", "Ghost"]),
    }
    slot = re.compile(r"<<(\w+) as \w+>>")
    clauses = [slot.sub(lambda m: fillers[m.group(1)](), template) for template in then]
    for _ in range(rng.choice([0, 0, 1, 2])):  # extra clauses a slot may absorb
        clauses.insert(rng.randint(0, len(clauses)), fillers["Block"]())
    words = " ".join(_render_block(rng, rng.choice(names)) for _ in range(1 + two_way))
    text = f"Given {words} in {rng.choice(['s1', 's2'])}, Then " + " and ".join(clauses) + "."
    return model, kb, text


def sized_rule(items: int, templates: int) -> str:
    """A rule whose first Then template has ``items`` items and whose Then
    section has ``templates`` templates."""
    then = ["goes in <<State as f>>" + " go" * (items - 3)]
    then += [f"<<Block as b{i}>> stops" for i in range(1, templates)]
    return (
        'metareq M -> F:\n  given: "<<Block as b>> in <<State as s>>"\n'
        + "".join(f'  then:  "{template}"\n' for template in then)
        + "fragment F:\n  owner: b   source: s   target: f\n"
    )


def reference_lookup_elements(
    model: SystemModel, phrase, metaclass: Metaclass, scope: str | None = None
) -> list[str]:
    """``lookup_elements`` as a linear scan that normalizes every element
    name per suffix: the reference the indexed lookup must agree with. A
    name found twice (a state of two machines) is listed once."""
    words = core_words(split_words(phrase))
    for k in range(len(words)):
        found = _reference_lookup_exact(model, words[k:], metaclass, scope)
        if found:
            return sorted(set(found))
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
            if normalize_phrase(state) == form:
                found.append(state)
    return found


def reference_match_section(
    metareq_id, section, clauses, templates, mentions, owner_role, ctxs
) -> list | matcher.MetaReqDiagnostic:
    """A section's search as a depth-first recursion over groupings of its
    clauses into templates: each group is matched once per context that
    reaches it, and the results of every grouping are de-duplicated at the
    end. Threaded through a requirement's sections, it must give
    ``match_requirement``'s outcome kind, its binding sets as a multiset
    (phrases included), and its diagnostic where a rule expects more or
    fewer clauses."""
    if not templates:
        if clauses:
            return matcher.MetaReqDiagnostic(metareq_id, f"rule expects no {section} clause", section)
        return list(ctxs)
    n, last = len(clauses), len(templates) - 1
    if n < len(templates):
        return matcher.MetaReqDiagnostic(
            metareq_id,
            f"rule expects {len(templates)} {section} clause(s), requirement has {n}",
            section,
        )
    results: list = []
    best = None  # template index, deepest failure there

    def extend(ti, start, branch):
        nonlocal best
        for end in range(start + 1 if ti < last else n, n - last + ti + 1):
            group = matcher.merge_clauses(clauses[start:end])
            extended = []
            for ctx in branch:
                cm = matcher.match_clause(group, templates[ti], mentions, owner_role=owner_role,
                                          scope={b.role: b.element for b in ctx}.get(owner_role))
                extended.extend(ctx + mp for mp in cm.maps)
                failure = cm.failure
                if failure is not None and (best is None or (ti, *failure[:2]) > (best[0], *best[1][:2])):
                    best = (ti, failure)
            if ti == last:
                results.extend(extended)
            elif extended:
                extend(ti + 1, end, extended)

    extend(0, 0, ctxs)
    if results:
        return matcher._distinct(results)
    ti, failure = best
    return matcher.MetaReqDiagnostic(metareq_id, failure.detail, section, ti, failure.role, failure.phrase)


def reference_section_failure(
    metareq_id, section, clauses, templates, model, owner_role, ctxs
) -> matcher.MetaReqDiagnostic:
    """Why a section that has a clause per template fits no context, found
    without ``match_clause``: a breadth-first walk over (joined item, section
    word, owner scope) states from every context, the section's words read
    against its templates joined by ``and``. The failing state furthest in,
    by (item, word), gives the diagnostic, at the template it falls in. A
    keyword left in the words ends a clause in its text, and a boundary met
    at the end of the words reports that the section ended."""
    words, items, boundaries = list(clauses[0].words), [], set()
    for clause in clauses[1:]:
        words += [clause.lead, *clause.words]
    for template in templates:
        if items:
            boundaries.add(len(items))
            items.append(Literal("and"))
        items.extend(template.items)

    def skip_articles(wi):
        while wi < len(words) and words[wi].lower in ARTICLES:
            wi += 1
        return wi

    def owner_of(ctx):
        return next((b.element for b in ctx if b.role == owner_role), None)

    frontier = {(0, skip_articles(0), owner_of(ctx)) for ctx in ctxs}
    seen, failures = set(), []
    while frontier:
        seen |= frontier
        reached = set()
        for ii, wi, scope in frontier:
            if ii == len(items):
                if wi < len(words):
                    failures.append((ii, wi))
                continue
            item = items[ii]
            has_word = wi < len(words)
            if isinstance(item, Literal):
                if has_word and words[wi].lower == item.word:
                    reached.add((ii + 1, skip_articles(wi + 1), scope))
                else:
                    failures.append((ii, wi))
            elif isinstance(item, OptionalLiteral):
                reached.add((ii + 1, wi, scope))
                if has_word and words[wi].lower in item.words:
                    reached.add((ii + 1, skip_articles(wi + 1), scope))
            else:
                resolved = False
                for stop in range(wi + 1, min(wi + _oracle_span_bound(model, item.metaclass), len(words)) + 1):
                    if words[stop - 1].lower in ARTICLES:
                        continue
                    for element in reference_lookup_elements(
                        model, [t.text for t in words[wi:stop]], item.metaclass, scope
                    ):
                        resolved = True
                        reached.add((ii + 1, skip_articles(stop), element if item.role == owner_role else scope))
                if not resolved:
                    failures.append((ii, wi))
        frontier = reached - seen

    ii, wi = max(failures)
    clause_end = next((i for i in range(wi, len(words)) if words[i].lower in KEYWORDS), len(words))
    role = phrase = None
    if ii == len(items):
        reason = f"trailing words {' '.join(t.text for t in words[wi:])!r} fit no template item"
    elif ii in boundaries and wi < len(words):
        reason = f"trailing words {' '.join(t.text for t in words[wi:clause_end])!r} fit no template item"
    elif ii in boundaries:
        reason = "section ended before the next template"
    elif isinstance(items[ii], Literal):
        got = words[wi].text if wi < clause_end else "end of clause"
        reason = f"expected literal {items[ii].word!r}, got {got!r}"
    elif wi == clause_end:
        role, reason = items[ii].role, f"clause ended before slot {items[ii].role!r}"
    else:
        last = min(wi + _oracle_span_bound(model, items[ii].metaclass), clause_end)
        while words[last - 1].lower in ARTICLES:
            last -= 1
        role, reason = items[ii].role, f"no {items[ii].metaclass.value} matches"
        phrase = " ".join(t.text for t in words[wi:last])
    template_index = sum(b < ii for b in boundaries)
    return matcher.MetaReqDiagnostic(metareq_id, reason, section, template_index, role, phrase)


def reference_match_requirement(ast, kb: KnowledgeBase, model) -> MatchResult:
    """``match_requirement`` as a loop that searches every rule in priority
    order, and each disjunctive When alternative first as a complete clause
    and only then as an elliptical one. The matcher, which skips what cannot
    fit, must give the same match (binding sets in order, phrases included),
    the same ``AmbiguousMatch`` binding sets and the same ``NoMatch``
    diagnostics."""
    mentions = model if isinstance(model, matcher.Mentions) else matcher.Mentions(model)
    diagnostics = []
    for metareq in kb.metareqs:
        outcome = _reference_try_metareq(ast, metareq, mentions)
        if isinstance(outcome, MatchResult):
            return outcome
        diagnostics.append(outcome)
    raise NoMatch(ast.id, tuple(diagnostics))


def _reference_try_metareq(ast, metareq: MetaReq, mentions) -> MatchResult | matcher.MetaReqDiagnostic:
    owner_role = metareq.fragment.owner_role
    disjunctive = len(ast.when) > 1 and ast.when[1].lead.lower == "or"
    alternatives = [(c._replace(lead=ast.when[0].lead),) for c in ast.when] if disjunctive else [ast.when]
    sets = []
    for i, when_clauses in enumerate(alternatives):
        sections = zip(SECTIONS, (ast.given, when_clauses, ast.then), (metareq.given, metareq.when, metareq.then))
        candidates = _reference_match_joined(metareq.id, list(sections), mentions, owner_role, disjunctive)
        if isinstance(candidates, matcher.MetaReqDiagnostic):
            if candidates.section != "when" or not sets:
                return candidates
            cm = matcher.match_clause(when_clauses[0], matcher._tail_template(metareq.when[0]), mentions,
                                      owner_role=owner_role, scope={b.role: b.element for b in sets[0]}.get(owner_role))
            if not cm.maps:
                failure = cm.failure
                detail = f"When alternative {i + 1}: {failure.detail}"
                return matcher.MetaReqDiagnostic(metareq.id, detail, "when", 0, failure.role, failure.phrase)
            candidates = [tuple({b.role: b for b in mp}.get(b.role, b) for b in sets[0]) for mp in cm.maps]
        if len(candidates) > 1:
            raise AmbiguousMatch(ast.id, metareq.id, tuple(candidates))
        sets.append(candidates[0])
    return MatchResult(ast.id, metareq.id, tuple(sets))


def _reference_match_joined(metareq_id, sections, mentions, owner_role, disjunctive=False):
    for n, (section, clauses, templates) in enumerate(sections):
        if section == "when" and disjunctive and len(templates) != 1:
            reason = "a disjunctive When requires a rule with exactly one When template"
        elif clauses and not templates:
            reason = f"rule expects no {section} clause"
        elif len(clauses) < len(templates):
            reason = f"rule expects {len(templates)} {section} clause(s), requirement has {len(clauses)}"
        else:
            continue
        found = _reference_match_joined(metareq_id, sections[:n], mentions, owner_role) if n else ()
        if isinstance(found, matcher.MetaReqDiagnostic):
            return found
        return matcher.MetaReqDiagnostic(metareq_id, reason, section)
    sections = [s for s in sections if s[2]]
    joined = join_templates((keyword, templates) for keyword, _, templates in sections)
    clause = matcher.merge_clauses([c for _, clauses, _ in sections for c in clauses])
    cm = matcher.match_clause(clause, joined, mentions, owner_role=owner_role)
    if cm.maps:
        return cm.maps
    failure, section, ti = cm.failure, 0, 0
    for item in joined.items[: failure.item_index]:
        if item in HEADS:
            section, ti = section + 1, 0
        elif item == BOUNDARY:
            ti += 1
    return matcher.MetaReqDiagnostic(metareq_id, failure.detail, sections[section][0], ti, failure.role, failure.phrase)


class _SlotMark(NamedTuple):
    """A slot as subsumption sees it: its metaclass, and whether it holds
    its rule's owner role."""

    metaclass: Metaclass
    owner: bool


def reference_template_subsumes(
    ta: ClauseTemplate, tb: ClauseTemplate, owner_a: str | None = None, owner_b: str | None = None
) -> bool:
    """``kb._template_subsumes`` as a depth-first recursion that tries both
    branches of every optional literal: exponential in optional literals,
    so only for small templates. Each slot is first replaced by its mark,
    so two slots fit when their marks are equal."""

    def marked(items, owner):
        return [_SlotMark(i.metaclass, i.role == owner) if isinstance(i, SlotPattern) else i for i in items]

    return _reference_subsumes_from(marked(ta.items, owner_a), marked(tb.items, owner_b), 0, 0)


def _reference_subsumes_from(a_items, b_items, ai: int, bi: int) -> bool:
    if ai == len(a_items):
        return bi == len(b_items)
    a = a_items[ai]
    b = b_items[bi] if bi < len(b_items) else None
    if isinstance(a, OptionalLiteral):
        if _reference_subsumes_from(a_items, b_items, ai + 1, bi):
            return True
        if isinstance(b, Literal) and b.word in a.words:
            return _reference_subsumes_from(a_items, b_items, ai + 1, bi + 1)
        if isinstance(b, OptionalLiteral) and set(b.words) <= set(a.words):
            return _reference_subsumes_from(a_items, b_items, ai + 1, bi + 1)
        return False
    if b is None:
        return False
    if isinstance(a, Literal):
        fits = isinstance(b, Literal) and a.word == b.word
    else:
        fits = isinstance(b, _SlotMark) and a == b
    return fits and _reference_subsumes_from(a_items, b_items, ai + 1, bi + 1)


def reference_transition_identity(
    owner: str,
    source: str,
    target: str,
    trigger: str | None,
    effects: tuple[SendEffect, ...],
) -> str:
    """``transition_identity`` with its payload built by ``json.dumps``: the
    reference the directly written payload must agree with byte for byte."""
    payload = json.dumps(
        {
            "owner": owner,
            "source": source,
            "target": target,
            "trigger": trigger,
            "effects": [
                [e.signal, e.target_block]
                for e in sorted(effects, key=lambda e: (e.signal, e.target_block))
            ],
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def reference_model_doc(model: SystemModel) -> dict:
    """The document ``save_model`` writes, built as plain dicts and lists:
    ``json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\\n"``
    is the reference for its bytes."""
    blocks = []
    for b in sorted(model.blocks, key=lambda b: b.name):
        entry: dict = {"name": b.name}
        if b.parts:
            entry["parts"] = sorted(b.parts)
        if b.receivable_signals is not None:
            entry["receivable_signals"] = sorted(b.receivable_signals)
        if b.state_machine is not None:
            m = b.state_machine
            machine: dict = {
                "states": sorted(m.states),
                "transitions": [_reference_transition_doc(t) for t in sorted(m.transitions, key=lambda t: t.id)],
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
    return {"version": "1", "name": model.name, "signals": signals, "blocks": blocks}


def _reference_transition_doc(t: Transition) -> dict:
    doc: dict = {
        "id": t.id,
        "source": t.source,
        "target": t.target,
        "effects": [
            {"signal": e.signal, "target_block": e.target_block}
            for e in sorted(t.effects, key=lambda e: (e.signal, e.target_block))
        ],
        "provenance": sorted(set(t.provenance)),
    }
    if t.trigger is not None:
        doc["trigger"] = t.trigger
    if t.guard is not None:
        doc["guard"] = t.guard
    return doc


def reference_parse_transition(obj, path: str) -> tuple:
    """A transition entry checked field by field, as the loader always has:
    the reference for the order, text and path of its SchemaErrors. Returns
    (id or "", source, target, trigger, guard, effects, sorted provenance).
    A container that is not a list fails here with a TypeError, or, for a
    string, on its first character."""
    _reference_expect(obj, dict, path, "transition")
    _reference_unknown_keys(obj, {"id", "source", "target", "trigger", "guard", "effects", "provenance"}, path)
    for key in ("source", "target"):
        if key not in obj:
            raise SchemaError(f"transition requires {key!r}", path)
    effects = tuple(
        _reference_parse_effect(e, f"{path}.effects[{i}]") for i, e in enumerate(obj.get("effects", []))
    )
    fields = {}
    for key in ("trigger", "guard", "id", "source", "target"):
        value = obj.get(key)
        if not isinstance(value, str) and (key in ("source", "target") or value is not None):
            raise SchemaError(f"{key} must be a str", f"{path}.{key}")
        fields[key] = value
    provenance = obj.get("provenance", [])
    _reference_expect(provenance, list, f"{path}.provenance", "provenance")
    for i, item in enumerate(provenance):
        _reference_expect(item, str, f"{path}.provenance[{i}]", "entry")
    return (
        fields["id"] or "", fields["source"], fields["target"], fields["trigger"], fields["guard"],
        tuple(sorted(effects, key=lambda e: (e.signal, e.target_block))), tuple(sorted(set(provenance))),
    )


def _reference_parse_effect(obj, path: str) -> SendEffect:
    _reference_expect(obj, dict, path, "effect")
    _reference_unknown_keys(obj, {"signal", "target_block"}, path)
    if "signal" not in obj or "target_block" not in obj:
        raise SchemaError("effect requires 'signal' and 'target_block'", path)
    return SendEffect(
        _reference_expect(obj["signal"], str, f"{path}.signal", "signal"),
        _reference_expect(obj["target_block"], str, f"{path}.target_block", "target_block"),
    )


def _reference_expect(value, kind: type, path: str, what: str):
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise SchemaError(f"{what} must be a {kind.__name__}", path)
    return value


def _reference_unknown_keys(obj: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise SchemaError(f"unknown key {unknown[0]!r}", path)
