"""Reference oracle: an independent, brute-force reading of the matching rules.

``oracle_match`` re-derives the semantics of
:func:`modcomplete.matcher.match_requirement` with a flat generate-and-filter
search: it enumerates every clause grouping and every span placement, then
verifies the gaps between spans, with no pruning. It shares no search code
with ``match_clause`` or ``match_requirement`` and resolves spans with its own
linear scan of the model, so the test suite can cross-check the production
matcher against it; the two must agree on result or error class.

No ``complete``, ``check`` or ``kb-lint`` run uses it. The module is imported
only on first use, when ``modcomplete.oracle_match`` is read. It takes only
records from ``matcher``: the span bounds, the clause rejoining, the
elliptical tail and the de-duplication below are its own, so a bug in the
matcher's versions is not shared.
"""

import itertools
from string import ascii_lowercase, ascii_uppercase, digits
from typing import Sequence

from .gherkin import Clause, RequirementAST, Token
from .kb import ClauseTemplate, KnowledgeBase, Literal, OptionalLiteral, SlotPattern
from .matcher import AmbiguousMatch, Binding, MatchResult, NoMatch
from .model import Metaclass, SystemModel
from .normalize import ARTICLES, core_words, normalize_phrase, normalize_signal_phrase

__all__ = ["oracle_match"]

BindingSet = tuple[Binding, ...]


def _oracle_join(clauses: Sequence[Clause]) -> Clause:
    """Consecutive clauses read as the one clause they were split from: the
    connective that opened each later clause is one of its words again."""
    words: list[Token] = []
    for i, clause in enumerate(clauses):
        if i:
            words.append(clause.lead)
        words.extend(clause.words)
    return Clause(tuple(words), clauses[0].lead)


def _oracle_tail(template: ClauseTemplate) -> ClauseTemplate:
    """An elliptical alternative's template: the last slot and what follows it."""
    last = max(i for i, item in enumerate(template.items) if isinstance(item, SlotPattern))
    return ClauseTemplate(template.items[last:])


def _oracle_unique(candidates: Sequence[BindingSet]) -> list[BindingSet]:
    """One candidate per sequence of (role, element) pairs, the first one met."""
    first: dict[tuple, BindingSet] = {}
    for candidate in candidates:
        first.setdefault(tuple((b.role, b.element) for b in candidate), candidate)
    return list(first.values())


def _oracle_span_bound(model: SystemModel, metaclass: Metaclass) -> int:
    """The most raw words a span of ``metaclass`` may cover: the most words
    in a name of that kind (its whitespace words, plus one per capital right
    after a lower-case letter or a digit), one more for a signal's trailing
    filler noun, and never less than 4."""
    if metaclass is Metaclass.BLOCK:
        names = [b.name for b in model.blocks]
    elif metaclass is Metaclass.SIGNAL:
        names = [s.name for s in model.signals]
    else:
        names = [st for b in model.blocks if b.state_machine is not None for st in b.state_machine.states]
    return max([4] + [
        len(name.split()) + (metaclass is Metaclass.SIGNAL)
        + sum(a in ascii_lowercase + digits and b in ascii_uppercase for a, b in zip(name, name[1:]))
        for name in names
    ])


def _span_phrase(span: Sequence[Token]) -> str:
    """Original spelling of an oracle span, trimmed of edge articles for
    display (``match_clause``'s spans never start or end on one)."""
    start, end = 0, len(span)
    while start < end and span[start].lower in ARTICLES:
        start += 1
    while end > start and span[end - 1].lower in ARTICLES:
        end -= 1
    return " ".join(t.text for t in span[start:end])


def _oracle_resolve(
    model: SystemModel, span: Sequence[Token], metaclass: Metaclass, scope: str | None
) -> list[str]:
    words = core_words([t.text for t in span])
    for k in range(len(words)):
        suffix = words[k:]
        joined = "".join(suffix)
        if not joined:
            continue
        if metaclass is Metaclass.BLOCK:
            found = [b.name for b in model.blocks if normalize_phrase(b.name) == joined]
        elif metaclass is Metaclass.SIGNAL:
            variants = normalize_signal_phrase(suffix)
            found = [s.name for s in model.signals if normalize_phrase(s.name) in variants]
        else:
            found = []
            for block in model.blocks:
                if scope is not None and block.name != scope:
                    continue
                if block.state_machine is None:
                    continue
                found.extend(st for st in block.state_machine.states if normalize_phrase(st) == joined)
        if found:
            return sorted(set(found))
    return []


def _oracle_gap_ok(gap: Sequence[Token], items: Sequence[Literal | OptionalLiteral]) -> bool:
    def rec(wi, ii):
        if wi < len(gap) and gap[wi].lower in ARTICLES and rec(wi + 1, ii):
            return True
        if ii == len(items):
            return wi == len(gap)
        item = items[ii]
        if isinstance(item, Literal):
            return wi < len(gap) and gap[wi].lower == item.word and rec(wi + 1, ii + 1)
        if wi < len(gap) and gap[wi].lower in item.words and rec(wi + 1, ii + 1):
            return True
        return rec(wi, ii + 1)

    return rec(0, 0)


def _oracle_clause_maps(
    clause: Clause,
    template: ClauseTemplate,
    model: SystemModel,
    owner_role: str | None,
    bound: BindingSet,
) -> list[BindingSet]:
    words = clause.words
    items = template.items
    slot_positions = [i for i, item in enumerate(items) if isinstance(item, SlotPattern)]
    bounds = [_oracle_span_bound(model, items[i].metaclass) for i in slot_positions]
    n = len(words)
    out: list[BindingSet] = []

    def all_span_tuples(index, start, acc):
        if index == len(slot_positions):
            yield list(acc)
            return
        for a in range(start, n):
            for b in range(a + 1, min(a + bounds[index], n) + 1):
                acc.append((a, b))
                yield from all_span_tuples(index + 1, b, acc)
                acc.pop()

    for spans in all_span_tuples(0, 0, []):
        # Verify gaps between consecutive spans against the literal items.
        boundaries = [0] + [x for pair in spans for x in pair] + [n]
        item_cursor = 0
        ok = True
        for si, slot_item_index in enumerate(slot_positions):
            gap_items = [
                it
                for it in items[item_cursor:slot_item_index]
                if isinstance(it, (Literal, OptionalLiteral))
            ]
            gap_words = words[boundaries[2 * si] : spans[si][0]]
            if not _oracle_gap_ok(gap_words, gap_items):
                ok = False
                break
            item_cursor = slot_item_index + 1
        if ok:
            tail_items = [
                it for it in items[item_cursor:] if isinstance(it, (Literal, OptionalLiteral))
            ]
            if not _oracle_gap_ok(words[spans[-1][1] :] if spans else words, tail_items):
                ok = False
        if not ok:
            continue
        # Resolve spans in slot order, threading owner scope.
        partial_lists: list[BindingSet] = [()]
        for si, slot_item_index in enumerate(slot_positions):
            slot = items[slot_item_index]
            assert isinstance(slot, SlotPattern)
            a, b = spans[si]
            span = words[a:b]
            phrase = _span_phrase(span)
            next_lists: list[BindingSet] = []
            for partial in partial_lists:
                scope = None
                if slot.metaclass is Metaclass.STATE and owner_role is not None:
                    for binding in partial + bound:
                        if binding.role == owner_role:
                            scope = binding.element
                            break
                for element in _oracle_resolve(model, span, slot.metaclass, scope):
                    next_lists.append(
                        partial + (Binding(slot.role, slot.metaclass, phrase, element),)
                    )
            partial_lists = next_lists
            if not partial_lists:
                break
        out.extend(partial_lists)
    return _oracle_unique(out)


def _oracle_section(
    clauses: Sequence[Clause],
    templates: Sequence[ClauseTemplate],
    model: SystemModel,
    owner_role: str | None,
    ctxs: list[BindingSet],
) -> list[BindingSet]:
    if not templates:
        return list(ctxs) if not clauses else []
    if len(clauses) < len(templates):
        return []
    results: list[BindingSet] = []
    m, p = len(clauses), len(templates)
    for cut in itertools.combinations(range(1, m), p - 1):
        bounds = (0,) + cut + (m,)
        groups = [_oracle_join(clauses[bounds[i] : bounds[i + 1]]) for i in range(p)]
        branch = list(ctxs)
        for group, template in zip(groups, templates):
            branch = [
                ctx + mp
                for ctx in branch
                for mp in _oracle_clause_maps(group, template, model, owner_role, ctx)
            ]
            if not branch:
                break
        results.extend(branch)
    return _oracle_unique(results)


def oracle_match(ast: RequirementAST, kb: KnowledgeBase, model: SystemModel) -> MatchResult:
    """Reference matcher: exhaustive, unpruned; agrees with match_requirement."""
    for metareq in kb.metareqs:
        owner_role = metareq.fragment.owner_role
        given_ctxs = _oracle_section(ast.given, metareq.given, model, owner_role, [()])
        if not given_ctxs:
            continue
        if any(clause.lead.lower == "or" for clause in ast.when):
            if len(metareq.when) != 1:
                continue
            template = metareq.when[0]
            sets: list[BindingSet] = []
            first_set: BindingSet | None = None
            feasible = True
            for i, alternative in enumerate(ast.when):
                when_ctxs = _oracle_section(
                    [alternative], [template], model, owner_role, given_ctxs
                )
                if when_ctxs:
                    final = _oracle_section(ast.then, metareq.then, model, owner_role, when_ctxs)
                    if not final:
                        feasible = False
                        break
                    if len(final) > 1:
                        raise AmbiguousMatch(ast.id, metareq.id, tuple(final))
                    sets.append(final[0])
                    if first_set is None:
                        first_set = final[0]
                    continue
                if i == 0 or first_set is None:
                    feasible = False
                    break
                tail = _oracle_tail(template)
                tail_maps = _oracle_clause_maps(alternative, tail, model, owner_role, first_set)
                if not tail_maps:
                    feasible = False
                    break
                variants = _oracle_unique([
                    tuple({b.role: b for b in mp}.get(b.role, b) for b in first_set)
                    for mp in tail_maps
                ])
                if len(variants) > 1:
                    raise AmbiguousMatch(ast.id, metareq.id, tuple(variants))
                sets.append(variants[0])
            if not feasible:
                continue
            return MatchResult(ast.id, metareq.id, tuple(sets))
        when_ctxs = _oracle_section(ast.when, metareq.when, model, owner_role, given_ctxs)
        if not when_ctxs:
            continue
        final = _oracle_section(ast.then, metareq.then, model, owner_role, when_ctxs)
        if not final:
            continue
        if len(final) > 1:
            raise AmbiguousMatch(ast.id, metareq.id, tuple(final))
        return MatchResult(ast.id, metareq.id, (final[0],))
    raise NoMatch(ast.id, ())
