"""Template matching: decide which rule a requirement fits and bind slots.

A requirement fits a MetaReq when its clause lists align with the rule's
clause templates and every slot binds to exactly one model element. Matching
is deterministic and rigid (no statistical language processing):

* literals match case-insensitively; article tokens are skippable anywhere;
* a slot consumes a span of one to four words, resolved through
  :func:`modcomplete.model.lookup_elements`;
* adjacent parsed clauses may be re-merged (undoing an ``and`` split) when a
  single template spans them, which is how ``and`` inside a noun phrase is
  told apart from ``and`` between clauses;
* rules are tried in priority order; the first one with a complete binding
  wins, and a complete-but-non-unique binding is an error, never a silent
  pick;
* a disjunctive When fans out into one binding set per alternative. An
  alternative is first read as a complete clause; only if that fails it is
  read as an elliptical mention of the template's final slot ("... receives
  Halt or Reset").

``oracle_match`` at the bottom is a brute-force reference implementation
used to cross-check ``match_requirement``; it enumerates every alignment and
every span placement with no pruning and must agree on result or error
class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ModcompleteError
from .gherkin import Clause, RequirementAST, Token, TokenKind, WhenMode
from .kb import ClauseTemplate, KnowledgeBase, Literal, MetaReq, OptionalLiteral, SlotPattern
from .model import Metaclass, SystemModel, lookup_elements
from .normalize import (
    ARTICLES,
    core_words,
    normalize_phrase,
    normalize_signal_phrase,
)

__all__ = [
    "Binding",
    "MatchResult",
    "SpanAmbiguity",
    "ClauseMatches",
    "MetaReqDiagnostic",
    "MatchError",
    "NoMatch",
    "AmbiguousMatch",
    "normalize_phrase",
    "normalize_signal_phrase",
    "match_clause",
    "match_requirement",
    "oracle_match",
]

SPAN_LIMIT = 4  # raw words per slot span


@dataclass(frozen=True)
class Binding:
    """One slot filled: ``phrase`` (original spelling) names ``element``."""

    role: str
    metaclass: Metaclass
    phrase: str
    element: str


BindingSet = tuple[Binding, ...]


@dataclass(frozen=True)
class MatchResult:
    """Winning rule and its bindings.

    ``binding_sets`` holds one complete set per disjunctive When alternative
    (exactly one set for ordinary requirements); every set covers every slot
    of the rule exactly once, in slot declaration order.
    """

    requirement_id: str
    metareq_id: str
    binding_sets: tuple[BindingSet, ...]
    alternatives_consumed: int = 0

    @property
    def bindings(self) -> BindingSet:
        return self.binding_sets[0]


@dataclass(frozen=True)
class SpanAmbiguity:
    """A span resolved to more than one element (reported, never dropped)."""

    role: str
    metaclass: Metaclass
    phrase: str
    elements: tuple[str, ...]


@dataclass(frozen=True)
class ClauseFailure:
    """Deepest failure point while matching one clause against a template."""

    item_index: int
    word_index: int
    detail: str
    role: str | None = None
    phrase: str | None = None


@dataclass(frozen=True)
class ClauseMatches:
    """All binding maps for one (clause, template) pair plus diagnostics."""

    maps: tuple[BindingSet, ...]
    ambiguities: tuple[SpanAmbiguity, ...] = ()
    failure: ClauseFailure | None = None


@dataclass(frozen=True)
class MetaReqDiagnostic:
    """Why one rule did not fit, for NoMatch reports and --explain output."""

    metareq_id: str
    reason: str
    section: str | None = None
    template_index: int | None = None
    role: str | None = None
    phrase: str | None = None

    def render(self) -> str:
        where = ""
        if self.section is not None:
            where = f" at {self.section}"
            if self.template_index is not None:
                where += f"[{self.template_index}]"
        extra = ""
        if self.role is not None:
            extra += f" (slot {self.role}"
            if self.phrase is not None:
                extra += f", phrase {self.phrase!r}"
            extra += ")"
        elif self.phrase is not None:
            extra += f" (phrase {self.phrase!r})"
        return f"{self.metareq_id}{where}: {self.reason}{extra}"


class MatchError(ModcompleteError):
    pass


class NoMatch(MatchError):
    """No rule fits; carries one diagnostic per rule tried."""

    def __init__(self, requirement_id: str, diagnostics: tuple[MetaReqDiagnostic, ...]) -> None:
        lines = "; ".join(d.render() for d in diagnostics) or "knowledge base is empty"
        super().__init__(f"{requirement_id}: no rule fits ({lines})")
        self.requirement_id = requirement_id
        self.diagnostics = diagnostics


class AmbiguousMatch(MatchError):
    """The winning rule admits two distinct complete binding sets."""

    def __init__(
        self,
        requirement_id: str,
        metareq_id: str,
        binding_sets: tuple[BindingSet, ...],
        ambiguities: tuple[SpanAmbiguity, ...] = (),
    ) -> None:
        super().__init__(
            f"{requirement_id}: rule {metareq_id} fits in {len(binding_sets)} distinct ways"
        )
        self.requirement_id = requirement_id
        self.metareq_id = metareq_id
        self.binding_sets = binding_sets
        self.ambiguities = ambiguities


def _binding_key(bindings: Iterable[Binding]) -> tuple[tuple[str, str], ...]:
    return tuple((b.role, b.element) for b in bindings)


def _span_phrase(span: Sequence[Token]) -> str:
    """Original spelling of a span, trimmed of edge articles for display."""
    start, end = 0, len(span)
    while start < end and span[start].lower in ARTICLES:
        start += 1
    while end > start and span[end - 1].lower in ARTICLES:
        end -= 1
    return " ".join(t.text for t in span[start:end])


def match_clause(
    clause: Clause,
    template: ClauseTemplate,
    model: SystemModel,
    scope: str | None = None,
    *,
    owner_role: str | None = None,
    bound: BindingSet = (),
) -> ClauseMatches:
    """All slot-span assignments of ``clause`` against ``template``.

    Literals must match in order (case-insensitive, articles skippable);
    every slot span must resolve through ``lookup_elements``. A span
    resolving to several elements forks the binding map and is reported as a
    :class:`SpanAmbiguity`. State slots are scoped to the machine of the
    bound ``owner_role`` block when available, then to ``scope``, else
    searched globally.
    """
    words = clause.words
    items = template.items
    bound_by_role = {b.role: b for b in bound}

    maps: list[BindingSet] = []
    seen: set[tuple] = set()
    ambiguities: list[SpanAmbiguity] = []
    amb_seen: set[tuple] = set()
    best_failure: ClauseFailure | None = None

    def note_failure(ii: int, wi: int, detail: str, role: str | None = None, phrase: str | None = None) -> None:
        nonlocal best_failure
        if best_failure is None or (ii, wi) > (best_failure.item_index, best_failure.word_index):
            best_failure = ClauseFailure(ii, wi, detail, role, phrase)

    def state_scope(acc: BindingSet) -> str | None:
        if owner_role is not None:
            for b in acc:
                if b.role == owner_role:
                    return b.element
            if owner_role in bound_by_role:
                return bound_by_role[owner_role].element
        return scope

    def rec(wi: int, ii: int, acc: BindingSet) -> None:
        # Any prefix of a run of articles may be skipped. The positions are
        # tried last to first, which fixes the order of ``maps`` and
        # ``ambiguities``. Skipping in a loop means every nested call
        # consumes a template item, so the recursion depth is bounded by
        # len(items), not by the clause length.
        end = wi
        while end < len(words) and words[end].lower in ARTICLES:
            end += 1
        for pos in range(end, wi - 1, -1):
            step(pos, ii, acc)

    def step(wi: int, ii: int, acc: BindingSet) -> None:
        if ii == len(items):
            if wi == len(words):
                key = _binding_key(acc)
                if key not in seen:
                    seen.add(key)
                    maps.append(acc)
            else:
                trailing = " ".join(t.text for t in words[wi:])
                note_failure(ii, wi, f"trailing words {trailing!r} fit no template item")
            return
        item = items[ii]
        if isinstance(item, Literal):
            if wi < len(words) and words[wi].lower == item.word:
                rec(wi + 1, ii + 1, acc)
            else:
                got = words[wi].text if wi < len(words) else "end of clause"
                note_failure(ii, wi, f"expected literal {item.word!r}, got {got!r}")
            return
        if isinstance(item, OptionalLiteral):
            if wi < len(words) and words[wi].lower in item.words:
                rec(wi + 1, ii + 1, acc)
            rec(wi, ii + 1, acc)
            return
        # slot
        if wi == len(words):
            note_failure(ii, wi, f"clause ended before slot {item.role!r}", role=item.role)
            return
        resolved_any = False
        longest_phrase = None
        for length in range(1, min(SPAN_LIMIT, len(words) - wi) + 1):
            span = words[wi : wi + length]
            phrase = _span_phrase(span)
            longest_phrase = phrase or " ".join(t.text for t in span)
            elements = lookup_elements(
                model,
                [t.text for t in span],
                item.metaclass,
                scope=state_scope(acc) if item.metaclass is Metaclass.STATE else None,
            )
            candidates = sorted(set(elements))
            if len(candidates) > 1:
                amb_key = (item.role, phrase, tuple(candidates))
                if amb_key not in amb_seen:
                    amb_seen.add(amb_key)
                    ambiguities.append(
                        SpanAmbiguity(item.role, item.metaclass, phrase, tuple(candidates))
                    )
            for element in candidates:
                resolved_any = True
                binding = Binding(item.role, item.metaclass, phrase, element)
                rec(wi + length, ii + 1, acc + (binding,))
        if not resolved_any:
            note_failure(
                ii,
                wi,
                f"no {item.metaclass.value} matches",
                role=item.role,
                phrase=longest_phrase,
            )

    rec(0, 0, ())
    return ClauseMatches(tuple(maps), tuple(ambiguities), None if maps else best_failure)


# ---------------------------------------------------------------------------
# Requirement-level matching
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """Ordered ways to write ``total`` as ``parts`` positive integers."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def merge_clauses(clauses: Sequence[Clause]) -> Clause:
    """Undo connective splits: rejoin clauses, demoting separators to words."""
    if len(clauses) == 1:
        return clauses[0]
    words: list[Token] = list(clauses[0].words)
    for clause in clauses[1:]:
        sep = clause.lead
        if sep is not None:
            words.append(Token(TokenKind.WORD, sep.text, sep.lower, sep.index))
        words.extend(clause.words)
    return Clause(clauses[0].kind, tuple(words), clauses[0].lead)


@dataclass
class _SectionResult:
    ctxs: list[BindingSet] | None
    ambiguities: list[SpanAmbiguity]
    failure: MetaReqDiagnostic | None


def _fail(metareq_id: str, reason: str, section: str | None = None, template_index: int | None = None,
          role: str | None = None, phrase: str | None = None) -> _SectionResult:
    return _SectionResult(
        None, [], MetaReqDiagnostic(metareq_id, reason, section, template_index, role, phrase)
    )


def _match_section(
    metareq_id: str,
    section: str,
    clauses: Sequence[Clause],
    templates: Sequence[ClauseTemplate],
    model: SystemModel,
    owner_role: str | None,
    ctxs: list[BindingSet],
) -> _SectionResult:
    """Thread contexts through one section, trying every clause grouping."""
    if not templates:
        if clauses:
            return _fail(metareq_id, f"rule expects no {section} clause", section)
        return _SectionResult(list(ctxs), [], None)
    if len(clauses) < len(templates):
        return _fail(
            metareq_id,
            f"rule expects {len(templates)} {section} clause(s), requirement has {len(clauses)}",
            section,
        )

    results: list[BindingSet] = []
    seen: set[tuple] = set()
    ambiguities: list[SpanAmbiguity] = []
    best: tuple[tuple[int, int, int], MetaReqDiagnostic] | None = None

    for comp in _compositions(len(clauses), len(templates)):
        groups = []
        start = 0
        for size in comp:
            groups.append(merge_clauses(clauses[start : start + size]))
            start += size
        branch = list(ctxs)
        failed = False
        for ti, (group, template) in enumerate(zip(groups, templates)):
            extended: list[BindingSet] = []
            deepest: ClauseFailure | None = None
            for ctx in branch:
                cm = match_clause(group, template, model, owner_role=owner_role, bound=ctx)
                ambiguities.extend(cm.ambiguities)
                for mp in cm.maps:
                    extended.append(ctx + mp)
                if cm.failure is not None and (
                    deepest is None
                    or (cm.failure.item_index, cm.failure.word_index)
                    > (deepest.item_index, deepest.word_index)
                ):
                    deepest = cm.failure
            if not extended:
                if deepest is not None:
                    progress = (ti, deepest.item_index, deepest.word_index)
                    diag = MetaReqDiagnostic(
                        metareq_id, deepest.detail, section, ti, deepest.role, deepest.phrase
                    )
                    if best is None or progress > best[0]:
                        best = (progress, diag)
                failed = True
                break
            branch = extended
        if not failed:
            for ctx in branch:
                key = _binding_key(ctx)
                if key not in seen:
                    seen.add(key)
                    results.append(ctx)

    if results:
        return _SectionResult(results, ambiguities, None)
    if best is not None:
        return _SectionResult(None, ambiguities, best[1])
    return _fail(metareq_id, f"no grouping of the {section} clauses fits", section)


def _tail_template(template: ClauseTemplate) -> ClauseTemplate | None:
    """Sub-template from the last slot onward, for elliptical alternatives."""
    last = None
    for i, item in enumerate(template.items):
        if isinstance(item, SlotPattern):
            last = i
    if last is None:
        return None
    return ClauseTemplate(template.kind, template.items[last:])


@dataclass
class _MetaReqOutcome:
    binding_sets: list[BindingSet] | None = None
    alternatives: int = 0
    failure: MetaReqDiagnostic | None = None
    ambiguous_sets: tuple[BindingSet, ...] | None = None
    ambiguities: tuple[SpanAmbiguity, ...] = ()


def _unique_or_ambiguous(ctxs: list[BindingSet]) -> tuple[BindingSet | None, tuple[BindingSet, ...]]:
    distinct: list[BindingSet] = []
    seen: set[tuple] = set()
    for ctx in ctxs:
        key = _binding_key(ctx)
        if key not in seen:
            seen.add(key)
            distinct.append(ctx)
    if len(distinct) == 1:
        return distinct[0], ()
    return None, tuple(distinct)


def _try_metareq(
    ast: RequirementAST, metareq: MetaReq, kb: KnowledgeBase, model: SystemModel
) -> _MetaReqOutcome:
    owner_role = kb.fragment_by_id(metareq.fragment).owner_role

    given = _match_section(metareq.id, "given", ast.given, metareq.given, model, owner_role, [()])
    if given.ctxs is None:
        return _MetaReqOutcome(failure=given.failure)
    ambiguities = list(given.ambiguities)

    # A conjunctive When is one alternative holding every When clause; a
    # disjunctive When is one alternative per clause.
    disjunctive = ast.when_mode is WhenMode.DISJUNCTIVE and len(ast.when) > 1
    if not disjunctive:
        alternatives = [ast.when]
    elif len(metareq.when) == 1:
        alternatives = [[clause] for clause in ast.when]
    else:
        return _MetaReqOutcome(
            failure=MetaReqDiagnostic(
                metareq.id,
                "a disjunctive When requires a rule with exactly one When template",
                "when",
            )
        )

    sets: list[BindingSet] = []
    for i, when_clauses in enumerate(alternatives):
        when = _match_section(
            metareq.id, "when", when_clauses, metareq.when, model, owner_role, given.ctxs
        )
        if when.ctxs is not None:
            ambiguities.extend(when.ambiguities)
            then = _match_section(
                metareq.id, "then", ast.then, metareq.then, model, owner_role, when.ctxs
            )
            if then.ctxs is None:
                return _MetaReqOutcome(failure=then.failure)
            ambiguities.extend(then.ambiguities)
            candidates = then.ctxs
        elif not sets:
            return _MetaReqOutcome(failure=when.failure)
        else:
            # Elliptical alternative: only the final slot of the template,
            # read against the first alternative's bindings.
            tail = _tail_template(metareq.when[0])
            assert tail is not None  # templates declare at least one slot
            cm = match_clause(when_clauses[0], tail, model, owner_role=owner_role, bound=sets[0])
            ambiguities.extend(cm.ambiguities)
            if not cm.maps:
                failure = cm.failure or ClauseFailure(0, 0, "alternative fits no form")
                return _MetaReqOutcome(
                    failure=MetaReqDiagnostic(
                        metareq.id, f"When alternative {i + 1}: {failure.detail}", "when", 0,
                        failure.role, failure.phrase,
                    )
                )
            candidates = [
                tuple({b.role: b for b in mp}.get(b.role, b) for b in sets[0]) for mp in cm.maps
            ]
        unique, distinct = _unique_or_ambiguous(candidates)
        if unique is None:
            return _MetaReqOutcome(ambiguous_sets=distinct, ambiguities=tuple(ambiguities))
        sets.append(unique)

    return _MetaReqOutcome(
        binding_sets=sets,
        alternatives=len(alternatives) if disjunctive else 0,
        ambiguities=tuple(ambiguities),
    )


def match_requirement(
    ast: RequirementAST, kb: KnowledgeBase, model: SystemModel
) -> MatchResult:
    """Match a parsed requirement against the rules in priority order.

    Raises:
        NoMatch: no rule fits (diagnostics say which clause, slot and phrase
            failed per rule).
        AmbiguousMatch: the first rule that fits does so with two distinct
            complete binding sets.
    """
    diagnostics: list[MetaReqDiagnostic] = []
    for metareq in kb.metareqs:
        outcome = _try_metareq(ast, metareq, kb, model)
        if outcome.ambiguous_sets is not None:
            raise AmbiguousMatch(ast.id, metareq.id, outcome.ambiguous_sets, outcome.ambiguities)
        if outcome.binding_sets is not None:
            return MatchResult(
                requirement_id=ast.id,
                metareq_id=metareq.id,
                binding_sets=tuple(outcome.binding_sets),
                alternatives_consumed=outcome.alternatives,
            )
        assert outcome.failure is not None
        diagnostics.append(outcome.failure)
    raise NoMatch(ast.id, tuple(diagnostics))


# ---------------------------------------------------------------------------
# Reference oracle
# ---------------------------------------------------------------------------
#
# Everything below re-derives the matching semantics with a flat
# generate-and-filter search (enumerate span placements, then verify the
# gaps), sharing no search code with match_clause/match_requirement. It is
# exercised by the test suite to cross-check the production matcher.


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
                found.extend(
                    st.name
                    for st in block.state_machine.states
                    if normalize_phrase(st.name) == joined
                )
        if found:
            return sorted(set(found))
    return []


def _oracle_gap_ok(gap: Sequence[Token], items: Sequence[Literal | OptionalLiteral]) -> bool:
    def rec(wi: int, ii: int) -> bool:
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
    n = len(words)
    out: list[BindingSet] = []

    def all_span_tuples(index: int, start: int, acc: list[tuple[int, int]]):
        if index == len(slot_positions):
            yield list(acc)
            return
        for a in range(start, n):
            for b in range(a + 1, min(a + SPAN_LIMIT, n) + 1):
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
    deduped: list[BindingSet] = []
    seen: set[tuple] = set()
    for candidate in out:
        key = _binding_key(candidate)
        if key not in seen:
            seen.add(key)
            deduped.append(candidate)
    return deduped


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
        groups = [merge_clauses(clauses[bounds[i] : bounds[i + 1]]) for i in range(p)]
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
    deduped: list[BindingSet] = []
    seen: set[tuple] = set()
    for candidate in results:
        key = _binding_key(candidate)
        if key not in seen:
            seen.add(key)
            deduped.append(candidate)
    return deduped


def oracle_match(ast: RequirementAST, kb: KnowledgeBase, model: SystemModel) -> MatchResult:
    """Reference matcher: exhaustive, unpruned; agrees with match_requirement."""
    for metareq in kb.metareqs:
        owner_role = kb.fragment_by_id(metareq.fragment).owner_role
        given_ctxs = _oracle_section(ast.given, metareq.given, model, owner_role, [()])
        if not given_ctxs:
            continue
        disjunctive = ast.when_mode is WhenMode.DISJUNCTIVE and len(ast.when) > 1
        if disjunctive:
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
                tail = _tail_template(template)
                assert tail is not None
                tail_maps = _oracle_clause_maps(alternative, tail, model, owner_role, first_set)
                if not tail_maps:
                    feasible = False
                    break
                variants: list[BindingSet] = []
                seen: set[tuple] = set()
                for mp in tail_maps:
                    replacement = {b.role: b for b in mp}
                    candidate = tuple(replacement.get(b.role, b) for b in first_set)
                    key = _binding_key(candidate)
                    if key not in seen:
                        seen.add(key)
                        variants.append(candidate)
                if len(variants) > 1:
                    raise AmbiguousMatch(ast.id, metareq.id, tuple(variants))
                sets.append(variants[0])
            if not feasible:
                continue
            return MatchResult(ast.id, metareq.id, tuple(sets), len(ast.when))
        when_ctxs = _oracle_section(ast.when, metareq.when, model, owner_role, given_ctxs)
        if not when_ctxs:
            continue
        final = _oracle_section(ast.then, metareq.then, model, owner_role, when_ctxs)
        if not final:
            continue
        if len(final) > 1:
            raise AmbiguousMatch(ast.id, metareq.id, tuple(final))
        return MatchResult(ast.id, metareq.id, (final[0],), 0)
    raise NoMatch(ast.id, ())
