"""Template matching: decide which rule a requirement fits and bind slots.

A requirement fits a MetaReq when its clause lists align with the rule's
clause templates and every slot binds to exactly one model element. Matching
is deterministic and rigid (no statistical language processing):

* literals match case-insensitively; a run of articles is skipped anywhere;
* a slot consumes a span that starts and ends on a non-article, of one
  word up to its metaclass's span bound in ``Mentions.spans`` (at least
  four) and never past a section keyword, resolved through
  :func:`lookup_elements` against the run's :class:`Mentions`, which
  ``generator.complete_model`` builds once. A clause is searched once per
  slot state (word, item, scope), so paths that meet there share the maps
  that finish the clause from it;
* a requirement is read as one clause: its clauses merged (undoing the
  ``and`` splits) against the rule's one template, ``kb.join_templates``,
  which ``kb.shadowed_rules`` reads too. Each ``and`` then reads as a
  template boundary or as a word inside a noun phrase, the slot states
  bound the search of every grouping at once, and a failure is the one
  furthest into the rule, whatever its section;
* rules are tried in priority order; the first one with a complete binding
  wins, and a complete-but-non-unique binding is an error, never a silent
  pick. A rule whose sections the clauses cannot fill, or one of whose
  template ``Literal`` words the requirement lacks, cannot fit, so it is
  not searched while a later rule may fit; its diagnostic is found only if
  no rule fits, and ``NoMatch`` lists every rule's in priority order;
* a disjunctive When fans out into one binding set per alternative, each
  read with the Given and the Then. An alternative is first read as a
  complete clause; only if that fails in the When it is read as an
  elliptical mention of the template's final slot ("... receives Halt or
  Reset"). A later alternative that lacks a ``Literal`` word of the When
  template can only fail in the When, so it is read as elliptical at once.
"""

import re
from collections import defaultdict
from typing import Iterable, NamedTuple, Sequence

from .errors import ModcompleteError
from .gherkin import KEYWORDS, SECTIONS, Clause, RequirementAST, Token
from .kb import (BOUNDARY, HEADS, ClauseTemplate, KnowledgeBase, Literal, MetaReq, OptionalLiteral, SlotPattern,
                 join_templates)
from .model import Metaclass, SystemModel
from .normalize import ARTICLES, core_words, normalize_phrase, normalize_signal_phrase

__all__ = [
    "Binding",
    "MatchResult",
    "SpanAmbiguity",
    "ClauseMatches",
    "MetaReqDiagnostic",
    "MatchError",
    "NoMatch",
    "AmbiguousMatch",
    "Mentions",
    "lookup_elements",
    "match_clause",
    "match_requirement",
]


class Binding(NamedTuple):
    """One slot filled: ``phrase`` (original spelling) names ``element``."""

    role: str
    metaclass: Metaclass
    phrase: str
    element: str


BindingSet = tuple[Binding, ...]


class MatchResult(NamedTuple):
    """Winning rule and its bindings.

    ``binding_sets`` holds one complete set per disjunctive When alternative
    (exactly one set for ordinary requirements); every set covers every slot
    of the rule exactly once, in slot declaration order.
    """

    requirement_id: str
    metareq_id: str
    binding_sets: tuple[BindingSet, ...]

    @property
    def bindings(self) -> BindingSet:
        return self.binding_sets[0]

    @property
    def alternatives_consumed(self) -> int:
        """How many disjunctive When alternatives the match covers, else 0."""
        return len(self.binding_sets) if len(self.binding_sets) > 1 else 0


class SpanAmbiguity(NamedTuple):
    """A slot whose phrase the competing binding sets of an
    :class:`AmbiguousMatch` bind to more than one element (sorted)."""

    role: str
    metaclass: Metaclass
    phrase: str
    elements: tuple[str, ...]


class ClauseFailure(NamedTuple):
    """Furthest failure point while matching one clause against a template;
    its first two fields are how far the match got, and they alone fix the
    rest."""

    item_index: int
    word_index: int
    detail: str
    role: str | None = None
    phrase: str | None = None


class ClauseMatches(NamedTuple):
    """All binding maps for one (clause, template) pair plus diagnostics."""

    maps: tuple[BindingSet, ...]
    failure: ClauseFailure | None = None


class MetaReqDiagnostic(NamedTuple):
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
    """No rule fits; carries one diagnostic per rule tried, and ``lines``,
    the report lines that render them."""

    def __init__(self, requirement_id: str, diagnostics: tuple[MetaReqDiagnostic, ...]) -> None:
        self.lines = tuple(d.render() for d in diagnostics) or ("knowledge base is empty",)
        super().__init__(f"{requirement_id}: no rule fits ({'; '.join(self.lines)})")
        self.requirement_id = requirement_id
        self.diagnostics = diagnostics


class AmbiguousMatch(MatchError):
    """The winning rule admits two distinct complete binding sets."""

    def __init__(
        self, requirement_id: str, metareq_id: str, binding_sets: tuple[BindingSet, ...]
    ) -> None:
        super().__init__(
            f"{requirement_id}: rule {metareq_id} fits in {len(binding_sets)} distinct ways"
        )
        self.requirement_id = requirement_id
        self.metareq_id = metareq_id
        self.binding_sets = binding_sets

    @property
    def ambiguities(self) -> tuple[SpanAmbiguity, ...]:
        """One entry per (role, metaclass, phrase) that the binding sets bind
        to more than one element, in order of first appearance."""
        found: dict[tuple[str, Metaclass, str], set[str]] = {}
        for binding_set in self.binding_sets:
            for b in binding_set:
                found.setdefault((b.role, b.metaclass, b.phrase), set()).add(b.element)
        return tuple(SpanAmbiguity(*k, tuple(sorted(e))) for k, e in found.items() if len(e) > 1)


# ---------------------------------------------------------------------------
# Element lookup
# ---------------------------------------------------------------------------


class Mentions:
    """One run's phrase lookup over a model. ``index`` holds element names
    by (metaclass, scope, normal form), each once, sorted; the scope is None
    but for states, keyed by their block and by None. ``spans`` holds each
    metaclass's span bound, the most raw words a slot span may cover: the
    most words in a name of that metaclass, plus one for a signal's filler
    noun ("Message"), and at least 4. ``memo`` holds ``lookup_elements``
    results by (phrase, metaclass, scope of a state). ``rules`` holds the
    last knowledge base matched through it and that base's rules as the
    matcher reads them, which an equal knowledge base shares."""

    __slots__ = ("index", "spans", "memo", "rules")

    def __init__(self, model: SystemModel) -> None:
        self.index, self.spans = _mention_index(model)
        self.memo: dict[tuple, tuple[str, ...]] = {}
        self.rules: tuple[KnowledgeBase, tuple[_Rule, ...]] = (KnowledgeBase(), ())


# A name's words are its whitespace words, each split before a capital
# that follows a lower-case letter or a digit. Each match here is one such
# split, so "RadioBlock" is two words.
_CAMEL_HUMP = re.compile(r"[a-z0-9][A-Z]")


def _mention_index(model: SystemModel) -> tuple[dict, dict[Metaclass, int]]:
    index: dict[tuple[Metaclass, str | None, str], set[str]] = defaultdict(set)
    for block in model.blocks:
        index[(Metaclass.BLOCK, None, normalize_phrase(block.name))].add(block.name)
        if block.state_machine is not None:
            for state in block.state_machine.states:
                form = normalize_phrase(state)
                index[(Metaclass.STATE, block.name, form)].add(state)
                index[(Metaclass.STATE, None, form)].add(state)
    for signal in model.signals:
        index[(Metaclass.SIGNAL, None, normalize_phrase(signal.name))].add(signal.name)
    spans = dict.fromkeys(Metaclass, 4)
    for (metaclass, scope, _), names in index.items():
        if scope is None:  # each name once, a state too
            for name in names:
                words = len(name.split()) + len(_CAMEL_HUMP.findall(name)) + (metaclass is Metaclass.SIGNAL)
                spans[metaclass] = max(spans[metaclass], words)
    return {key: tuple(sorted(names)) for key, names in index.items()}, spans


def lookup_elements(
    mentions: Mentions, phrase, metaclass: Metaclass, scope: str | None = None
) -> list[str]:
    """Names of model elements a phrase refers to, sorted and unique.

    Resolution is longest-suffix: the full phrase is tried first; if nothing
    matches, leading modifier words are dropped one at a time ("the Emergency
    Brake" reaches a block named Brake). Signals additionally answer to their
    stopword-stripped and stemmed forms. The ``scope`` applies to states
    only: with one, a state lookup searches only that block's machine;
    without one it searches every machine. Any other metaclass ignores it.

    Each suffix costs one probe of ``mentions.index`` (one per signal
    variant). Each distinct key is resolved once per ``mentions`` and kept
    in its memo. Every call returns a fresh list.
    """
    key = (phrase if isinstance(phrase, str) else tuple(phrase), metaclass,
           scope if metaclass is Metaclass.STATE else None)
    names = mentions.memo.get(key)
    if names is None:
        names = mentions.memo[key] = _lookup_exact(mentions.index, *key)
    return list(names)


def _lookup_exact(index: dict, phrase, metaclass: Metaclass, scope: str | None) -> tuple[str, ...]:
    """The names of the longest suffix of ``phrase`` that names an element."""
    words = core_words(phrase)
    for k in range(len(words)):
        forms = normalize_signal_phrase(words[k:]) if metaclass is Metaclass.SIGNAL else ("".join(words[k:]),)
        found = {name for form in forms for name in index.get((metaclass, scope, form), ())}
        if found:
            return tuple(sorted(found))
    return ()


def match_clause(
    clause: Clause,
    template: ClauseTemplate,
    mentions: Mentions,
    *,
    owner_role: str | None = None,
    scope: str | None = None,
) -> ClauseMatches:
    """All slot-span assignments of ``clause`` against ``template``.

    Literals must match in order (case-insensitive, articles skippable);
    every slot span must resolve through ``lookup_elements``. A span
    resolving to several elements forks the binding map, one map per
    element. A state slot is looked up in the machine of ``scope``, the
    block the context binds to ``owner_role``, until the clause binds
    ``owner_role`` itself; with neither, it is looked up in every machine.
    So (word, item, scope) is the whole state of the search. Each slot state
    is searched once per call, and the maps that finish the clause from it
    serve every path that reaches it. Each (role, element) assignment is
    returned once, the first found first. Without a map, the failure is the
    one furthest into the template, by (item, word).
    """
    words = clause.words
    items = template.items
    lower = [t.lower for t in words]
    text = tuple(t.text for t in words)
    n, spans = len(words), mentions.spans

    memo: dict[tuple, list[BindingSet]] = {}  # slot state -> its suffix maps
    furthest = (-1, -1)  # (item, word) of the furthest failure

    def step(wi, ii, scope):
        # The maps that finish the clause from here, in search order; a
        # caller only reads the list. Skip the whole run of articles here,
        # once: every nested call then consumes a template item, so the
        # recursion depth is bounded by len(items), not by the clause length.
        nonlocal furthest
        while wi < n and lower[wi] in ARTICLES:
            wi += 1
        if ii == len(items):
            if wi == n:
                return [()]
            furthest = max(furthest, (ii, wi))
            return []
        item = items[ii]
        if isinstance(item, Literal):
            if wi < n and lower[wi] == item.word:
                return step(wi + 1, ii + 1, scope)
            furthest = max(furthest, (ii, wi))
            return []
        if isinstance(item, OptionalLiteral):
            taken = step(wi + 1, ii + 1, scope) if wi < n and lower[wi] in item.words else []
            return taken + step(wi, ii + 1, scope)
        # slot: paths branch here, so its state is searched once, and its
        # maps are kept once per (role, element) assignment.
        key = (wi, ii, scope)
        if key in memo:
            return memo[key]
        out = []
        # A span starts on a non-article (the run before it was skipped)
        # and never ends on one: those articles are skipped by the next step.
        for end in range(wi + 1, min(wi + spans[item.metaclass], n) + 1):
            if lower[end - 1] in SECTIONS:  # a span stays in its section
                break
            if lower[end - 1] in ARTICLES:
                continue
            span = text[wi:end]
            elements = lookup_elements(mentions, span, item.metaclass, scope=scope)
            if not elements:
                continue
            phrase = " ".join(span)
            for element in elements:
                binding = Binding(item.role, item.metaclass, phrase, element)
                rests = step(end, ii + 1, element if item.role == owner_role else scope)
                out.extend((binding,) + rest for rest in rests)
        if not out:
            furthest = max(furthest, (ii, wi))
        memo[key] = out = _distinct(out) if len(out) > 1 else out
        return out

    maps = _distinct(step(0, 0, scope))
    # ``step`` reaches itself through its closure cell; emptying the cell
    # lets reference counting free it, with ``memo``.
    del step
    return ClauseMatches(tuple(maps), None if maps else _failure_at(words, items, mentions, *furthest))


def _failure_at(words: Sequence[Token], items: Sequence, mentions: Mentions, ii: int, wi: int) -> ClauseFailure:
    """Why the search fails at (item ``ii``, word ``wi``), which nothing else
    decides. A connective (a keyword left in a merged clause) ends a clause:
    a literal or a slot meets the end there, a slot's phrase stops before
    it, and a template whose clause goes on leaves the words up to it. A
    section keyword, like the end of the words, ends a section too, so the
    last template of a section leaves the words up to it."""
    if ii == len(items) or items[ii] in HEADS:
        item, ends = BOUNDARY, SECTIONS
    else:
        item, ends = items[ii], KEYWORDS
    end = next((i for i in range(wi, len(words)) if words[i].lower in ends), len(words))
    if item == BOUNDARY:
        if wi == end:  # a slot read the rest of the section
            return ClauseFailure(ii, wi, "section ended before the next template")
        trailing = " ".join(t.text for t in words[wi:end])
        return ClauseFailure(ii, wi, f"trailing words {trailing!r} fit no template item")
    if isinstance(item, Literal):
        got = words[wi].text if wi < end else "end of clause"
        return ClauseFailure(ii, wi, f"expected literal {item.word!r}, got {got!r}")
    if wi == end:
        return ClauseFailure(ii, wi, f"clause ended before slot {item.role!r}", item.role)
    stop = min(wi + mentions.spans[item.metaclass], end)
    while words[stop - 1].lower in ARTICLES:
        stop -= 1
    phrase = " ".join(t.text for t in words[wi:stop])
    return ClauseFailure(ii, wi, f"no {item.metaclass.value} matches", item.role, phrase)


# ---------------------------------------------------------------------------
# Requirement-level matching
# ---------------------------------------------------------------------------


def merge_clauses(clauses: Sequence[Clause]) -> Clause:
    """Undo connective splits: rejoin clauses, demoting separators to words."""
    words = clauses[0].words + tuple(t for clause in clauses[1:] for t in (clause.lead, *clause.words))
    return Clause(words, clauses[0].lead)


def _distinct(candidates: Iterable[BindingSet]) -> list[BindingSet]:
    """``candidates`` without repeated (role, element) assignments, first seen first."""
    out: dict[tuple, BindingSet] = {}
    for candidate in candidates:
        out.setdefault(tuple((b.role, b.element) for b in candidate), candidate)
    return list(out.values())


class _Rule(NamedTuple):
    """A rule as the matcher reads it: its :func:`join_templates` template,
    the words a requirement must hold for it to fit (its templates'
    ``Literal`` words), those of its first When template, and the tail of
    that template that an elliptical alternative is read against."""

    metareq: MetaReq
    joined: ClauseTemplate
    needs: frozenset[str]
    when_needs: frozenset[str]
    tail: ClauseTemplate | None


def _literal_words(templates: Iterable[ClauseTemplate]) -> frozenset[str]:
    return frozenset(item.word for template in templates for item in template.items if isinstance(item, Literal))


def _rules(kb: KnowledgeBase, mentions: Mentions) -> tuple[_Rule, ...]:
    """``kb``'s rules as the matcher reads them, built once per run and
    knowledge base: ``mentions.rules`` keeps them for a base equal in value."""
    last, rules = mentions.rules
    if last != kb:
        rules = tuple(
            _Rule(m, join_templates(zip(SECTIONS, (m.given, m.when, m.then))),
                  _literal_words(m.given + m.when + m.then), _literal_words(m.when[:1]),
                  _tail_template(m.when[0]) if m.when else None)
            for m in kb.metareqs
        )
        mentions.rules = kb, rules
    return rules


def _shape_failure(sections: list, disjunctive: bool) -> tuple[int, str] | None:
    """The first of the (keyword, clauses, templates) ``sections`` whose
    clauses cannot fill its templates, and why; None if each one can."""
    for n, (section, clauses, templates) in enumerate(sections):
        if section == "when" and disjunctive and len(templates) != 1:
            return n, "a disjunctive When requires a rule with exactly one When template"
        if clauses and not templates:
            return n, f"rule expects no {section} clause"
        if len(clauses) < len(templates):
            return n, f"rule expects {len(templates)} {section} clause(s), requirement has {len(clauses)}"
    return None


def _match_joined(
    metareq_id: str, sections: list, joined: ClauseTemplate, mentions: Mentions, owner_role: str | None,
    disjunctive: bool = False,
) -> tuple[BindingSet, ...] | MetaReqDiagnostic:
    """Read ``sections`` (keyword, clauses, templates) as one clause against
    ``joined``, their :func:`join_templates` template, so each ``and`` reads
    as a template boundary or as a word of a span. A section of the wrong
    shape is the reason only if the sections before it fit; a failed search
    is reported at the section whose keyword last precedes the failing item
    (a keyword closes its section), and the template it falls in."""
    shape = _shape_failure(sections, disjunctive)
    if shape is not None:
        n, reason = shape
        before = sections[:n]
        found = _match_joined(metareq_id, before, join_templates((s[0], s[2]) for s in before), mentions,
                              owner_role) if n else ()
        return found if isinstance(found, MetaReqDiagnostic) else MetaReqDiagnostic(metareq_id, reason, sections[n][0])
    sections = [s for s in sections if s[2]]
    clause = merge_clauses([c for _, clauses, _ in sections for c in clauses])
    cm = match_clause(clause, joined, mentions, owner_role=owner_role)
    if cm.maps:
        return cm.maps
    failure, section, ti = cm.failure, 0, 0
    for item in joined.items[: failure.item_index]:
        if item in HEADS:
            section, ti = section + 1, 0
        elif item == BOUNDARY:
            ti += 1
    return MetaReqDiagnostic(metareq_id, failure.detail, sections[section][0], ti, failure.role, failure.phrase)


def _tail_template(template: ClauseTemplate) -> ClauseTemplate:
    """Sub-template from the last slot onward, for elliptical alternatives
    (``parse_kb`` rejects a template without a slot)."""
    slots = [i for i, item in enumerate(template.items) if isinstance(item, SlotPattern)]
    return ClauseTemplate(template.items[slots[-1]:])


def _sections(ast: RequirementAST, when_clauses: tuple[Clause, ...], metareq: MetaReq) -> list:
    return list(zip(SECTIONS, (ast.given, when_clauses, ast.then), (metareq.given, metareq.when, metareq.then)))


def _try_metareq(
    ast: RequirementAST, rule: _Rule, alternatives: list[tuple[Clause, ...]], mentions: Mentions
) -> MatchResult | MetaReqDiagnostic:
    """The rule's match, or the diagnostic of why it does not fit.

    Raises:
        AmbiguousMatch: the rule fits with two distinct complete binding sets.
    """
    metareq = rule.metareq
    owner_role = metareq.fragment.owner_role
    disjunctive = len(alternatives) > 1
    sets: list[BindingSet] = []
    for i, when_clauses in enumerate(alternatives):
        # A later alternative that lacks a word of the When template can
        # only fail in the When, since the first one read the same Given:
        # it is read as elliptical straight away.
        if i and not rule.when_needs <= {t.lower for t in when_clauses[0].words}:
            candidates = None
        else:
            candidates = _match_joined(metareq.id, _sections(ast, when_clauses, metareq), rule.joined, mentions,
                                       owner_role, disjunctive)
            if isinstance(candidates, MetaReqDiagnostic):
                if candidates.section != "when" or not sets:
                    return candidates
                candidates = None
        if candidates is None:
            # Elliptical alternative: only the final slot of the template,
            # read against the first alternative's bindings.
            cm = match_clause(when_clauses[0], rule.tail, mentions,
                              owner_role=owner_role, scope={b.role: b.element for b in sets[0]}.get(owner_role))
            if not cm.maps:
                failure = cm.failure
                detail = f"When alternative {i + 1}: {failure.detail}"
                return MetaReqDiagnostic(metareq.id, detail, "when", 0, failure.role, failure.phrase)
            # The tail binds one slot of ``sets[0]``, and its maps differ
            # in that slot's element, so the candidates are distinct too.
            candidates = [tuple({b.role: b for b in mp}.get(b.role, b) for b in sets[0]) for mp in cm.maps]
        if len(candidates) > 1:
            raise AmbiguousMatch(ast.id, metareq.id, tuple(candidates))
        sets.append(candidates[0])

    return MatchResult(ast.id, metareq.id, tuple(sets))


def match_requirement(
    ast: RequirementAST, kb: KnowledgeBase, model: SystemModel | Mentions
) -> MatchResult:
    """Match a parsed requirement against the rules in priority order. A
    model is read through a new :class:`Mentions`; pass one to share it.

    A rule whose sections the requirement's clauses cannot fill, or one of
    whose template words the requirement lacks, is not searched while a
    later rule may fit; its diagnostic is found only if no rule fits.

    Raises:
        NoMatch: no rule fits (diagnostics say which clause, slot and phrase
            failed per rule).
        AmbiguousMatch: the first rule that fits does so with two distinct
            complete binding sets.
    """
    mentions = model if isinstance(model, Mentions) else Mentions(model)
    # A conjunctive When is one alternative holding every When clause; a
    # disjunctive When (its second clause led by ``or``) is one alternative
    # per clause, led by the When keyword.
    disjunctive = len(ast.when) > 1 and ast.when[1].lead.lower == "or"
    alternatives = [(c._replace(lead=ast.when[0].lead),) for c in ast.when] if disjunctive else [ast.when]
    words = {t.lower for clause in (*ast.given, *ast.when, *ast.then) for t in clause.words}
    tried: list[MetaReqDiagnostic | _Rule] = []  # each rule's diagnostic, or the rule if skipped
    for rule in _rules(kb, mentions):
        if rule.needs <= words and _shape_failure(_sections(ast, alternatives[0], rule.metareq), disjunctive) is None:
            outcome = _try_metareq(ast, rule, alternatives, mentions)
            if isinstance(outcome, MatchResult):
                return outcome
            tried.append(outcome)
        else:
            tried.append(rule)
    raise NoMatch(ast.id, tuple(
        d if isinstance(d, MetaReqDiagnostic) else _try_metareq(ast, d, alternatives, mentions) for d in tried
    ))
