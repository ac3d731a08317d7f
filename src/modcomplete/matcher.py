"""Template matching: decide which rule a requirement fits and bind slots.

A requirement fits a MetaReq when its clause lists align with the rule's
clause templates and every slot binds to exactly one model element. Matching
is deterministic and rigid (no statistical language processing):

* literals match case-insensitively; a run of articles is skipped anywhere;
* a slot consumes a span of one to four words that starts and ends on a
  non-article, resolved through :func:`lookup_elements` against the run's
  :class:`Mentions`, which ``generator.complete_model`` builds once;
* adjacent parsed clauses may be re-merged (undoing an ``and`` split) when a
  single template spans them, which is how ``and`` inside a noun phrase is
  told apart from ``and`` between clauses. A section's groupings are searched
  depth-first, so a clause group is matched once per context that reaches
  it, not once per grouping that starts with it;
* rules are tried in priority order; the first one with a complete binding
  wins, and a complete-but-non-unique binding is an error, never a silent
  pick;
* a disjunctive When fans out into one binding set per alternative. An
  alternative is first read as a complete clause; only if that fails it is
  read as an elliptical mention of the template's final slot ("... receives
  Halt or Reset").
"""

from collections import defaultdict
from typing import Iterable, NamedTuple, Sequence

from .errors import ModcompleteError
from .gherkin import Clause, RequirementAST, Token
from .kb import ClauseTemplate, KnowledgeBase, Literal, MetaReq, OptionalLiteral, SlotPattern
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

SPAN_LIMIT = 4  # raw words per slot span


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
    """Deepest failure point while matching one clause against a template;
    its first two fields are how far the match got."""

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
    """No rule fits; carries one diagnostic per rule tried."""

    def __init__(self, requirement_id: str, diagnostics: tuple[MetaReqDiagnostic, ...]) -> None:
        lines = "; ".join(d.render() for d in diagnostics) or "knowledge base is empty"
        super().__init__(f"{requirement_id}: no rule fits ({lines})")
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
    but for states, keyed by their block and by None. ``memo`` holds
    ``lookup_elements`` results by (phrase, metaclass, scope of a state)."""

    __slots__ = ("index", "memo")

    def __init__(self, model: SystemModel) -> None:
        self.index = _mention_index(model)
        self.memo: dict[tuple, tuple[str, ...]] = {}


def _mention_index(model: SystemModel) -> dict[tuple[Metaclass, str | None, str], tuple[str, ...]]:
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
    return {key: tuple(sorted(names)) for key, names in index.items()}


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


def _binding_key(bindings: Iterable[Binding]) -> tuple[tuple[str, str], ...]:
    return tuple((b.role, b.element) for b in bindings)


def _owner_scope(ctx: BindingSet, owner_role: str | None) -> str | None:
    """The element ``ctx`` binds to ``owner_role`` (its last binding), or None."""
    return {b.role: b.element for b in ctx}.get(owner_role)


def match_clause(
    clause: Clause,
    template: ClauseTemplate,
    model: SystemModel | Mentions,
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
    So (word, item, scope) is the whole state of the search. A model is
    read through a new :class:`Mentions`.
    """
    mentions = model if isinstance(model, Mentions) else Mentions(model)
    words = clause.words
    items = template.items

    maps: dict[tuple, BindingSet] = {}  # binding key -> first map with it
    best_failure: ClauseFailure | None = None

    def note_failure(ii, wi, detail, role=None, phrase=None):
        nonlocal best_failure
        if best_failure is None or (ii, wi) > best_failure[:2]:
            best_failure = ClauseFailure(ii, wi, detail, role, phrase)

    def step(wi, ii, acc, scope):
        # Skip the whole run of articles here, once: every nested call then
        # consumes a template item, so the recursion depth is bounded by
        # len(items), not by the clause length.
        while wi < len(words) and words[wi].lower in ARTICLES:
            wi += 1
        if ii == len(items):
            if wi == len(words):
                maps.setdefault(_binding_key(acc), acc)
            else:
                trailing = " ".join(t.text for t in words[wi:])
                note_failure(ii, wi, f"trailing words {trailing!r} fit no template item")
            return
        item = items[ii]
        if isinstance(item, Literal):
            if wi < len(words) and words[wi].lower == item.word:
                step(wi + 1, ii + 1, acc, scope)
            else:
                got = words[wi].text if wi < len(words) else "end of clause"
                note_failure(ii, wi, f"expected literal {item.word!r}, got {got!r}")
            return
        if isinstance(item, OptionalLiteral):
            if wi < len(words) and words[wi].lower in item.words:
                step(wi + 1, ii + 1, acc, scope)
            step(wi, ii + 1, acc, scope)
            return
        # slot
        if wi == len(words):
            note_failure(ii, wi, f"clause ended before slot {item.role!r}", role=item.role)
            return
        # A span starts on a non-article (the run before it was skipped)
        # and never ends on one: those articles are skipped by the next step.
        resolved_any = False
        for length in range(1, min(SPAN_LIMIT, len(words) - wi) + 1):
            span = words[wi : wi + length]
            if span[-1].lower in ARTICLES:
                continue
            phrase = " ".join(t.text for t in span)
            for element in lookup_elements(mentions, [t.text for t in span], item.metaclass, scope=scope):
                resolved_any = True
                binding = Binding(item.role, item.metaclass, phrase, element)
                step(wi + length, ii + 1, acc + (binding,),
                     element if item.role == owner_role else scope)
        if not resolved_any:
            note_failure(
                ii,
                wi,
                f"no {item.metaclass.value} matches",
                role=item.role,
                phrase=phrase,
            )

    step(0, 0, (), scope)
    # ``step`` reaches itself through its closure cell; emptying the cell
    # lets reference counting free it, with ``maps``.
    del step
    return ClauseMatches(tuple(maps.values()), None if maps else best_failure)


# ---------------------------------------------------------------------------
# Requirement-level matching
# ---------------------------------------------------------------------------


def merge_clauses(clauses: Sequence[Clause]) -> Clause:
    """Undo connective splits: rejoin clauses, demoting separators to words."""
    if len(clauses) == 1:
        return clauses[0]
    words: list[Token] = list(clauses[0].words)
    for clause in clauses[1:]:
        words.append(clause.lead)
        words.extend(clause.words)
    return Clause(tuple(words), clauses[0].lead)


def _distinct(candidates: Iterable[BindingSet]) -> list[BindingSet]:
    """``candidates`` without repeated (role, element) assignments, first seen first."""
    out: dict[tuple, BindingSet] = {}
    for candidate in candidates:
        out.setdefault(_binding_key(candidate), candidate)
    return list(out.values())


def _match_section(
    metareq_id: str,
    section: str,
    clauses: Sequence[Clause],
    templates: Sequence[ClauseTemplate],
    mentions: Mentions,
    owner_role: str | None,
    ctxs: list[BindingSet],
) -> list[BindingSet] | MetaReqDiagnostic:
    """Thread contexts through one section, grouping its clauses depth-first.

    Consecutive clauses are grouped, one group per template, with every
    group end tried in increasing order; the last template takes the rest.
    A group is matched once for each context that reaches it, and only the
    contexts it extends go on to the next template, so the groupings are
    visited in lexicographic order without matching a shared prefix again.
    Returns the distinct extended contexts, or the diagnostic of the group
    that got furthest.
    """
    if not templates:
        if clauses:
            return MetaReqDiagnostic(metareq_id, f"rule expects no {section} clause", section)
        return list(ctxs)
    n, last = len(clauses), len(templates) - 1
    if n < len(templates):
        return MetaReqDiagnostic(
            metareq_id,
            f"rule expects {len(templates)} {section} clause(s), requirement has {n}",
            section,
        )

    results: list[BindingSet] = []
    best: tuple[tuple[int, int, int], MetaReqDiagnostic] | None = None

    def extend(ti, start, branch):
        nonlocal best
        # Leave one clause for each later template; the last takes all the rest.
        for end in range(start + 1 if ti < last else n, n - last + ti + 1):
            group = merge_clauses(clauses[start:end])
            extended = []
            deepest = None
            for ctx in branch:
                cm = match_clause(group, templates[ti], mentions, owner_role=owner_role,
                                  scope=_owner_scope(ctx, owner_role))
                extended.extend(ctx + mp for mp in cm.maps)
                if cm.failure is not None and (deepest is None or cm.failure[:2] > deepest[:2]):
                    deepest = cm.failure
            if not extended:
                progress = (ti, *deepest[:2])
                diag = MetaReqDiagnostic(
                    metareq_id, deepest.detail, section, ti, deepest.role, deepest.phrase
                )
                if best is None or progress > best[0]:
                    best = (progress, diag)
            elif ti < last:
                extend(ti + 1, end, extended)
            else:
                results.extend(extended)

    extend(0, 0, ctxs)
    del extend  # as ``step`` in match_clause
    return _distinct(results) if results else best[1]


def _tail_template(template: ClauseTemplate) -> ClauseTemplate:
    """Sub-template from the last slot onward, for elliptical alternatives
    (``parse_kb`` rejects a template without a slot)."""
    slots = [i for i, item in enumerate(template.items) if isinstance(item, SlotPattern)]
    return ClauseTemplate(template.items[slots[-1]:])


def _try_metareq(
    ast: RequirementAST, metareq: MetaReq, mentions: Mentions
) -> MatchResult | MetaReqDiagnostic:
    """The rule's match, or the diagnostic of why it does not fit.

    Raises:
        AmbiguousMatch: the rule fits with two distinct complete binding sets.
    """
    owner_role = metareq.fragment.owner_role
    given = _match_section(metareq.id, "given", ast.given, metareq.given, mentions, owner_role, [()])
    if isinstance(given, MetaReqDiagnostic):
        return given

    # A conjunctive When is one alternative holding every When clause; a
    # disjunctive When (its second clause led by ``or``) is one alternative
    # per clause.
    disjunctive = len(ast.when) > 1 and ast.when[1].lead.lower == "or"
    if not disjunctive:
        alternatives = [ast.when]
    elif len(metareq.when) == 1:
        alternatives = [[clause] for clause in ast.when]
    else:
        return MetaReqDiagnostic(
            metareq.id, "a disjunctive When requires a rule with exactly one When template", "when"
        )

    sets: list[BindingSet] = []
    for i, when_clauses in enumerate(alternatives):
        when = _match_section(
            metareq.id, "when", when_clauses, metareq.when, mentions, owner_role, given
        )
        if not isinstance(when, MetaReqDiagnostic):
            candidates = _match_section(
                metareq.id, "then", ast.then, metareq.then, mentions, owner_role, when
            )
            if isinstance(candidates, MetaReqDiagnostic):
                return candidates
        elif not sets:
            return when
        else:
            # Elliptical alternative: only the final slot of the template,
            # read against the first alternative's bindings.
            cm = match_clause(when_clauses[0], _tail_template(metareq.when[0]), mentions,
                              owner_role=owner_role, scope=_owner_scope(sets[0], owner_role))
            if not cm.maps:
                return MetaReqDiagnostic(
                    metareq.id, f"When alternative {i + 1}: {cm.failure.detail}", "when", 0,
                    cm.failure.role, cm.failure.phrase,
                )
            # The tail binds one slot of ``sets[0]``, and its maps differ
            # in that slot's element, so the candidates are distinct too.
            candidates = [
                tuple({b.role: b for b in mp}.get(b.role, b) for b in sets[0]) for mp in cm.maps
            ]
        if len(candidates) > 1:
            raise AmbiguousMatch(ast.id, metareq.id, tuple(candidates))
        sets.append(candidates[0])

    return MatchResult(ast.id, metareq.id, tuple(sets))


def match_requirement(
    ast: RequirementAST, kb: KnowledgeBase, model: SystemModel | Mentions
) -> MatchResult:
    """Match a parsed requirement against the rules in priority order. A
    model is read through a new :class:`Mentions`; pass one to share it.

    Raises:
        NoMatch: no rule fits (diagnostics say which clause, slot and phrase
            failed per rule).
        AmbiguousMatch: the first rule that fits does so with two distinct
            complete binding sets.
    """
    mentions = model if isinstance(model, Mentions) else Mentions(model)
    diagnostics: list[MetaReqDiagnostic] = []
    for metareq in kb.metareqs:
        outcome = _try_metareq(ast, metareq, mentions)
        if isinstance(outcome, MatchResult):
            return outcome
        diagnostics.append(outcome)
    raise NoMatch(ast.id, tuple(diagnostics))

