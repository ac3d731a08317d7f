"""Instantiate matched fragments into transitions and merge them.

``complete_model`` is the end-to-end pipeline: parse each requirement, match
it against the knowledge base, instantiate the winning fragment, and merge
the resulting transitions into the model. It never aborts on a single
failing requirement; failures land in the report. Conflicting transitions
(same source and trigger, different target or effects) are all withheld from
the model and reported, which keeps the final model independent of corpus
order.
"""

from typing import NamedTuple

from .errors import ModcompleteError
from .gherkin import ParseError, RequirementDoc, parse_requirement
from .kb import KnowledgeBase, MetaFragment
from .matcher import BindingSet, MatchError, MatchResult, Mentions, NoMatch, match_requirement
from .model import SendEffect, SystemModel, Transition, add_transition, make_transition
from .trace import TraceRecord, build_trace


class StateNotInOwnerMachine(ModcompleteError):
    """A bound state is absent from the owner block's machine."""


def instantiate_fragment(
    fragment: MetaFragment,
    binding_sets: tuple[BindingSet, ...],
    model: SystemModel,
    requirement_id: str,
) -> tuple[tuple[str, Transition], ...]:
    """Fill a fragment from bindings: the (owner, transition) pairs, one
    transition per binding set, each distinct transition once.

    Raises:
        StateNotInOwnerMachine: a bound source or target state is not defined
            by the owner block's machine (or the owner has none).
    """
    pairs: dict[str, tuple[str, Transition]] = {}  # transition id -> pair
    for bindings in binding_sets:
        elements = {b.role: b.element for b in bindings}
        owner = elements[fragment.owner_role]
        block = model.block(owner)
        assert block is not None, "binding soundness guarantees the owner block"
        machine = block.state_machine
        if machine is None:
            raise StateNotInOwnerMachine(f"block {owner!r} has no state machine")
        source = elements[fragment.source_role]
        target = elements[fragment.target_role]
        for state in (source, target):
            if state not in machine.states:
                raise StateNotInOwnerMachine(
                    f"state {state!r} is not in the machine of {owner!r}"
                )
        trigger = elements[fragment.trigger_role] if fragment.trigger_role else None
        effects = tuple(
            SendEffect(signal=elements[sig_role], target_block=elements[tgt_role])
            for sig_role, tgt_role in fragment.effect_specs
        )
        transition = make_transition(
            owner, source, target, trigger, effects, provenance=(requirement_id,)
        )
        pairs.setdefault(transition.id, (owner, transition))
    return tuple(pairs.values())


# ---------------------------------------------------------------------------
# Completion report
# ---------------------------------------------------------------------------


class MergeEntry(NamedTuple):
    owner: str
    transition_id: str
    requirement_ids: tuple[str, ...]


class ConflictVariant(NamedTuple):
    target: str
    effects: tuple[SendEffect, ...]
    requirement_ids: tuple[str, ...]


class ConflictRecord(NamedTuple):
    """Transitions that share (owner, source, trigger) but disagree.
    ``requirement_ids`` is every variant's ids, sorted."""

    owner: str
    source: str
    trigger: str | None
    variants: tuple[ConflictVariant, ...]
    requirement_ids: tuple[str, ...]


class UnmatchedEntry(NamedTuple):
    requirement_id: str
    diagnostics: tuple[str, ...]


class CompletionReport(NamedTuple):
    """The merge's sections of ``report.json``: every requirement id lands
    in exactly one of added / duplicates / conflicts / unmatched. What else
    a requirement led to is in its :class:`RequirementOutcome`."""

    added: tuple[MergeEntry, ...] = ()
    duplicates: tuple[MergeEntry, ...] = ()
    conflicts: tuple[ConflictRecord, ...] = ()
    unmatched: tuple[UnmatchedEntry, ...] = ()


class RequirementOutcome(NamedTuple):
    """What became of one requirement before merging.

    ``error`` is the ParseError, NoMatch, AmbiguousMatch or
    StateNotInOwnerMachine that stopped it, or None. ``match`` is set
    whenever matching succeeded, even if instantiation then failed.
    ``instance`` holds the (owner, transition) pairs of an instantiated
    requirement, whether or not a conflict then withheld it; it is None
    whenever ``error`` is set.
    """

    doc: RequirementDoc
    match: MatchResult | None = None
    error: ModcompleteError | None = None
    instance: tuple[tuple[str, Transition], ...] | None = None

    def diagnostics(self) -> tuple[str, ...]:
        """Report lines explaining ``error``."""
        if isinstance(self.error, ParseError):
            return (f"parse error: {self.error}",)
        if isinstance(self.error, NoMatch):
            return tuple(d.render() for d in self.error.diagnostics) or ("knowledge base is empty",)
        return (str(self.error),)


class CompletionResult(NamedTuple):
    model: SystemModel
    report: CompletionReport
    trace: tuple[TraceRecord, ...]
    outcomes: tuple[RequirementOutcome, ...]


def complete_model(
    model: SystemModel, corpus: list[RequirementDoc], kb: KnowledgeBase
) -> CompletionResult:
    """Run the whole pipeline over a corpus, in corpus order.

    The output model is always valid; requirement-level failures are
    recorded (never raised) in ``outcomes``, one per requirement, and in
    the report's ``unmatched`` list. Candidate transitions that disagree on
    (owner, source, trigger) are withheld in full and reported as conflicts,
    so permuting the corpus cannot change the final model.
    """
    outcomes: list[RequirementOutcome] = []
    fragments = {metareq.id: metareq.fragment for metareq in kb.metareqs}
    mentions = Mentions(model)  # one lookup index and memo for the whole run

    for doc in corpus:
        match = error = instance = None
        try:
            match = match_requirement(parse_requirement(doc), kb, mentions)
            fragment = fragments[match.metareq_id]
            instance = instantiate_fragment(fragment, match.binding_sets, model, doc.id)
        except (ParseError, MatchError, StateNotInOwnerMachine) as exc:
            # Without its traceback, which holds this frame and so
            # ``outcomes``: the run then leaves no reference cycle.
            error = exc.with_traceback(None)
        outcomes.append(RequirementOutcome(doc, match, error, instance))

    instantiated = [o for o in outcomes if o.instance is not None]

    # The candidates by (owner, source, trigger), then by right-hand side:
    # (target, effects) -> ids of the requirements that give it.
    sides_by_key: dict[tuple[str, str, str | None], dict[tuple, set[str]]] = {}
    for doc, _, _, instance in instantiated:
        for owner, t in instance:
            key = (owner, t.source, t.trigger)
            sides_by_key.setdefault(key, {}).setdefault((t.target, t.effects), set()).add(doc.id)

    # Each owner machine a candidate names, read once: id -> (transition,
    # ids of the requirements that repeat it). An existing transition whose
    # key a candidate has is one more side of that key.
    machines: dict[str, dict[str, tuple[Transition, list[str]]]] = {o: {} for o, _, _ in sides_by_key}
    for owner, merged in machines.items():
        for t in model.block(owner).state_machine.transitions:
            merged[t.id] = (t, [])
            sides = sides_by_key.get((owner, t.source, t.trigger))
            if sides is not None:
                sides.setdefault((t.target, t.effects), set()).update(t.provenance)

    # More than one side is a conflict, and every requirement with a
    # conflicted candidate is withheld.
    conflicts = [
        ConflictRecord(
            owner, source, trigger,
            tuple(ConflictVariant(*rhs, tuple(sorted(ids))) for rhs, ids in sorted(sides.items())),
            tuple(sorted(set().union(*sides.values()))),
        )
        for (owner, source, trigger), sides in sides_by_key.items()
        if len(sides) > 1
    ]
    conflicted = {(c.owner, c.source, c.trigger) for c in conflicts}

    # The rest merge in corpus order: an id its owner's map holds already is
    # repeated, any other is new and joins the map.
    added: list[MergeEntry] = []
    duplicates: list[MergeEntry] = []
    trace: list[TraceRecord] = []
    for doc, match, _, instance in instantiated:
        if any((owner, t.source, t.trigger) in conflicted for owner, t in instance):
            continue
        new_ids: list[str] = []
        repeated_ids: list[str] = []
        for owner, t in instance:
            entry = machines[owner].get(t.id)
            if entry is not None:
                entry[1].append(doc.id)
                repeated_ids.append(t.id)
            else:
                machines[owner][t.id] = (t, [])
                new_ids.append(t.id)
                added.append(MergeEntry(owner, t.id, (doc.id,)))
        if not new_ids:
            duplicates.extend(MergeEntry(owner, t.id, (doc.id,)) for owner, t in instance)
        trace.append(build_trace(match, tuple(new_ids + repeated_ids), text=doc.text))

    report = CompletionReport(
        tuple(added), tuple(duplicates), tuple(conflicts),
        tuple(UnmatchedEntry(o.doc.id, o.diagnostics()) for o in outcomes if o.error is not None),
    )
    return CompletionResult(
        model=add_transition(model, machines), report=report, trace=tuple(trace),
        outcomes=tuple(outcomes),
    )


# ---------------------------------------------------------------------------
# Acceptability
# ---------------------------------------------------------------------------

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_INFO = "info"


class Finding(NamedTuple):
    kind: str
    severity: str
    message: str
    requirement_ids: tuple[str, ...] = ()


def check_acceptability(result: CompletionResult) -> list[Finding]:
    """Derive acceptability findings from a completion run.

    Conflicts are errors; redundancy and non-receivable signals are
    warnings; non-singular and unverifiable requirements are informational.
    Conflicts and redundancies come from ``result.report``; the rest come
    from ``result.outcomes`` in corpus order, so an instantiated requirement
    that a conflict withholds still has its signals checked. Each distinct
    (target block, signal) of a requirement's send effects is checked once,
    in first-seen order, against the block's ``receivable_signals`` in
    ``result.model``: None leaves the block unchecked, ``()`` receives nothing.
    """
    findings = [
        Finding(
            kind="Conflict",
            severity=SEVERITY_ERROR,
            message=(
                f"transitions from {c.source!r} on {c.trigger or '(no trigger)'} in {c.owner!r} "
                f"disagree ({len(c.variants)} variants)"
            ),
            requirement_ids=c.requirement_ids,
        )
        for c in result.report.conflicts
    ]
    findings.extend(
        Finding(
            kind="Redundancy",
            severity=SEVERITY_WARNING,
            message=f"requirement repeats transition {entry.transition_id} of {entry.owner!r}",
            requirement_ids=entry.requirement_ids,
        )
        for entry in result.report.duplicates
    )
    instantiated = [o for o in result.outcomes if o.instance is not None]
    findings.extend(
        Finding(
            kind="SignalNotReceivable",
            severity=SEVERITY_WARNING,
            message=f"block {block!r} does not list signal {signal!r} as receivable",
            requirement_ids=(o.doc.id,),
        )
        for o in instantiated
        for block, signal in dict.fromkeys((e.target_block, e.signal) for _, t in o.instance for e in t.effects)
        if (declared := result.model.block(block).receivable_signals) is not None and signal not in declared
    )
    findings.extend(
        Finding(
            kind="NonSingular",
            severity=SEVERITY_INFO,
            message="requirement produces more than one send effect",
            requirement_ids=(o.doc.id,),
        )
        for o in instantiated
        if any(len(t.effects) > 1 for _, t in o.instance)
    )
    findings.extend(
        Finding(
            kind="Unverifiable",
            severity=SEVERITY_INFO,
            message=(
                "requirement matched a rule but could not be instantiated in the model"
                if o.match is not None
                else "requirement could not be matched to the model"
            ),
            requirement_ids=(o.doc.id,),
        )
        for o in result.outcomes
        if o.error is not None
    )
    return findings
