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
from .matcher import BindingSet, MatchError, MatchResult, NoMatch, match_requirement
from .model import SendEffect, SystemModel, Transition, add_transition, make_transition
from .trace import TraceRecord, build_trace


class StateNotInOwnerMachine(ModcompleteError):
    """A bound state is absent from the owner block's machine."""


class ReceivabilityWarning(NamedTuple):
    """An effect targets a block whose declared signals lack the one sent."""

    requirement_id: str
    signal: str
    target_block: str


class FragmentInstance(NamedTuple):
    """Concrete transitions produced from one matched requirement."""

    pairs: tuple[tuple[str, Transition], ...]  # (owner, transition)
    warnings: tuple[ReceivabilityWarning, ...] = ()


def instantiate_fragment(
    fragment: MetaFragment,
    binding_sets: tuple[BindingSet, ...],
    model: SystemModel,
    requirement_id: str,
) -> FragmentInstance:
    """Fill a fragment from bindings; one transition per binding set.

    Raises:
        StateNotInOwnerMachine: a bound source or target state is not defined
            by the owner block's machine (or the owner has none). Effects
            whose target block does not list the sent signal are downgraded
            to :class:`ReceivabilityWarning`.
    """
    pairs: list[tuple[str, Transition]] = []
    warnings: list[ReceivabilityWarning] = []
    seen_ids: set[str] = set()
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
        for effect in effects:
            target_block = model.block(effect.target_block)
            assert target_block is not None
            declared = target_block.receivable_signals
            if declared is not None and effect.signal not in declared:
                warnings.append(
                    ReceivabilityWarning(requirement_id, effect.signal, effect.target_block)
                )
        transition = make_transition(
            owner, source, target, trigger, effects, provenance=(requirement_id,)
        )
        if transition.id not in seen_ids:
            seen_ids.add(transition.id)
            pairs.append((owner, transition))
    return FragmentInstance(tuple(pairs), tuple(warnings))


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
    """Transitions that share (owner, source, trigger) but disagree."""

    owner: str
    source: str
    trigger: str | None
    variants: tuple[ConflictVariant, ...]

    def requirement_ids(self) -> tuple[str, ...]:
        return tuple(sorted({rid for v in self.variants for rid in v.requirement_ids}))


class UnmatchedEntry(NamedTuple):
    requirement_id: str
    diagnostics: tuple[str, ...]


class CompletionReport(NamedTuple):
    """Outcome of a completion run; every requirement id lands in exactly
    one of added / duplicates / conflicts / unmatched. ``uninstantiated``
    names the unmatched ones that matched a rule but whose fragment could
    not be instantiated in the model."""

    added: tuple[MergeEntry, ...] = ()
    duplicates: tuple[MergeEntry, ...] = ()
    conflicts: tuple[ConflictRecord, ...] = ()
    unmatched: tuple[UnmatchedEntry, ...] = ()
    receivability_warnings: tuple[ReceivabilityWarning, ...] = ()
    multi_effect_requirements: tuple[str, ...] = ()
    uninstantiated: tuple[str, ...] = ()


class RequirementOutcome(NamedTuple):
    """What became of one requirement before merging.

    ``error`` is the ParseError, NoMatch, AmbiguousMatch or
    StateNotInOwnerMachine that stopped it, or None. ``match`` is set
    whenever matching succeeded, even if instantiation then failed.
    """

    doc: RequirementDoc
    match: MatchResult | None = None
    error: ModcompleteError | None = None

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
    attempts: list[tuple[RequirementDoc, MatchResult, FragmentInstance]] = []
    outcomes: list[RequirementOutcome] = []
    warnings: list[ReceivabilityWarning] = []
    multi_effect: list[str] = []
    fragments = {metareq.id: metareq.fragment for metareq in kb.metareqs}

    for doc in corpus:
        match = None
        try:
            match = match_requirement(parse_requirement(doc), kb, model)
            fragment = fragments[match.metareq_id]
            instance = instantiate_fragment(fragment, match.binding_sets, model, doc.id)
        except (ParseError, MatchError, StateNotInOwnerMachine) as exc:
            # Without its traceback, which holds this frame and so
            # ``outcomes``: the run then leaves no reference cycle.
            outcomes.append(RequirementOutcome(doc, match, exc.with_traceback(None)))
            continue
        outcomes.append(RequirementOutcome(doc, match))
        attempts.append((doc, match, instance))
        warnings.extend(instance.warnings)
        if len(fragment.effect_specs) > 1:
            multi_effect.append(doc.id)

    conflicts, withheld = _detect_conflicts(model, attempts)

    # A candidate is new when its id is neither in its owner's machine nor
    # added by an earlier requirement. Only the machines named are read.
    known: dict[str, set[str]] = {}
    candidates: list[tuple[str, Transition]] = []
    added: list[MergeEntry] = []
    duplicates: list[MergeEntry] = []
    trace: list[TraceRecord] = []
    for doc, match, instance in attempts:
        if doc.id in withheld:
            continue
        added_ids: list[str] = []
        duplicate_ids: list[str] = []
        for owner, transition in instance.pairs:
            ids = known.get(owner)
            if ids is None:
                ids = known[owner] = {t.id for t in model.block(owner).state_machine.transitions}
            if transition.id in ids:
                duplicate_ids.append(transition.id)
            else:
                ids.add(transition.id)
                added_ids.append(transition.id)
                added.append(MergeEntry(owner, transition.id, (doc.id,)))
        if not added_ids:
            for owner, transition in instance.pairs:
                duplicates.append(MergeEntry(owner, transition.id, (doc.id,)))
        candidates.extend(instance.pairs)
        trace.append(build_trace(match, tuple(added_ids + duplicate_ids), text=doc.text))

    report = CompletionReport(
        added=tuple(added),
        duplicates=tuple(duplicates),
        conflicts=tuple(conflicts),
        unmatched=tuple(
            UnmatchedEntry(o.doc.id, o.diagnostics()) for o in outcomes if o.error is not None
        ),
        receivability_warnings=tuple(warnings),
        multi_effect_requirements=tuple(multi_effect),
        uninstantiated=tuple(
            o.doc.id for o in outcomes if o.error is not None and o.match is not None
        ),
    )
    return CompletionResult(
        model=add_transition(model, candidates), report=report, trace=tuple(trace),
        outcomes=tuple(outcomes),
    )


def _detect_conflicts(
    model: SystemModel, attempts: list[tuple[RequirementDoc, MatchResult, FragmentInstance]]
) -> tuple[list[ConflictRecord], set[str]]:
    """Group candidates by (owner, source, trigger); >1 right-hand side is a
    conflict. Returns the records plus the ids of withheld requirements (a
    requirement with any conflicted candidate is withheld atomically)."""
    Key = tuple[str, str, str | None]
    Rhs = tuple[str, tuple[SendEffect, ...]]

    sides_by_key: dict[Key, dict[Rhs, set[str]]] = {}
    per_requirement: dict[str, set[Key]] = {}
    for doc, _, instance in attempts:
        for owner, t in instance.pairs:
            key = (owner, t.source, t.trigger)
            sides_by_key.setdefault(key, {}).setdefault((t.target, t.effects), set()).add(doc.id)
            per_requirement.setdefault(doc.id, set()).add(key)
    # Only an existing transition whose key some candidate has can conflict.
    for block in model.blocks:
        for t in block.state_machine.transitions if block.state_machine else ():
            sides = sides_by_key.get((block.name, t.source, t.trigger))
            if sides is not None:
                sides.setdefault((t.target, t.effects), set()).update(t.provenance)

    conflicts: list[ConflictRecord] = []
    conflicted_keys: set[Key] = set()
    for key, sides in sides_by_key.items():
        if len(sides) < 2:
            continue
        conflicted_keys.add(key)
        owner, source, trigger = key
        variants = tuple(
            ConflictVariant(target=rhs[0], effects=rhs[1], requirement_ids=tuple(sorted(ids)))
            for rhs, ids in sorted(sides.items(), key=lambda kv: kv[0])
        )
        conflicts.append(ConflictRecord(owner, source, trigger, variants))

    withheld = {
        rid for rid, keys in per_requirement.items() if keys & conflicted_keys
    }
    return conflicts, withheld


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


def check_acceptability(report: CompletionReport) -> list[Finding]:
    """Derive acceptability findings from a completion report.

    Conflicts are errors; redundancy and non-receivable signals are
    warnings; non-singular and unverifiable requirements are informational.
    """
    findings: list[Finding] = []
    for conflict in report.conflicts:
        trigger = conflict.trigger or "(no trigger)"
        findings.append(
            Finding(
                kind="Conflict",
                severity=SEVERITY_ERROR,
                message=(
                    f"transitions from {conflict.source!r} on {trigger} in {conflict.owner!r} "
                    f"disagree ({len(conflict.variants)} variants)"
                ),
                requirement_ids=conflict.requirement_ids(),
            )
        )
    for entry in report.duplicates:
        findings.append(
            Finding(
                kind="Redundancy",
                severity=SEVERITY_WARNING,
                message=(
                    f"requirement repeats transition {entry.transition_id} of {entry.owner!r}"
                ),
                requirement_ids=entry.requirement_ids,
            )
        )
    for warning in report.receivability_warnings:
        findings.append(
            Finding(
                kind="SignalNotReceivable",
                severity=SEVERITY_WARNING,
                message=(
                    f"block {warning.target_block!r} does not list signal {warning.signal!r} "
                    "as receivable"
                ),
                requirement_ids=(warning.requirement_id,),
            )
        )
    for rid in report.multi_effect_requirements:
        findings.append(
            Finding(
                kind="NonSingular",
                severity=SEVERITY_INFO,
                message="requirement produces more than one send effect",
                requirement_ids=(rid,),
            )
        )
    uninstantiated = set(report.uninstantiated)
    for entry in report.unmatched:
        findings.append(
            Finding(
                kind="Unverifiable",
                severity=SEVERITY_INFO,
                message=(
                    "requirement matched a rule but could not be instantiated in the model"
                    if entry.requirement_id in uninstantiated
                    else "requirement could not be matched to the model"
                ),
                requirement_ids=(entry.requirement_id,),
            )
        )
    return findings
