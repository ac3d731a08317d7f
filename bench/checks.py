"""Compare what the CLI wrote or printed with the generator's expectations.

Every check returns the ids of the requirements whose outcome is wrong and
the count of each outcome the run reported. A problem that is not tied to
one requirement (a wrong exit code, a stray transition in the output model,
a missing diagram) fails every requirement of the run.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter

from workloads import FRAGMENT_ROLES, OUTCOMES, Req, Trans, Workload

_AMBIGUOUS_DIAG = re.compile(r"fits in \d+ distinct ways")
_VERDICT = re.compile(
    r"^(?P<rid>\S+): (?:(?P<parse>parse error: .*)|(?P<nomatch>NoMatch)|"
    r"(?P<amb>AmbiguousMatch) \(\w+\)|(?P<rule>\w+) \(\d+ bindings(?:, (?P<alts>\d+) alternatives)?\))$"
)
_BINDING = re.compile(r"^    (?P<role>\S+) \((?:Block|State|Signal)\) = (?P<element>\S+)  <- ")
_FINDING = re.compile(r"^  \[(?P<severity>\w+)\] (?P<kind>\w+): (?P<message>.*) \((?P<ids>[^()]*)\)$")
_CONFLICT_MSG = re.compile(r"^transitions from '(?P<source>.+)' on (?P<trigger>\S+|\(no trigger\)) "
                           r"in '(?P<owner>.+)' disagree")


def expected_exit_code(workload: Workload) -> int:
    return 2 if any(r.outcome == "conflict" for r in workload.reqs) else 0


def transition_of(rule: str, elements: dict[str, str]) -> Trans:
    """The transition a rule's fragment builds from role -> element bindings."""
    owner, source, target, trigger, effect = FRAGMENT_ROLES[rule]
    effects = ((elements[effect[0]], elements[effect[1]]),) if effect else ()
    return (elements[owner], elements[source], elements[target],
            elements[trigger] if trigger else None, effects)


def _model_transitions(model_doc: dict) -> dict[str, tuple[Trans, tuple[str, ...]]]:
    out = {}
    for block in model_doc["blocks"]:
        machine = block.get("state_machine") or {}
        for t in machine.get("transitions", []):
            effects = tuple((e["signal"], e["target_block"]) for e in t["effects"])
            content = (block["name"], t["source"], t["target"], t.get("trigger"), effects)
            out[t["id"]] = (content, tuple(t["provenance"]))
    return out


def _counts(outcomes: dict[str, str]) -> dict[str, int]:
    counts = Counter(outcomes.values())
    return {k: counts[k] for k in OUTCOMES}


def check_complete(workload: Workload, outdir: str, returncode: int,
                   diagrams: bool) -> tuple[set[str], dict[str, int]]:
    """Check model.json, report.json, trace.json (and diagrams) of one run."""
    everyone = {r.rid for r in workload.reqs}
    legacy = workload.provenance_ids()
    if returncode != expected_exit_code(workload):
        return everyone, {}
    with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    with open(os.path.join(outdir, "model.json"), encoding="utf-8") as fh:
        transitions = _model_transitions(json.load(fh))
    with open(os.path.join(outdir, "trace.json"), encoding="utf-8") as fh:
        trace = {rec["requirement_id"]: rec for rec in json.load(fh)}

    outcomes: dict[str, set[str]] = {rid: set() for rid in everyone}
    conflict_keys: dict[str, set] = {rid: set() for rid in everyone}
    for section, outcome in (("added", "added"), ("duplicates", "duplicate")):
        for entry in report[section]:
            for rid in entry["requirement_ids"]:
                outcomes.setdefault(rid, set()).add(outcome)
    for record in report["conflicts"]:
        # A conflict with a transition the model already held also names
        # that transition's provenance.
        for rid in set(record["requirement_ids"]) - legacy:
            outcomes.setdefault(rid, set()).add("conflict")
            conflict_keys.setdefault(rid, set()).add((record["owner"], record["source"], record["trigger"]))
    for entry in report["unmatched"]:
        ambiguous = any(_AMBIGUOUS_DIAG.search(d) for d in entry["diagnostics"])
        outcomes.setdefault(entry["requirement_id"], set()).add("ambiguous" if ambiguous else "unmatched")
    counts = _counts({rid: "/".join(sorted(s)) for rid, s in outcomes.items()})
    if set(outcomes) != everyone or set(trace) - everyone:
        return everyone, counts

    # The completed model holds exactly the input transitions plus every
    # transition of an added or duplicate requirement.
    merged = set(workload.existing)
    for req in workload.reqs:
        if req.outcome in ("added", "duplicate"):
            merged.update(req.transitions)
    contents = [content for content, _ in transitions.values()]
    if len(contents) != len(merged) or set(contents) != merged:
        return everyone, counts
    if diagrams:
        files = set(os.listdir(os.path.join(outdir, "diagrams")))
        if files != {f"RD-{r.rid}.puml" for r in workload.reqs if r.outcome in ("added", "duplicate")}:
            return everyone, counts

    failed = set()
    for req in workload.reqs:
        ok = outcomes[req.rid] == {req.outcome}
        record = trace.get(req.rid)
        if req.outcome in ("added", "duplicate"):
            generated = [transitions.get(tid) for tid in record["generated"]] if record else [None]
            ok = ok and None not in generated and record["metareq_id"] == req.rule and (
                {content for content, _ in generated} == set(req.transitions)
                and all(req.rid in provenance for _, provenance in generated)
            )
        else:
            ok = ok and record is None
        if req.outcome == "conflict":
            ok = ok and conflict_keys[req.rid] == set(req.conflict_keys)
        if not ok:
            failed.add(req.rid)
    return failed, counts


def check_check(workload: Workload, stdout: str, returncode: int) -> tuple[set[str], dict[str, int]]:
    """Check the verdict, binding and finding lines of ``check --explain``."""
    everyone = {r.rid for r in workload.reqs}
    legacy = workload.provenance_ids()
    if returncode != expected_exit_code(workload):
        return everyone, {}
    verdicts: dict[str, tuple] = {}
    bindings: dict[str, dict[str, str]] = {}
    findings: dict[str, set[str]] = {}
    conflict_keys: dict[str, set] = {}
    current = None
    for line in stdout.splitlines():
        if m := _VERDICT.match(line):
            rid = m["rid"]
            if rid in verdicts:
                return everyone, {}
            if m["rule"]:
                verdicts[rid] = ("match", m["rule"], int(m["alts"] or 0))
                bindings[rid] = {}
                current = rid
            else:
                verdicts[rid] = ("ambiguous",) if m["amb"] else ("unmatched",)
                current = None
        elif (m := _BINDING.match(line)) and current is not None:
            bindings[current][m["role"]] = m["element"]
        elif m := _FINDING.match(line):
            current = None
            for rid in set(m["ids"].split(", ")) - legacy:
                findings.setdefault(rid, set()).add(m["kind"])
                if m["kind"] == "Conflict":
                    c = _CONFLICT_MSG.match(m["message"])
                    trigger = None if c["trigger"] == "(no trigger)" else c["trigger"]
                    conflict_keys.setdefault(rid, set()).add((c["owner"], c["source"], trigger))
    if set(verdicts) != everyone or set(findings) - everyone:
        return everyone, {}

    failed = set()
    outcomes = {}
    for req in workload.reqs:
        verdict = verdicts[req.rid]
        kinds = findings.get(req.rid, set())
        if verdict[0] != "match":
            outcome = verdict[0]
            ok = outcome == req.outcome and kinds == {"Unverifiable"}
        else:
            outcome = "conflict" if "Conflict" in kinds else "duplicate" if "Redundancy" in kinds else "added"
            ok = (outcome == req.outcome and kinds <= {"Conflict", "Redundancy"}
                  and verdict[1:] == (req.rule, req.alternatives))
            try:
                ok = ok and transition_of(req.rule, bindings[req.rid]) == req.transitions[0]
            except KeyError:
                ok = False
            if outcome == "conflict":
                ok = ok and conflict_keys[req.rid] == set(req.conflict_keys)
        outcomes[req.rid] = outcome
        if not ok:
            failed.add(req.rid)
    return failed, _counts(outcomes)


def expected_match(req: Req) -> tuple:
    if req.kind == "match":
        return ("ok", req.rule, req.alternatives, req.transitions)
    return ("NoMatch",) if req.kind == "unmatched" else ("AmbiguousMatch",)


def oracle_spot_check(workload: Workload, sample: list[Req], model_text: str,
                      feature_text: str, kb_text: str) -> list[str]:
    """``match_requirement`` and ``oracle_match`` must agree with each other
    and with the generator on every sampled requirement."""
    from modcomplete import (AmbiguousMatch, NoMatch, load_model, match_requirement,
                             oracle_match, parse_corpus, parse_kb, parse_requirement)
    from modcomplete.gherkin import ParseError

    model, kb = load_model(model_text), parse_kb(kb_text)
    docs = {doc.id: doc for doc in parse_corpus(feature_text)}

    def outcome(fn, ast) -> tuple:
        try:
            result = fn(ast, kb, model)
        except NoMatch:
            return ("NoMatch",)
        except AmbiguousMatch:
            return ("AmbiguousMatch",)
        sets = tuple(transition_of(result.metareq_id, {b.role: b.element for b in s})
                     for s in result.binding_sets)
        return ("ok", result.metareq_id, result.alternatives_consumed, sets)

    problems = []
    for req in sample:
        try:
            ast = parse_requirement(docs[req.rid])
        except ParseError:
            if req.kind != "unmatched":
                problems.append(f"{req.rid}: unexpected parse error")
            continue
        main, ref = outcome(match_requirement, ast), outcome(oracle_match, ast)
        if not main == ref == expected_match(req):
            problems.append(f"{req.rid}: matcher {main[:2]}, oracle {ref[:2]}, expected {expected_match(req)[:2]}")
    return problems
