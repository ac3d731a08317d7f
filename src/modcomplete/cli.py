"""Command-line interface: complete, check and kb-lint subcommands.

Exit codes: 0 means no error-level findings, 2 means conflicts or validation
errors were found, 1 means an input file was missing or unreadable. Stdout
is for humans; machine-readable data goes to the output files, which are
written atomically (temp file plus rename). With ``--strict``, warnings
count as errors for the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import string
import sys
import tempfile

from .errors import ModcompleteError
# parse_requirement and match_requirement are unused here; they stay
# attributes of this module because bench/traced_cli.py wraps them by name.
from .gherkin import ParseError, RequirementDoc, parse_corpus, parse_requirement  # noqa: F401
from .generator import (
    CompletionReport,
    Finding,
    RequirementOutcome,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    check_acceptability,
    complete_model,
)
from .kb import KnowledgeBase, default_kb, parse_kb, shadowed_rules
from .matcher import AmbiguousMatch, NoMatch, match_requirement  # noqa: F401
from .model import SystemModel, load_model, save_model
from .trace import emit_requirement_diagram, emit_trace_json

KB_ENV_VAR = "MODCOMPLETE_KB"

#: Characters kept as they are in diagram file names; all others are
#: percent-encoded, so distinct requirement ids never share a file.
_FILENAME_CHARS = frozenset(string.ascii_letters + string.digits + "._-")


class InputError(ModcompleteError):
    pass


def _read_file(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from None


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".modcomplete-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_inputs(args: argparse.Namespace) -> tuple[SystemModel, list[RequirementDoc], KnowledgeBase]:
    try:
        model = load_model(_read_file(args.model, "model"))
        corpus = parse_corpus(_read_file(args.reqs, "requirements"))
        kb = parse_kb(_read_file(args.kb, "knowledge base")) if args.kb else default_kb()
    except ModcompleteError as exc:
        raise InputError(str(exc)) from None
    return model, corpus, kb


def _exit_code(findings: list[Finding], strict: bool) -> int:
    severities = {f.severity for f in findings}
    if SEVERITY_ERROR in severities:
        return 2
    if strict and SEVERITY_WARNING in severities:
        return 2
    return 0


def _report_doc(report: CompletionReport, findings: list[Finding]) -> dict:
    return {
        "version": "1",
        "added": [
            {
                "owner": e.owner,
                "transition_id": e.transition_id,
                "requirement_ids": list(e.requirement_ids),
            }
            for e in report.added
        ],
        "duplicates": [
            {
                "owner": e.owner,
                "transition_id": e.transition_id,
                "requirement_ids": list(e.requirement_ids),
            }
            for e in report.duplicates
        ],
        "conflicts": [
            {
                "owner": c.owner,
                "source": c.source,
                "trigger": c.trigger,
                "requirement_ids": list(c.requirement_ids()),
                "variants": [
                    {
                        "target": v.target,
                        "effects": [
                            {"signal": e.signal, "target_block": e.target_block}
                            for e in v.effects
                        ],
                        "requirement_ids": list(v.requirement_ids),
                    }
                    for v in c.variants
                ],
            }
            for c in report.conflicts
        ],
        "unmatched": [
            {"requirement_id": u.requirement_id, "diagnostics": list(u.diagnostics)}
            for u in report.unmatched
        ],
        "findings": [
            {
                "kind": f.kind,
                "severity": f.severity,
                "message": f.message,
                "requirement_ids": list(f.requirement_ids),
            }
            for f in findings
        ],
    }


def _diagram_filename(requirement_id: str) -> str:
    safe = "".join(
        ch if ch in _FILENAME_CHARS else "".join(f"%{b:02X}" for b in ch.encode("utf-8"))
        for ch in requirement_id
    )
    return f"RD-{safe}.puml"


def _print_findings(findings: list[Finding]) -> None:
    for finding in findings:
        ids = ", ".join(finding.requirement_ids)
        print(f"  [{finding.severity}] {finding.kind}: {finding.message} ({ids})")


def cmd_complete(args: argparse.Namespace) -> int:
    """Complete the model and write model, report, trace and diagram files."""
    try:
        model, corpus, kb = _load_inputs(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = complete_model(model, corpus, kb)
    findings = check_acceptability(result.report, result.model)

    _atomic_write(args.out, save_model(result.model))
    _atomic_write(
        args.report,
        json.dumps(_report_doc(result.report, findings), indent=2, sort_keys=True, ensure_ascii=False) + "\n",
    )
    _atomic_write(args.trace, emit_trace_json(result.trace))
    if args.diagrams is not None:
        for record in sorted(result.trace, key=lambda r: r.requirement_id):
            diagram = emit_requirement_diagram(record, result.model)
            if diagram is not None:
                _atomic_write(
                    os.path.join(args.diagrams, _diagram_filename(record.requirement_id)),
                    diagram,
                )

    report = result.report
    print(
        f"completed {args.model}: "
        f"{len(report.added)} added, {len(report.duplicates)} duplicate(s), "
        f"{len(report.conflicts)} conflict(s), {len(report.unmatched)} unmatched"
    )
    _print_findings(findings)
    return _exit_code(findings, args.strict)


def _print_verdict(outcome: RequirementOutcome, explain: bool) -> None:
    rid, error, match = outcome.doc.id, outcome.error, outcome.match
    if isinstance(error, ParseError):
        print(f"{rid}: parse error: {error}")
    elif isinstance(error, NoMatch):
        print(f"{rid}: NoMatch")
        if explain:
            for diagnostic in error.diagnostics:
                print(f"    {diagnostic.render()}")
        elif error.diagnostics:
            print(f"    closest: {error.diagnostics[0].render()}")
    elif isinstance(error, AmbiguousMatch):
        print(f"{rid}: AmbiguousMatch ({error.metareq_id})")
        if explain:
            for i, binding_set in enumerate(error.binding_sets, start=1):
                rendered = ", ".join(f"{b.role}={b.element}" for b in binding_set)
                print(f"    set {i}: {rendered}")
    else:
        # Matched; a failed instantiation shows up among the findings.
        assert match is not None
        suffix = ""
        if match.alternatives_consumed:
            suffix = f", {match.alternatives_consumed} alternatives"
        print(f"{rid}: {match.metareq_id} ({len(match.bindings)} bindings{suffix})")
        if explain:
            for binding in match.bindings:
                print(f"    {binding.role} ({binding.metaclass.value}) = {binding.element}"
                      f"  <- {binding.phrase!r}")


def cmd_check(args: argparse.Namespace) -> int:
    """Dry run of the complete pipeline: print a per-requirement verdict,
    write nothing."""
    try:
        model, corpus, kb = _load_inputs(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = complete_model(model, corpus, kb)
    for outcome in result.outcomes:
        _print_verdict(outcome, args.explain)
    findings = check_acceptability(result.report, result.model)
    _print_findings(findings)
    return _exit_code(findings, args.strict)


def cmd_kb_lint(args: argparse.Namespace) -> int:
    """Parse and validate a knowledge base; report shadowed rules."""
    try:
        kb = parse_kb(_read_file(args.kb, "knowledge base")) if args.kb else default_kb()
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ModcompleteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not kb.metareqs:
        print("warning: knowledge base defines no templates")
    shadowed = shadowed_rules(kb)
    for high, low in shadowed:
        print(f"error: {low.id} is shadowed by higher-priority {high.id}")
    if shadowed:
        return 2
    print(f"ok: {len(kb.metareqs)} rule(s), {len(kb.fragments)} fragment(s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modcomplete",
        description="Complete a partial state-machine model from Given-When-Then requirements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", required=True, help="model document (JSON)")
        p.add_argument("--reqs", required=True, help="requirements feature file")
        p.add_argument("--kb", default=None, help=f"knowledge base file (default: ${KB_ENV_VAR} or built-in)")
        p.add_argument("--strict", action="store_true", help="treat warnings as errors")

    complete = sub.add_parser("complete", help="complete the model and write outputs")
    add_io_args(complete)
    complete.add_argument("--out", default="completed_model.json", help="completed model path")
    complete.add_argument("--report", default="report.json", help="report path")
    complete.add_argument("--trace", default="trace.json", help="trace path")
    complete.add_argument("--diagrams", default=None, help="directory for requirement diagrams")
    complete.set_defaults(run=cmd_complete)

    check = sub.add_parser("check", help="match requirements without writing outputs")
    add_io_args(check)
    check.add_argument("--explain", action="store_true", help="verbose per-slot explanations")
    check.set_defaults(run=cmd_check)

    lint = sub.add_parser("kb-lint", help="validate a knowledge base")
    lint.add_argument("--kb", default=None, help=f"knowledge base file (default: ${KB_ENV_VAR} or built-in)")
    lint.set_defaults(run=cmd_kb_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.kb = args.kb or os.environ.get(KB_ENV_VAR)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
