"""Command-line interface: complete, check and kb-lint subcommands.

Exit codes: 0 means no error-level findings; 2 means conflicts were found,
or, for ``kb-lint``, that the knowledge base is malformed or shadows a rule.
1 means an input file was missing, unreadable or invalid (a model that fails
its schema or validation, a corpus that repeats an ``@id:``, a malformed
knowledge base), an output file could not be written, two of ``complete``'s
outputs, a diagram and the model, report or trace included, name the same
file (or one names a directory that another must be written in), or (in the
command, :func:`run`) stdout was closed before all output was written.
With ``--strict``, warnings count as errors for the exit code.

Stdout is for humans; machine-readable data goes to the output files, which
are canonical JSON and UTF-8 whatever the locale. The command (:func:`run`)
sets stdout up once: a closed stdout (``>&-``) is ``os.devnull``, and text
that stdout's encoding cannot encode (a model path or requirement id under
an ASCII locale) is written with backslash escapes, as on stderr.
``complete`` stages every regular-file output as a temp file before it
renames any into place, so a failed write replaces no output and leaves no
directory it created; new files get the mode the umask allows.
An output that exists and is neither a regular file nor a directory (a FIFO,
a device) is written in place before any rename, stdout's file through stdout.
"""

import argparse
import errno
import gc
import os
import stat
import sys
from typing import NoReturn

from .errors import ModcompleteError
# parse_requirement and match_requirement are unused here; they stay
# attributes of this module because bench/traced_cli.py wraps them by name.
from .gherkin import ParseError, parse_corpus, parse_requirement  # noqa: F401
from .generator import (
    CompletionReport,
    CompletionResult,
    Finding,
    RequirementOutcome,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    check_acceptability,
    complete_model,
)
from .kb import default_kb, parse_kb, shadowed_rules
from .matcher import AmbiguousMatch, NoMatch, match_requirement  # noqa: F401
from .model import dump_canonical, load_model, save_model
from .trace import emit_requirement_diagram, emit_trace_json

KB_ENV_VAR = "MODCOMPLETE_KB"

#: Characters kept as they are in diagram file names; all others are
#: percent-encoded, so distinct requirement ids never share a file.
_FILENAME_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-")


class InputError(ModcompleteError):
    pass


def _read_file(path: str, what: str) -> str:
    """Read a UTF-8 input file; a leading byte-order mark is not part of the text."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path!r}: {exc}") from None


def _make_parents(path: str, made: list[str]) -> None:
    """Create the missing directories above ``path``, outermost first, and
    append each to ``made``. A parent that is not a directory raises
    NotADirectoryError."""
    missing = []
    directory = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(directory):
        missing.append(directory)
        directory = os.path.dirname(directory)
    if not os.path.isdir(directory):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), directory)
    for directory in reversed(missing):
        os.mkdir(directory)
        made.append(directory)


def _stage(path: str, text: str, n: int) -> str:
    """Write ``text`` to a new temp file beside ``path``, named
    ``.modcomplete-<pid>-<n>.tmp`` with the first free ``n`` from the one
    given; return its path. Nothing is renamed yet. The file is created as
    ``open(path, "w")`` creates one, so the umask sets its mode."""
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, f".modcomplete-{os.getpid()}-{n}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:  # left by an earlier run
            n += 1
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp


def _write_all(outputs: list[tuple[str, str, str, str]]) -> None:
    """Write every (option, what, path, text) output, or none of them.

    Two outputs naming one file, or an output inside a directory that
    another output names, are refused before anything is staged. Missing
    directories are created, every output that is or will be a regular
    file is staged as a temp file beside the file a symbolic link names,
    outputs such as a FIFO, a device or stdout's file (through stdout) are
    written in place, and only then are the temp files renamed into place:
    an output that cannot be written leaves every existing regular file as
    it was and no new empty directory. Files get the mode ``open(path, "w")``
    would give a new file. Raises InputError.
    """
    seen: dict[str, tuple[str, str]] = {}
    reals = [os.path.realpath(path) for _, _, path, _ in outputs]
    for (option, _, path, _), real in zip(outputs, reals):
        if real in seen:
            raise InputError(f"--{seen[real][0]} and --{option} name the same file {path!r}")
        seen[real] = option, path
    for (option, _, _, _), real in zip(outputs, reals):
        parent = os.path.dirname(real)
        while parent not in seen and parent != os.path.dirname(parent):
            parent = os.path.dirname(parent)
        if parent in seen:
            other, other_path = seen[parent]
            raise InputError(f"--{other} and --{option} name the same file {other_path!r}")
    try:
        stdout = os.fstat(sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):  # no descriptor, as under pytest's capsys
        stdout = None
    made: list[str] = []
    staged: list[tuple[str, str, str, str]] = []  # what, path, temp file, the file it replaces
    in_place: list[tuple[str, str, str, os.stat_result]] = []  # what, path, text, its stat
    renamed = 0
    try:
        # An OSError leaves ``what`` and ``path`` naming the output it hit.
        for _, what, path, _ in outputs:
            _make_parents(path, made)
        for (_, what, path, text), real in zip(outputs, reals):
            try:
                st = os.stat(path)
            except FileNotFoundError:
                st = None
            if st is None or stat.S_ISREG(st.st_mode) and not (stdout and os.path.samestat(st, stdout)):
                staged.append((what, path, _stage(real, text, len(staged)), real))
            elif stat.S_ISDIR(st.st_mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            else:
                in_place.append((what, path, text, st))
        for what, path, text, st in in_place:
            if stdout and os.path.samestat(st, stdout):  # at its offset, before the summary
                sys.stdout.flush()
                sys.stdout.buffer.write(text.encode("utf-8"))
                continue
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        for what, path, tmp, real in staged:
            os.replace(tmp, real)
            renamed += 1
    except BaseException as exc:
        # Only names not yet renamed are still this run's: once renamed, a
        # name is free for another writer to create.
        for _, _, tmp, _ in staged[renamed:]:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
        # Deepest first; a directory that holds a renamed output stays.
        for directory in reversed(made):
            try:
                os.rmdir(directory)
            except OSError:
                pass
        if isinstance(exc, OSError):
            raise InputError(f"cannot write {what} {path!r}: {exc}") from None
        raise


def _run(args: argparse.Namespace) -> tuple[CompletionResult, list[Finding]]:
    """Load the inputs, complete the model and score the result."""
    try:
        model = load_model(_read_file(args.model, "model"))
        corpus = parse_corpus(_read_file(args.reqs, "requirements"))
        kb = parse_kb(_read_file(args.kb, "knowledge base")) if args.kb else default_kb()
    except ModcompleteError as exc:
        raise InputError(str(exc)) from None
    result = complete_model(model, corpus, kb)
    return result, check_acceptability(result)


def _exit_code(findings: list[Finding], strict: bool) -> int:
    severities = {f.severity for f in findings}
    if SEVERITY_ERROR in severities:
        return 2
    if strict and SEVERITY_WARNING in severities:
        return 2
    return 0


def _report_doc(report: CompletionReport, findings: list[Finding]) -> dict:
    """Each of the report's sections, under its field name, and the findings."""
    return {"version": "1", **report._asdict(), "findings": findings}


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
    result, findings = _run(args)
    outputs = [
        ("out", "model", args.out, save_model(result.model)),
        ("report", "report", args.report, dump_canonical(_report_doc(result.report, findings))),
        ("trace", "trace", args.trace, emit_trace_json(result.trace)),
    ]
    if args.diagrams is not None:
        for record in sorted(result.trace, key=lambda r: r.requirement_id):
            diagram = emit_requirement_diagram(record)
            if diagram is not None:
                path = os.path.join(args.diagrams, _diagram_filename(record.requirement_id))
                outputs.append(("diagrams", "diagram", path, diagram))
    _write_all(outputs)

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
        if explain or not error.diagnostics:
            for line in outcome.diagnostics():
                print(f"    {line}")
        else:
            print(f"    closest: {error.diagnostics[0].render()}")
    elif isinstance(error, AmbiguousMatch):
        print(f"{rid}: AmbiguousMatch ({error.metareq_id})")
        if explain:
            for i, binding_set in enumerate(error.binding_sets, start=1):
                rendered = ", ".join(f"{b.role}={b.element}" for b in binding_set)
                print(f"    set {i}: {rendered}")
    else:
        # Matched; a StateNotInOwnerMachine that stopped instantiation is printed below.
        assert match is not None
        suffix = ""
        if match.alternatives_consumed:
            suffix = f", {match.alternatives_consumed} alternatives"
        print(f"{rid}: {match.metareq_id} ({len(match.bindings)} bindings{suffix})")
        if error is not None:
            for line in outcome.diagnostics():
                print(f"    {line}")
        if explain:
            for binding in match.bindings:
                print(f"    {binding.role} ({binding.metaclass.value}) = {binding.element}"
                      f"  <- {binding.phrase!r}")


def cmd_check(args: argparse.Namespace) -> int:
    """Dry run of the complete pipeline: print a per-requirement verdict,
    write nothing."""
    result, findings = _run(args)
    for outcome in result.outcomes:
        _print_verdict(outcome, args.explain)
    _print_findings(findings)
    return _exit_code(findings, args.strict)


def cmd_kb_lint(args: argparse.Namespace) -> int:
    """Parse and validate a knowledge base; report shadowed rules."""
    text = _read_file(args.kb, "knowledge base") if args.kb else None
    try:
        kb = default_kb() if text is None else parse_kb(text)
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
    try:
        return args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """The ``modcomplete`` command: run :func:`main` on ``sys.argv`` and exit.

    A reader that closes stdout early (``modcomplete check ... | head -1``)
    ends the run with exit code 1 and no traceback; the rest of the output
    goes to ``os.devnull``. The run leaves no reference cycles, so before
    exiting every object is moved out of the collector's reach with
    ``gc.freeze()``: the interpreter's collections at shutdown then have
    nothing to traverse. The exit is ``sys.exit``, so atexit handlers (and
    ``python -m cProfile``) still run. Use :func:`main` to run the CLI in a
    process that goes on afterwards.
    """
    if sys.stdout is None:  # descriptor 1 closed
        sys.stdout = open(os.open(os.devnull, os.O_WRONLY), "w", encoding="utf-8", closefd=False)
    elif sys.stdout.errors == "strict":  # a locale's surrogateescape is kept
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
