from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from modcomplete.cli import main
from modcomplete.kb import DEFAULT_KB_TEXT

from conftest import FIXTURES, RAILWAY_REQUIREMENT
from support import sized_rule


def run_complete(tmp_path: Path, model: str, reqs: str, *extra: str) -> tuple[int, Path]:
    out = tmp_path / "out"
    code = main(
        [
            "complete",
            "--model", model,
            "--reqs", reqs,
            "--out", str(out / "model.json"),
            "--report", str(out / "report.json"),
            "--trace", str(out / "trace.json"),
            "--diagrams", str(out / "diagrams"),
            *extra,
        ]
    )
    return code, out


def test_complete_railway_fixture(tmp_path, capsys):
    code, out = run_complete(
        tmp_path, str(FIXTURES / "railway_model.json"), str(FIXTURES / "railway.feature")
    )
    assert code == 0
    assert (out / "model.json").is_file()
    assert (out / "report.json").is_file()
    assert (out / "trace.json").is_file()
    assert (out / "diagrams" / "RD-REQ-001.puml").is_file()
    model_doc = json.loads((out / "model.json").read_text(encoding="utf-8"))
    train = next(b for b in model_doc["blocks"] if b["name"] == "Train")
    assert len(train["state_machine"]["transitions"]) == 1
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert len(report["added"]) == 1 and report["conflicts"] == []
    assert "1 added" in capsys.readouterr().out


def test_complete_conflict_fixture(tmp_path):
    code, out = run_complete(
        tmp_path, str(FIXTURES / "railway_model.json"), str(FIXTURES / "conflict.feature")
    )
    assert code == 2
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert len(report["conflicts"]) == 1
    assert report["conflicts"][0]["requirement_ids"] == ["REQ-A", "REQ-B"]
    assert any(f["kind"] == "Conflict" and f["severity"] == "error" for f in report["findings"])


def test_diagram_names_do_not_collide(tmp_path):
    reqs = tmp_path / "ids.feature"
    reqs.write_text(
        "Scenario: slash\n@id: X/1\n" + RAILWAY_REQUIREMENT + "\n"
        "Scenario: underscore\n@id: X_1\n"
        "Given a Train in braking, When the Braking Supervision receives an "
        "Emergency Stop Message, Then the Train goes in running.\n",
        encoding="utf-8",
    )
    code, out = run_complete(tmp_path, str(FIXTURES / "railway_model.json"), str(reqs))
    assert code == 0
    diagrams = out / "diagrams"
    assert sorted(p.name for p in diagrams.iterdir()) == ["RD-X%2F1.puml", "RD-X_1.puml"]
    assert "X/1" in (diagrams / "RD-X%2F1.puml").read_text(encoding="utf-8")
    assert "X_1" in (diagrams / "RD-X_1.puml").read_text(encoding="utf-8")


def test_complete_missing_model_file(tmp_path, capsys):
    code, out = run_complete(
        tmp_path, str(tmp_path / "nope.json"), str(FIXTURES / "railway.feature")
    )
    assert code == 1
    assert not out.exists()
    assert "cannot read model" in capsys.readouterr().err


def test_complete_malformed_model_is_input_failure(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out = run_complete(tmp_path, str(bad), str(FIXTURES / "railway.feature"))
    assert code == 1
    assert not out.exists()


def io_argv(tmp_path: Path, command: str, files: dict[str, str]) -> list[str]:
    """Arguments for ``command`` reading ``files`` (option -> path), with the
    railway fixtures for the required inputs it lacks."""
    files = {"--model": str(FIXTURES / "railway_model.json"),
             "--reqs": str(FIXTURES / "railway.feature"), **files}
    if command == "kb-lint":
        return [command, *(["--kb", files["--kb"]] if "--kb" in files else [])]
    argv = [command, *(arg for option, path in files.items() for arg in (option, path))]
    if command == "complete":
        argv += ["--out", str(tmp_path / "out" / "model.json"),
                 "--report", str(tmp_path / "out" / "report.json"),
                 "--trace", str(tmp_path / "out" / "trace.json")]
    return argv


UNREADABLE_INPUTS = [
    (command, option)
    for command in ("check", "complete", "kb-lint")
    for option in ("--model", "--reqs", "--kb", "$MODCOMPLETE_KB")
    if command != "kb-lint" or option in ("--kb", "$MODCOMPLETE_KB")
]


@pytest.mark.parametrize("command, option", UNREADABLE_INPUTS)
def test_undecodable_input_is_one_error_line(tmp_path, capsys, monkeypatch, command, option):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe not UTF-8\n")
    monkeypatch.delenv("MODCOMPLETE_KB", raising=False)
    if option == "$MODCOMPLETE_KB":
        monkeypatch.setenv("MODCOMPLETE_KB", str(bad))
        files = {}
    else:
        files = {option: str(bad)}
    assert main(io_argv(tmp_path, command, files)) == 1
    what = {"--model": "model", "--reqs": "requirements"}.get(option, "knowledge base")
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot read {what} {str(bad)!r}: "
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    ]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option", ["--model", "--reqs", "--kb"])
def test_an_input_that_starts_with_a_byte_order_mark_reads_as_without(
    tmp_path, capsys, monkeypatch, option
):
    """Some Windows editors start a UTF-8 file with a byte-order mark: the
    run prints and writes the same bytes as with the plain file."""
    text = {
        "--model": (FIXTURES / "railway_model.json").read_text(encoding="utf-8"),
        "--reqs": (FIXTURES / "railway.feature").read_text(encoding="utf-8"),
        "--kb": DEFAULT_KB_TEXT,
    }[option]
    path = tmp_path / "input"
    files = {"--model": str(FIXTURES / "railway_model.json"),
             "--reqs": str(FIXTURES / "railway.feature"), option: str(path)}
    kb = ("--kb", files["--kb"]) if "--kb" in files else ()
    monkeypatch.delenv("MODCOMPLETE_KB", raising=False)
    runs = []
    for name, mark in (("plain", ""), ("marked", "\ufeff")):
        path.write_text(mark + text, encoding="utf-8")
        code, out = run_complete(tmp_path / name, files["--model"], files["--reqs"], *kb)
        written = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        runs.append((code, capsys.readouterr(), written))
    assert runs[0][0] == 0 and "RD-REQ-001.puml" in str(runs[0][2])
    assert runs[1] == runs[0]


def _railway_doc_with_a_transition() -> dict:
    doc = json.loads((FIXTURES / "railway_model.json").read_text(encoding="utf-8"))
    doc["blocks"][0]["state_machine"]["transitions"] = [
        {"source": "Running", "target": "Braking", "trigger": "EmergencyStop",
         "effects": [{"signal": "Activate", "target_block": "Brake"}]}
    ]
    return doc


# (path, the object holding the field, its key)
CONTAINER_FIELDS = [
    ("$.blocks", lambda doc: doc, "blocks"),
    ("$.signals", lambda doc: doc, "signals"),
    ("$.blocks[0].state_machine.transitions", lambda doc: doc["blocks"][0]["state_machine"], "transitions"),
    (
        "$.blocks[0].state_machine.transitions[0].effects",
        lambda doc: doc["blocks"][0]["state_machine"]["transitions"][0],
        "effects",
    ),
]


@pytest.mark.parametrize("command", ["check", "complete"])
@pytest.mark.parametrize("path, holder, key", CONTAINER_FIELDS)
@pytest.mark.parametrize("value", [None, 3, "Braking"])
def test_container_that_is_not_a_list_is_one_error_line(tmp_path, capsys, command, path, holder, key, value):
    doc = _railway_doc_with_a_transition()
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(io_argv(tmp_path, command, {"--model": str(model)})) == 0
    capsys.readouterr()
    holder(doc)[key] = value
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert main(io_argv(tmp_path / "bad", command, {"--model": str(model)})) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {key} must be a list"]
    assert not (tmp_path / "bad" / "out").exists()


@pytest.mark.parametrize("command", ["check", "complete"])
def test_overdeep_model_is_one_error_line(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000, encoding="utf-8")
    assert main(io_argv(tmp_path, command, {"--model": str(deep)})) == 1
    assert capsys.readouterr().err.splitlines() == ["error: $: invalid JSON: nested too deeply"]
    assert not (tmp_path / "out").exists()


def _dangling_part_model(tmp_path: Path) -> dict[str, str]:
    doc = json.loads((FIXTURES / "railway_model.json").read_text(encoding="utf-8"))
    doc["blocks"][0]["parts"] = ["Ghost"]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    return {"--model": str(model)}


def _repeated_id_corpus(tmp_path: Path) -> dict[str, str]:
    reqs = tmp_path / "reqs.feature"
    reqs.write_text(
        f"Scenario: A\n@id: R1\n{RAILWAY_REQUIREMENT}\nScenario: B\n@id: R1\n{RAILWAY_REQUIREMENT}\n",
        encoding="utf-8",
    )
    return {"--reqs": str(reqs)}


def _doubly_tagged_corpus(tmp_path: Path) -> dict[str, str]:
    reqs = tmp_path / "reqs.feature"
    reqs.write_text(f"Scenario: A\n@id: R1\n\n@id: R2\n{RAILWAY_REQUIREMENT}\n", encoding="utf-8")
    return {"--reqs": str(reqs)}


def _glued_tag_corpus(tmp_path: Path) -> dict[str, str]:
    reqs = tmp_path / "reqs.feature"
    reqs.write_text(f"Scenario: A\n@id:R1@smoke\n{RAILWAY_REQUIREMENT}\n", encoding="utf-8")
    return {"--reqs": str(reqs)}


def _empty_tag_corpus(tmp_path: Path) -> dict[str, str]:
    reqs = tmp_path / "reqs.feature"
    reqs.write_text(f"Scenario: A\n@smoke @id:\n{RAILWAY_REQUIREMENT}\n", encoding="utf-8")
    return {"--reqs": str(reqs)}


def _trailing_tag_corpus(tmp_path: Path) -> dict[str, str]:
    reqs = tmp_path / "reqs.feature"
    reqs.write_text(f"Scenario: A\n{RAILWAY_REQUIREMENT}\nScenario: B\n@id: R2\n", encoding="utf-8")
    return {"--reqs": str(reqs)}


@pytest.mark.parametrize("command", ["check", "complete"])
@pytest.mark.parametrize("make_input, message", [
    (_dangling_part_model, "$.blocks[0].parts[0]: part 'Ghost' is not a block"),
    (_repeated_id_corpus, "requirement id 'R1' used twice"),
    (_doubly_tagged_corpus, "lines 2 and 4: two @id: tags with no requirement between them"),
    (_empty_tag_corpus, "line 2: @id: tag names no id"),
    (_glued_tag_corpus, "line 2: @id: tag 'R1@smoke' holds '@'"),
    (_trailing_tag_corpus, "line 4: @id: tag 'R2' tags no requirement"),
], ids=["dangling-part", "repeated-id", "two-tags", "empty-tag", "glued-tag", "trailing-tag"])
def test_an_invalid_model_or_corpus_is_exit_1(tmp_path, capsys, command, make_input, message):
    """A model that fails validation and a corpus that repeats an ``@id:``,
    leaves one empty, glues a tag to one or ends on one end like an
    unreadable input: exit 1, one error line, nothing written."""
    assert main(io_argv(tmp_path, command, make_input(tmp_path))) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_check_gives_each_tagged_block_its_own_verdict(tmp_path, capsys):
    """Tagged blocks separated only by blank lines are three requirements:
    a tag line after body text ends the block before it."""
    reqs = tmp_path / "reqs.feature"
    reqs.write_text(
        f"@id: R1\n{RAILWAY_REQUIREMENT}\n\n"
        "@id: R2\nGiven a Train in braking,\nThen the Train goes in running.\n\n"
        "@id: R3\nGiven a Train in running, Then the Train goes in braking.\n",
        encoding="utf-8",
    )
    argv = ["check", "--model", str(FIXTURES / "railway_model.json"), "--reqs", str(reqs)]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "R1: MR1 (8 bindings)", "R2: MR3 (4 bindings)", "R3: MR3 (4 bindings)",
    ]


@pytest.mark.parametrize("feature, verdicts", [
    (f"Feature: F\n  @smoke\n  Scenario: one\n    {RAILWAY_REQUIREMENT}\n"
     "  Scenario Outline: two\n    Given a Train in braking, Then the Train goes in running.\n"
     "  Scenario: three\n    Given a Train in running, Then the Train goes in braking.\n",
     ["REQ-001: MR1 (8 bindings)", "REQ-002: MR3 (4 bindings)", "REQ-003: MR3 (4 bindings)"]),
    (f"@id: R1 @smoke\n{RAILWAY_REQUIREMENT}\nRule: braking\nExample: two\n"
     "Given a Train in braking, Then the Train goes in running.\n",
     ["R1: MR1 (8 bindings)", "REQ-002: MR3 (4 bindings)"]),
], ids=["smoke-tag-and-outline", "id-with-tag-and-rule"])
def test_tag_and_header_lines_neither_merge_nor_invent_requirements(tmp_path, capsys, feature, verdicts):
    """A tag line is never body text, an ``@id:`` tag names its block
    wherever it stands on the line, and every Gherkin header ends a block."""
    reqs = tmp_path / "reqs.feature"
    reqs.write_text(feature, encoding="utf-8")
    argv = ["check", "--model", str(FIXTURES / "railway_model.json"), "--reqs", str(reqs)]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == verdicts


def test_strict_turns_redundancy_into_failure(tmp_path):
    code, _ = run_complete(
        tmp_path, str(FIXTURES / "railway_model.json"), str(FIXTURES / "duplicate.feature")
    )
    assert code == 0
    code_strict, _ = run_complete(
        tmp_path,
        str(FIXTURES / "railway_model.json"),
        str(FIXTURES / "duplicate.feature"),
        "--strict",
    )
    assert code_strict == 2


def test_complete_runs_are_byte_identical(tmp_path):
    _, out1 = run_complete(
        tmp_path / "a", str(FIXTURES / "railway_model.json"), str(FIXTURES / "railway.feature")
    )
    _, out2 = run_complete(
        tmp_path / "b", str(FIXTURES / "railway_model.json"), str(FIXTURES / "railway.feature")
    )
    for name in ("model.json", "report.json", "trace.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "diagrams" / "RD-REQ-001.puml").read_bytes() == (
        out2 / "diagrams" / "RD-REQ-001.puml"
    ).read_bytes()
    # atomic writes leave no temp files behind
    leftovers = [p for p in out1.rglob("*") if p.name.startswith(".modcomplete-")]
    assert leftovers == []


def test_outputs_are_the_stdlib_canonical_encoding(tmp_path):
    """Model, report and trace bytes are exactly what ``json.dumps`` with
    two-space indentation and sorted keys writes for the same data."""
    _, out = run_complete(
        tmp_path, str(FIXTURES / "railway_model.json"), str(FIXTURES / "railway.feature")
    )
    for name in ("model.json", "report.json", "trace.json"):
        text = (out / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


@pytest.mark.parametrize(
    "option, target, what",
    [("--out", "afile/x.json", "model"), ("--diagrams", "afile", "diagram"), ("--out", "adir", "model")],
)
def test_unwritable_output_path_is_exit_1(tmp_path, capsys, option, target, what):
    """A regular file where a directory must be, or a directory where the
    file must be: an error line, no traceback, no temp file left."""
    (tmp_path / "afile").write_text("", encoding="utf-8")
    (tmp_path / "adir").mkdir()
    code, _ = run_complete(
        tmp_path, str(FIXTURES / "railway_model.json"), str(FIXTURES / "railway.feature"),
        option, str(tmp_path / target),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {what} ")
    assert "Traceback" not in err
    assert [p for p in tmp_path.rglob("*") if p.name.startswith(".modcomplete-")] == []


def test_a_failed_complete_removes_the_directories_it_created(tmp_path, capsys, monkeypatch):
    """The model's new directory is created before the report's parent, a
    regular file, fails; the failed run removes it again and names the
    cause."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("", encoding="utf-8")
    code = main([
        "complete",
        "--model", str(FIXTURES / "railway_model.json"),
        "--reqs", str(FIXTURES / "railway.feature"),
        "--out", os.path.join("newdir", "deeper", "m.json"),
        "--report", os.path.join("afile", "x.json"),
    ])
    assert code == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: cannot write report {os.path.join('afile', 'x.json')!r}: ")
    assert "Not a directory" in line
    assert [p.name for p in tmp_path.rglob("*")] == ["afile"]


def test_a_deep_output_path_is_written(tmp_path, capsys, monkeypatch):
    """1,200 missing directories above ``--out`` are created one by one."""
    monkeypatch.chdir(tmp_path)
    out = "a/" * 1200 + "m.json"
    try:
        code = main([
            "complete",
            "--model", str(FIXTURES / "railway_model.json"),
            "--reqs", str(FIXTURES / "railway.feature"),
            "--out", out, "--report", "r.json", "--trace", "t.json",
        ])
        assert code in (0, 2)
        assert "Traceback" not in capsys.readouterr().err
        assert json.loads(Path(out).read_text(encoding="utf-8"))["name"]
    finally:
        # pytest's own clean-up recurses once per directory level.
        if os.path.exists(out):
            os.remove(out)
        directory = os.path.dirname(out)
        while directory and os.path.isdir(directory):
            os.rmdir(directory)
            directory = os.path.dirname(directory)


def test_outputs_follow_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        code, out = run_complete(
            tmp_path, str(FIXTURES / "railway_model.json"), str(FIXTURES / "railway.feature")
        )
    finally:
        os.umask(old)
    assert code == 0
    files = [out / "model.json", out / "report.json", out / "trace.json", *(out / "diagrams").iterdir()]
    assert len(files) > 3
    assert {f.name: stat.S_IMODE(f.stat().st_mode) for f in files} == {f.name: 0o644 for f in files}


def test_a_stale_temp_file_is_left_alone(tmp_path):
    """A temp file by the name a run would stage first is neither written
    nor removed: staging takes the next free name."""
    out = tmp_path / "out"
    out.mkdir()
    stale = out / f".modcomplete-{os.getpid()}-0.tmp"
    stale.write_text("stale\n", encoding="utf-8")
    code, _ = run_complete(tmp_path, str(FIXTURES / "railway_model.json"), str(FIXTURES / "railway.feature"))
    assert code == 0
    assert stale.read_text(encoding="utf-8") == "stale\n"
    assert [p for p in tmp_path.rglob("*") if p.name.startswith(".modcomplete-")] == [stale]
    assert json.loads((out / "model.json").read_text(encoding="utf-8"))["name"]


@pytest.mark.parametrize("option, target, what", [("--diagrams", "afile", "diagram"), ("--trace", "adir", "trace")])
def test_failed_complete_replaces_no_output(tmp_path, capsys, option, target, what):
    """An output that cannot be written, even the last one, leaves the
    model, report and trace of an earlier run byte for byte as they were."""
    out = tmp_path / "out"
    out.mkdir()
    old = {name: f"old {name}\n".encode() for name in ("model.json", "report.json", "trace.json")}
    for name, data in old.items():
        (out / name).write_bytes(data)
    (tmp_path / "afile").write_text("", encoding="utf-8")
    (tmp_path / "adir").mkdir()
    code, _ = run_complete(
        tmp_path, str(FIXTURES / "railway_model.json"), str(FIXTURES / "railway.feature"),
        option, str(tmp_path / target),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {what} ")
    assert {name: (out / name).read_bytes() for name in old} == old
    assert [p for p in tmp_path.rglob("*") if p.name.startswith(".modcomplete-")] == []


def test_a_failed_run_removes_only_its_own_temp_files(tmp_path, capsys, monkeypatch):
    """A temp name is free again once renamed. A file another writer creates
    under it survives a later failed rename; the temp files not yet renamed
    are removed."""
    import modcomplete.cli as cli_module

    real_replace = os.replace
    renamed = []

    def replace(src, dst):
        if renamed:
            raise OSError(28, "No space left on device")
        real_replace(src, dst)
        renamed.append(src)
        Path(src).write_text("another writer\n", encoding="utf-8")

    monkeypatch.setattr(cli_module.os, "replace", replace)
    code, out = run_complete(tmp_path, str(FIXTURES / "railway_model.json"), str(FIXTURES / "railway.feature"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: cannot write ")
    (reused,) = renamed
    assert Path(reused).read_text(encoding="utf-8") == "another writer\n"
    assert [p for p in tmp_path.rglob("*") if p.name.startswith(".modcomplete-")] == [Path(reused)]


@pytest.mark.parametrize(
    "first, second",
    [
        (("--out", "same.json"), ("--report", "same.json")),
        (("--report", "same.json"), ("--trace", "sub/../same.json")),
    ],
)
def test_colliding_output_paths_write_nothing(tmp_path, capsys, monkeypatch, first, second):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code, out = run_complete(
        tmp_path, str(FIXTURES / "railway_model.json"), str(FIXTURES / "railway.feature"),
        *first, *second,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {first[0]} and {second[0]} name the same file")
    assert not (tmp_path / "same.json").exists() and not out.exists()


def test_report_colliding_with_a_diagram_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([
        "complete",
        "--model", str(FIXTURES / "railway_model.json"),
        "--reqs", str(FIXTURES / "railway.feature"),
        "--report", os.path.join("d", "RD-REQ-001.puml"),
        "--diagrams", "d",
    ])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --report and --diagrams name the same file {os.path.join('d', 'RD-REQ-001.puml')!r}"
    ]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("outputs, first, second", [
    *((["--diagrams", "o.json", other, "o.json"], other, "--diagrams")
      for other in ("--out", "--report", "--trace")),
    (["--out", "o.json", "--trace", os.path.join("o.json", "sub", "trace.json")],
     "--out", "--trace"),
])
def test_output_inside_a_directory_another_output_names_creates_nothing(
    tmp_path, capsys, monkeypatch, outputs, first, second
):
    monkeypatch.chdir(tmp_path)
    code = main([
        "complete",
        "--model", str(FIXTURES / "railway_model.json"),
        "--reqs", str(FIXTURES / "railway.feature"),
        *outputs,
    ])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {first} and {second} name the same file 'o.json'"
    ]
    assert list(tmp_path.iterdir()) == []


def test_same_file_name_in_distinct_directories_is_not_a_collision(tmp_path):
    code, _ = run_complete(
        tmp_path, str(FIXTURES / "railway_model.json"), str(FIXTURES / "railway.feature"),
        "--out", str(tmp_path / "a" / "x.json"),
        "--report", str(tmp_path / "b" / "x.json"),
        "--trace", str(tmp_path / "c" / "x.json"),
    )
    assert code == 0
    assert "transitions" in (tmp_path / "a" / "x.json").read_text(encoding="utf-8")
    assert "added" in json.loads((tmp_path / "b" / "x.json").read_text(encoding="utf-8"))
    assert isinstance(json.loads((tmp_path / "c" / "x.json").read_text(encoding="utf-8")), list)


def _read_all(fd: int) -> bytes:
    """Read a non-blocking FIFO to its end; with no writer left it ends at once."""
    data = b""
    while chunk := os.read(fd, 65536):
        data += chunk
    return data


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_a_fifo_output_is_written_in_place(tmp_path):
    """A FIFO named as ``--trace`` stays a FIFO and its reader gets the
    trace. The reader is opened, non-blocking, before the run, so the run
    never waits for one, and the trace fits the pipe's buffer."""
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, _ = run_complete(
            tmp_path, str(FIXTURES / "railway_model.json"), str(FIXTURES / "railway.feature"),
            "--trace", str(fifo),
        )
        data = _read_all(reader)
    finally:
        os.close(reader)
    assert code == 0
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    code, out = run_complete(tmp_path / "plain", str(FIXTURES / "railway_model.json"), str(FIXTURES / "railway.feature"))
    assert code == 0
    assert data == (out / "trace.json").read_bytes()
    assert [p for p in tmp_path.rglob("*") if p.name.startswith(".modcomplete-")] == []


def test_a_symlinked_output_is_written_through_the_link(tmp_path):
    """``--report`` naming a symbolic link replaces the file the link names
    and keeps the link; the temp file is staged beside that file."""
    real = tmp_path / "real" / "r.json"
    real.parent.mkdir()
    real.write_text("old report\n", encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(os.path.join("real", "r.json"))
    code, out = run_complete(
        tmp_path, str(FIXTURES / "railway_model.json"), str(FIXTURES / "railway.feature"),
        "--report", str(link),
    )
    assert code == 0
    assert link.is_symlink() and os.readlink(link) == os.path.join("real", "r.json")
    assert json.loads(real.read_text(encoding="utf-8"))["added"]
    assert sorted(p.name for p in real.parent.iterdir()) == ["r.json"]
    assert not (out / "report.json").exists()


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout on this platform")
@pytest.mark.parametrize("mode", ["wb", "ab"])
def test_a_trace_to_stdout_comes_before_the_summary(tmp_path, mode):
    """``--trace /dev/stdout`` with stdout redirected to a file, truncated
    (``>``) or appended to (``>>``), leaves in it the trace followed by the
    summary and findings: the trace is written through stdout, neither
    renamed over the file nor written at another offset."""
    golden = FIXTURES / "report_golden"
    argv = ["complete", "--model", str(golden / "model.json"), "--reqs", str(golden / "reqs.feature"),
            "--kb", str(golden / "kb.txt"),
            "--out", str(tmp_path / "model.json"), "--report", str(tmp_path / "report.json")]
    expected = run_module(*argv, "--trace", str(tmp_path / "trace.json"))
    assert expected.returncode == 2 and "[error]" in expected.stdout
    assert (tmp_path / "trace.json").read_bytes() == (golden / "trace.json").read_bytes()
    out = tmp_path / "stdout.txt"
    out.write_bytes(b"earlier output\n")
    with open(out, mode) as stdout:
        proc = run_module(*argv, "--trace", "/dev/stdout", stdout=stdout)
    assert (proc.returncode, proc.stderr) == (2, "")
    earlier = b"earlier output\n" if mode == "ab" else b""
    assert out.read_bytes() == earlier + (tmp_path / "trace.json").read_bytes() + expected.stdout.encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "report.json", "stdout.txt", "trace.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_a_failed_in_place_write_replaces_no_output(tmp_path, capsys, monkeypatch):
    """Outputs such as a FIFO are written before any staged file is renamed:
    when that write fails, the model and report of an earlier run stay byte
    for byte as they were, no temp file is left and the FIFO stays."""
    import modcomplete.cli as cli_module

    out = tmp_path / "out"
    out.mkdir()
    old = {name: f"old {name}\n".encode() for name in ("model.json", "report.json")}
    for name, data in old.items():
        (out / name).write_bytes(data)
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)

    def failing_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            raise OSError(28, "No space left on device")
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli_module, "open", failing_open, raising=False)
    code, _ = run_complete(
        tmp_path, str(FIXTURES / "railway_model.json"), str(FIXTURES / "railway.feature"),
        "--trace", str(fifo),
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: cannot write trace {str(fifo)!r}: [Errno 28] No space left on device\n"
    )
    assert {name: (out / name).read_bytes() for name in old} == old
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert [p for p in tmp_path.rglob("*") if p.name.startswith(".modcomplete-")] == []


def test_check_railway(capsys):
    code = main(
        [
            "check",
            "--model", str(FIXTURES / "railway_model.json"),
            "--reqs", str(FIXTURES / "railway.feature"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "REQ-001: MR1 (8 bindings)" in out


def test_check_unknown_block_lists_failing_phrase(tmp_path, capsys):
    reqs = tmp_path / "bad.feature"
    reqs.write_text(
        "Given a Spaceship in running, When the Braking Supervision receives an "
        "Emergency Stop Message, Then the Braking Supervision activates the "
        "Emergency Brake and goes in braking.\n",
        encoding="utf-8",
    )
    code = main(
        ["check", "--model", str(FIXTURES / "railway_model.json"), "--reqs", str(reqs)]
    )
    out = capsys.readouterr().out
    assert code == 0  # unmatched is informational
    assert "REQ-001: NoMatch" in out
    assert "Spaceship" in out


def test_check_explain_shows_ambiguous_sets(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(
        json.dumps(
            {
                "version": "1",
                "name": "S",
                "signals": [{"name": "Stop"}, {"name": "Stops"}],
                "blocks": [
                    {"name": "Gate", "state_machine": {"states": ["s1", "s2"], "transitions": []}}
                ],
            }
        ),
        encoding="utf-8",
    )
    reqs = tmp_path / "r.feature"
    reqs.write_text("Given Gate in s1, When Gate receives Stops, Then Gate goes in s2\n", encoding="utf-8")
    code = main(["check", "--model", str(model), "--reqs", str(reqs), "--explain"])
    out = capsys.readouterr().out
    assert "AmbiguousMatch" in out
    assert "set 1:" in out and "set 2:" in out
    assert "event=Stop" in out and "event=Stops" in out


def test_check_explain_shows_bindings(capsys):
    main(
        [
            "check",
            "--model", str(FIXTURES / "railway_model.json"),
            "--reqs", str(FIXTURES / "railway.feature"),
            "--explain",
        ]
    )
    out = capsys.readouterr().out
    assert "context4 (Block) = Brake" in out


@pytest.mark.parametrize("explain", [False, True])
def test_check_says_why_a_matched_requirement_was_not_instantiated(tmp_path, capsys, explain):
    """The rule binds the owner role to Brake, a block without a machine."""
    kb = tmp_path / "kb.txt"
    kb.write_text(
        "metareq M -> F:\n"
        '  given: "from <<State as s>> to <<State as t>> is <<Block as b>>"\n'
        '  then:  "<<Block as c>> moves"\n'
        "fragment F:\n"
        "  owner: b   source: s   target: t\n",
        encoding="utf-8",
    )
    reqs = tmp_path / "r.feature"
    reqs.write_text("Given from running to braking is Brake, then Train moves.\n", encoding="utf-8")
    args = ["check", "--model", str(FIXTURES / "railway_model.json"), "--reqs", str(reqs), "--kb", str(kb)]
    assert main(args + ["--explain"] * explain) == 0
    bindings = [
        "    s (State) = Running  <- 'running'",
        "    t (State) = Braking  <- 'braking'",
        "    b (Block) = Brake  <- 'Brake'",
        "    c (Block) = Train  <- 'Train'",
    ]
    assert capsys.readouterr().out.splitlines() == [
        "REQ-001: M (4 bindings)",
        "    block 'Brake' has no state machine",
        *bindings[: 4 * explain],
        "  [info] Unverifiable: requirement matched a rule but could not be instantiated in the "
        "model (REQ-001)",
    ]


def test_kb_lint_default_clean(capsys):
    assert main(["kb-lint"]) == 0
    assert "ok: 3 rule(s)" in capsys.readouterr().out


def test_kb_lint_counts_a_fragment_no_rule_uses(tmp_path, capsys):
    path = tmp_path / "kb.txt"
    path.write_text(
        "metareq M -> F:\n"
        '  given: "<<Block as b>> in <<State as s>>"\n'
        '  then:  "goes in <<State as t>>"\n'
        "fragment F:\n  owner: b   source: s   target: t\n"
        "fragment UNUSED:\n  owner: x   source: y   target: z\n",
        encoding="utf-8",
    )
    assert main(["kb-lint", "--kb", str(path)]) == 0
    assert capsys.readouterr().out == "ok: 1 rule(s), 2 fragment(s)\n"


def test_kb_lint_duplicate_id(tmp_path, capsys):
    bad = tmp_path / "kb.txt"
    bad.write_text(DEFAULT_KB_TEXT.replace("MR2", "MR1"), encoding="utf-8")
    assert main(["kb-lint", "--kb", str(bad)]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_kb_lint_empty_warns(tmp_path, capsys):
    empty = tmp_path / "kb.txt"
    empty.write_text("# nothing\n", encoding="utf-8")
    assert main(["kb-lint", "--kb", str(empty)]) == 0
    assert "no templates" in capsys.readouterr().out


def test_kb_lint_detects_shadowing(tmp_path, capsys):
    shadowed = (
        'metareq WIDE -> F1:\n'
        '  given: "<<Block as b1>> in <<State as s1>>"\n'
        '  then:  "goes in <<State as f1>>"\n'
        "fragment F1:\n  owner: b1   source: s1   target: f1\n"
        'metareq NARROW -> F2:\n'
        '  given: "<<Block as b2>> in <<State as s2>>"\n'
        '  then:  "goes in <<State as f2>>"\n'
        "fragment F2:\n  owner: b2   source: s2   target: f2\n"
    )
    path = tmp_path / "kb.txt"
    path.write_text(shadowed, encoding="utf-8")
    assert main(["kb-lint", "--kb", str(path)]) == 2
    assert "NARROW is shadowed by higher-priority WIDE" in capsys.readouterr().out


def test_kb_lint_keeps_a_twin_rule_with_another_owner(capsys):
    """Same templates, different owners: each rule looks its states up in
    another block's machine, so the later one can still win."""
    assert main(["kb-lint", "--kb", str(FIXTURES / "owner_twins_kb.txt")]) == 0
    assert capsys.readouterr().out == "ok: 2 rule(s), 2 fragment(s)\n"


def test_kb_lint_reads_optional_groups_without_their_articles(tmp_path, capsys):
    """The matcher skips every article, so (into|the)? fits what (into)? fits."""
    text = (
        'metareq A -> F1:\n'
        '  given: "<<Block as b1>> in <<State as s1>>"\n'
        '  then:  "goes (into)? <<State as t1>>"\n'
        "fragment F1:\n  owner: b1   source: s1   target: t1\n"
        'metareq B -> F2:\n'
        '  given: "<<Block as b2>> in <<State as s2>>"\n'
        '  then:  "goes (into|the)? <<State as t2>>"\n'
        "fragment F2:\n  owner: b2   source: s2   target: t2\n"
    )
    path = tmp_path / "kb.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["kb-lint", "--kb", str(path)]) == 2
    assert "B is shadowed by higher-priority A" in capsys.readouterr().out


@pytest.mark.parametrize("gos, code", [(15, 2), (31, 0)])
def test_kb_lint_rule_with_thirty_optional_literals(tmp_path, capsys, gos, code):
    """WIDE's 30 optional "go"s absorb 15 of NARROW's but not 31; both
    answers need the search to rule out the other placements."""
    optional, literal = " (go)?" * 30, " go" * gos
    text = (
        'metareq WIDE -> F1:\n'
        f'  given: "<<Block as b1>>{optional} in <<State as s1>>"\n'
        '  then:  "goes in <<State as f1>>"\n'
        "fragment F1:\n  owner: b1   source: s1   target: f1\n"
        'metareq NARROW -> F2:\n'
        f'  given: "<<Block as b2>>{literal} in <<State as s2>>"\n'
        '  then:  "goes in <<State as f2>>"\n'
        "fragment F2:\n  owner: b2   source: s2   target: f2\n"
    )
    path = tmp_path / "kb.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["kb-lint", "--kb", str(path)]) == code
    out = capsys.readouterr().out
    assert ("NARROW is shadowed by higher-priority WIDE" in out) == (code == 2)


# A rule with 1,100 literal words in one Then template, or with 1,100 Then
# templates; a Then section that spells it out; and the error for the rule.
OVERSIZED_RULES = {
    "items": (sized_rule(1103, 1), "goes in braking" + " go" * 1100,
              "line 3, column 11: then section has 1103 items, more than 100"),
    "templates": (sized_rule(3, 1100), "goes in braking" + " and Train stops" * 1099,
                  "line 52, column 11: then section has 101 items, more than 100"),
}


@pytest.mark.parametrize("shape", ["items", "templates"])
@pytest.mark.parametrize("command", ["check", "complete", "kb-lint"])
def test_an_oversized_rule_is_one_error_line(tmp_path, capsys, command, shape):
    """The matcher recurses once per item of a section, so ``parse_kb``
    refuses a rule past the limit before any matching."""
    kb_text, then, error = OVERSIZED_RULES[shape]
    kb, reqs = tmp_path / "kb.txt", tmp_path / "reqs.feature"
    kb.write_text(kb_text, encoding="utf-8")
    reqs.write_text(f"Feature: F\nScenario: S\nGiven a Train in running, Then {then}.\n", encoding="utf-8")
    code = main(io_argv(tmp_path, command, {"--kb": str(kb), "--reqs": str(reqs)}))
    assert code == (2 if command == "kb-lint" else 1)
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert not (tmp_path / "out").exists()


def test_kb_env_var_default(tmp_path, capsys, monkeypatch):
    kb_file = tmp_path / "kb.txt"
    kb_file.write_text(DEFAULT_KB_TEXT, encoding="utf-8")
    monkeypatch.setenv("MODCOMPLETE_KB", str(kb_file))
    assert main(["kb-lint"]) == 0
    monkeypatch.setenv("MODCOMPLETE_KB", str(tmp_path / "missing.txt"))
    assert main(["kb-lint"]) == 1


def run_module(*args: str, stdout=subprocess.PIPE, env_update=None) -> subprocess.CompletedProcess:
    """Run ``python -m modcomplete ARGS`` on this checkout's sources."""
    env = {k: v for k, v in os.environ.items() if k != "MODCOMPLETE_KB"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    env.update(env_update or {})
    return subprocess.run([sys.executable, "-m", "modcomplete", *args],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, encoding="utf-8", env=env)


@pytest.mark.parametrize("reqs, code", [("railway.feature", 0), ("conflict.feature", 2), ("no-such.feature", 1)])
def test_module_entry_point(capsys, reqs, code):
    argv = ["check", "--model", str(FIXTURES / "railway_model.json"), "--reqs", str(FIXTURES / reqs), "--explain"]
    proc = run_module(*argv)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert proc.returncode == code
    assert (proc.stdout, proc.stderr) == (captured.out, captured.err)


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_stdout_is_exit_1_without_traceback(unbuffered):
    """The reader has gone before the first write: the run still ends with
    exit code 1 and nothing on stderr, whether stdout is buffered or not."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_module("check", "--model", str(FIXTURES / "railway_model.json"),
                          "--reqs", str(FIXTURES / "railway.feature"), "--explain",
                          stdout=write_end, env_update={"PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


STARTUP_RUN = """
import gc
import sys
sys.path.insert(0, sys.argv[1])
import modcomplete.cli
from modcomplete.model import ValidationError, load_model
load_model('{"version": "1", "name": "M", "blocks": [{"name": "Gate"}, {"name": "Pump"}]}')
print("graphlib after a part-free load", "graphlib" in sys.modules)
model, reqs, out = sys.argv[2:5]
runs = [
    ["complete", "--model", model, "--reqs", reqs, "--out", out + "/model.json",
     "--report", out + "/report.json", "--trace", out + "/trace.json", "--diagrams", out + "/diagrams"],
    ["check", "--model", model, "--reqs", reqs, "--explain"],
    ["kb-lint"],
]

def garbage_left_by(call, argv):
    gc.collect()
    gc.disable()
    result = call(argv)
    left = gc.collect()
    gc.enable()
    return result, left

codes = []
for argv in runs:
    code, left = garbage_left_by(modcomplete.cli.main, argv)
    _, parser_left = garbage_left_by(lambda argv: modcomplete.cli.build_parser().parse_args(argv), argv)
    codes.append(code)
    print("garbage", left, parser_left)
print("codes", *codes)
try:
    load_model('{"version": "1", "name": "M", "blocks": [{"name": "Gate", "parts": ["Pump"]}, '
               '{"name": "Pump", "parts": ["Gate"]}]}')
except ValidationError as error:
    print(error)
print("loaded", *sorted(name for name in ("dataclasses", "inspect", "string", "tempfile", "unicodedata",
                                         "modcomplete.oracle")
                         if name in sys.modules))
"""


def test_a_run_imports_no_dataclasses_inspect_or_string(tmp_path):
    """Counts modules and objects, times nothing: a fresh process that runs
    ``complete``, ``check`` and ``kb-lint`` never imports ``dataclasses``
    (which brings in ``inspect``, ``ast``, ``dis`` and ``tokenize``),
    ``string``, ``tempfile`` (which brings in ``shutil`` and ``random``) or
    ``unicodedata``, which only a word that is not ASCII needs (the railway
    inputs are ASCII), and never loads the reference oracle
    ``modcomplete.oracle``, which is compiled only when ``oracle_match`` is
    first read. Nor does loading a model without parts import
    ``graphlib``, which only the part-cycle check needs; a model with a
    part cycle is still rejected. ``-S`` keeps site hooks of the
    installation out of the count. No run leaves more objects
    in reference cycles than parsing its arguments alone: argparse's help
    formatter sections are cyclic, the pipeline is not."""
    env = {k: v for k, v in os.environ.items() if k != "MODCOMPLETE_KB"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", STARTUP_RUN, src,
         str(FIXTURES / "railway_model.json"), str(FIXTURES / "railway.feature"), str(tmp_path)],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "graphlib after a part-free load False"
    assert "codes 0 0 0" in lines
    assert "$.blocks: part composition cycle: Gate -> Pump -> Gate" in lines
    garbage = [line.split()[1:] for line in lines if line.startswith("garbage ")]
    assert len(garbage) == 3
    assert all(int(left) <= int(parser_left) for left, parser_left in garbage), garbage
    assert lines[-1] == "loaded"
    assert (tmp_path / "diagrams" / "RD-REQ-001.puml").is_file()


GOLDEN_MODEL = {
    "version": "1",
    "name": "S",
    "signals": [
        {"name": "EmergencyStop"}, {"name": "Activate"}, {"name": "Halt"},
        {"name": "Reset"}, {"name": "Stop"}, {"name": "Stops"},
    ],
    "blocks": [
        {"name": "Train", "state_machine": {"states": ["Running", "Braking"], "transitions": []}},
        {"name": "BrakingSupervision"},
        {"name": "Brake"},
        {"name": "Gate", "state_machine": {"states": ["s2"], "transitions": []}},
        {"name": "Pump", "state_machine": {"states": ["s1", "s2"], "transitions": []}},
    ],
}

# The built-in rules plus the rule of
# test_generator.py::test_instantiate_state_not_in_owner_machine, whose
# starting state can bind in another block's machine.
GOLDEN_KB = DEFAULT_KB_TEXT + (
    'metareq MX -> FX:\n'
    '  given: "<<State as starting>> state of <<Block as context1>>"\n'
    '  then:  "goes in <<State as final>>"\n'
    "fragment FX:\n"
    "  owner: context1   source: starting   target: final\n"
)

# One requirement per verdict: MR1 match, disjunctive match with an
# elliptical alternative, NoMatch, AmbiguousMatch, parse error, and a match
# whose instantiation fails (StateNotInOwnerMachine).
GOLDEN_REQS = """\
Scenario: mr1
Given a Train in running, When the Braking Supervision receives an Emergency Stop Message, Then the Braking Supervision activates the Emergency Brake and goes in braking.
Scenario: disjunctive
Given a Train in braking, When the Braking Supervision receives Halt or Reset, Then the Train goes in running.
Scenario: no match
Given a Spaceship in running, Then the Train goes in braking.
Scenario: ambiguous
Given Gate in s2, When Gate receives Stops, Then Gate goes in s2.
Scenario: parse error
Then the Train goes in braking, Given a Train in running.
Scenario: state outside the owner's machine
Given s1 state of Gate, Then goes in s2.
"""

GOLDEN_FINDINGS = """\
  [info] Unverifiable: requirement could not be matched to the model (REQ-003)
  [info] Unverifiable: requirement could not be matched to the model (REQ-004)
  [info] Unverifiable: requirement could not be matched to the model (REQ-005)
  [info] Unverifiable: requirement matched a rule but could not be instantiated in the model (REQ-006)
"""

GOLDEN_CHECK = """\
REQ-001: MR1 (8 bindings)
REQ-002: MR2 (6 bindings, 2 alternatives)
REQ-003: NoMatch
    closest: MR1 at given[0]: no Block matches (slot context1, phrase 'Spaceship in running')
REQ-004: AmbiguousMatch (MR2)
REQ-005: parse error: 'Then' before 'Given' (token 0)
REQ-006: MX (3 bindings)
    state 's1' is not in the machine of 'Gate'
""" + GOLDEN_FINDINGS

GOLDEN_CHECK_EXPLAIN = """\
REQ-001: MR1 (8 bindings)
    context1 (Block) = Train  <- 'Train'
    starting (State) = Running  <- 'running'
    context2 (Block) = BrakingSupervision  <- 'Braking Supervision'
    event (Signal) = EmergencyStop  <- 'Emergency Stop Message'
    context3 (Block) = BrakingSupervision  <- 'Braking Supervision'
    operation (Signal) = Activate  <- 'activates'
    context4 (Block) = Brake  <- 'Emergency Brake'
    final (State) = Braking  <- 'braking'
REQ-002: MR2 (6 bindings, 2 alternatives)
    context1 (Block) = Train  <- 'Train'
    starting (State) = Braking  <- 'braking'
    context2 (Block) = BrakingSupervision  <- 'Braking Supervision'
    event (Signal) = Halt  <- 'Halt'
    context3 (Block) = Train  <- 'Train'
    final (State) = Running  <- 'running'
REQ-003: NoMatch
    MR1 at given[0]: no Block matches (slot context1, phrase 'Spaceship in running')
    MR2 at given[0]: no Block matches (slot context1, phrase 'Spaceship in running')
    MR3 at given[0]: no Block matches (slot context1, phrase 'Spaceship in running')
    MX at given[0]: expected literal 'state', got 'end of clause'
REQ-004: AmbiguousMatch (MR2)
    set 1: context1=Gate, starting=s2, context2=Gate, event=Stop, context3=Gate, final=s2
    set 2: context1=Gate, starting=s2, context2=Gate, event=Stops, context3=Gate, final=s2
REQ-005: parse error: 'Then' before 'Given' (token 0)
REQ-006: MX (3 bindings)
    state 's1' is not in the machine of 'Gate'
    starting (State) = s1  <- 's1'
    context1 (Block) = Gate  <- 'Gate'
    final (State) = s2  <- 's2'
""" + GOLDEN_FINDINGS


# Runs of articles wherever the matcher skips them: before a slot, between
# a slot and a literal, before (to)?, at a clause end, inside a multiword
# name, and in disjunctive, full-clause and elliptical alternatives; then an
# ambiguous span, and NoMatches whose failing phrase has an article beside it.
ARTICLE_REQS = """\
Scenario: before a slot, before (to)? and inside a multiword name
Given the A Train in THE running, When a The Braking the Supervision receives an The Emergency a Stop Message, Then An the Braking Supervision activates a THE to the an Emergency Brake and goes in the braking.
Scenario: between a slot and a literal, and at a clause end
Given Train the An in running the, When Braking Supervision a receives Halt An the, Then the Train an goes in braking a the.
Scenario: disjunctive and elliptical alternatives
Given a Train in braking, When the Braking Supervision receives the Halt or An a Reset the, Then the Train goes in running.
Scenario: disjunctive full-clause alternatives
Given a Gate in s2, When the Gate receives a the Stop or THE Gate a receives the Halt, Then the Gate goes in the s2.
Scenario: ambiguous span
Given Gate in s2, When the Gate receives a the Stops, Then Gate goes in s2.
Scenario: no match next to an article
Given the Spaceship in the running, Then the Train goes in braking.
Scenario: no match with a run after the slot
Given Train an A in the a, Then the Train goes in braking.
"""

ARTICLE_CHECK_EXPLAIN = """\
REQ-001: MR1 (8 bindings)
    context1 (Block) = Train  <- 'Train'
    starting (State) = Running  <- 'running'
    context2 (Block) = BrakingSupervision  <- 'Braking the Supervision'
    event (Signal) = EmergencyStop  <- 'Emergency a Stop Message'
    context3 (Block) = BrakingSupervision  <- 'Braking Supervision'
    operation (Signal) = Activate  <- 'activates'
    context4 (Block) = Brake  <- 'Emergency Brake'
    final (State) = Braking  <- 'braking'
REQ-002: MR2 (6 bindings)
    context1 (Block) = Train  <- 'Train'
    starting (State) = Running  <- 'running'
    context2 (Block) = BrakingSupervision  <- 'Braking Supervision'
    event (Signal) = Halt  <- 'Halt'
    context3 (Block) = Train  <- 'Train'
    final (State) = Braking  <- 'braking'
REQ-003: MR2 (6 bindings, 2 alternatives)
    context1 (Block) = Train  <- 'Train'
    starting (State) = Braking  <- 'braking'
    context2 (Block) = BrakingSupervision  <- 'Braking Supervision'
    event (Signal) = Halt  <- 'Halt'
    context3 (Block) = Train  <- 'Train'
    final (State) = Running  <- 'running'
REQ-004: MR2 (6 bindings, 2 alternatives)
    context1 (Block) = Gate  <- 'Gate'
    starting (State) = s2  <- 's2'
    context2 (Block) = Gate  <- 'Gate'
    event (Signal) = Stop  <- 'Stop'
    context3 (Block) = Gate  <- 'Gate'
    final (State) = s2  <- 's2'
REQ-005: AmbiguousMatch (MR2)
    set 1: context1=Gate, starting=s2, context2=Gate, event=Stop, context3=Gate, final=s2
    set 2: context1=Gate, starting=s2, context2=Gate, event=Stops, context3=Gate, final=s2
REQ-006: NoMatch
    MR1 at given[0]: no Block matches (slot context1, phrase 'Spaceship in the running')
    MR2 at given[0]: no Block matches (slot context1, phrase 'Spaceship in the running')
    MR3 at given[0]: no Block matches (slot context1, phrase 'Spaceship in the running')
    MX at given[0]: expected literal 'state', got 'end of clause'
REQ-007: NoMatch
    MR1 at given[0]: clause ended before slot 'starting' (slot starting)
    MR2 at given[0]: clause ended before slot 'starting' (slot starting)
    MR3 at given[0]: clause ended before slot 'starting' (slot starting)
    MX at given[0]: no State matches (slot starting, phrase 'Train an A in')
  [info] Unverifiable: requirement could not be matched to the model (REQ-005)
  [info] Unverifiable: requirement could not be matched to the model (REQ-006)
  [info] Unverifiable: requirement could not be matched to the model (REQ-007)
"""


@pytest.mark.parametrize(
    "reqs, extra, expected",
    [
        (GOLDEN_REQS, [], GOLDEN_CHECK),
        (GOLDEN_REQS, ["--explain"], GOLDEN_CHECK_EXPLAIN),
        (ARTICLE_REQS, ["--explain"], ARTICLE_CHECK_EXPLAIN),
    ],
    ids=["verdicts", "explain", "explain-article-runs"],
)
def test_check_golden_output(tmp_path, capsys, reqs, extra, expected):
    (tmp_path / "model.json").write_text(json.dumps(GOLDEN_MODEL), encoding="utf-8")
    (tmp_path / "kb.txt").write_text(GOLDEN_KB, encoding="utf-8")
    (tmp_path / "reqs.feature").write_text(reqs, encoding="utf-8")
    code = main(
        [
            "check",
            "--model", str(tmp_path / "model.json"),
            "--reqs", str(tmp_path / "reqs.feature"),
            "--kb", str(tmp_path / "kb.txt"),
            *extra,
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == expected


def test_check_explain_says_why_an_empty_kb_matches_nothing(tmp_path, capsys):
    """``--explain`` prints the lines the report gives an unmatched requirement."""
    (tmp_path / "kb.txt").write_text("# no rules\n", encoding="utf-8")
    code = main(
        [
            "check",
            "--model", str(FIXTURES / "railway_model.json"),
            "--reqs", str(FIXTURES / "railway.feature"),
            "--kb", str(tmp_path / "kb.txt"),
            "--explain",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "REQ-001: NoMatch\n"
        "    knowledge base is empty\n"
        "  [info] Unverifiable: requirement could not be matched to the model (REQ-001)\n"
    )


def test_check_says_why_an_empty_kb_matches_nothing(tmp_path, capsys):
    """Without ``--explain`` a NoMatch that has no closest rule still gets
    its reason, the one line ``report.json`` gives it."""
    kb = {"--kb": str(tmp_path / "kb.txt")}
    (tmp_path / "kb.txt").write_text("# no rules\n", encoding="utf-8")
    assert main(io_argv(tmp_path, "check", kb)) == 0
    assert capsys.readouterr().out == (
        "REQ-001: NoMatch\n"
        "    knowledge base is empty\n"
        "  [info] Unverifiable: requirement could not be matched to the model (REQ-001)\n"
    )
    assert main(io_argv(tmp_path, "complete", kb)) == 0
    unmatched = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))["unmatched"]
    assert unmatched == [{"diagnostics": ["knowledge base is empty"], "requirement_id": "REQ-001"}]


REPORT_GOLDEN = FIXTURES / "report_golden"


def test_report_and_trace_bytes_are_pinned(tmp_path):
    """The report and trace of a run that fills every report section and
    reaches every finding kind, byte for byte. Their keys are the field
    names of the report and trace records, so renaming or adding a field
    fails here."""
    code = main(
        [
            "complete",
            "--model", str(REPORT_GOLDEN / "model.json"),
            "--reqs", str(REPORT_GOLDEN / "reqs.feature"),
            "--kb", str(REPORT_GOLDEN / "kb.txt"),
            "--out", str(tmp_path / "model.json"),
            "--report", str(tmp_path / "report.json"),
            "--trace", str(tmp_path / "trace.json"),
        ]
    )
    assert code == 2
    for name in ("report.json", "trace.json"):
        assert (tmp_path / name).read_bytes() == (REPORT_GOLDEN / name).read_bytes(), name
    report = json.loads((REPORT_GOLDEN / "report.json").read_text(encoding="utf-8"))
    assert all(report[section] for section in ("added", "duplicates", "conflicts", "unmatched"))
    assert all(variant["effects"] for conflict in report["conflicts"] for variant in conflict["variants"])
    assert all(entry["diagnostics"] for entry in report["unmatched"])
    assert {finding["kind"] for finding in report["findings"]} == {
        "Conflict", "Redundancy", "SignalNotReceivable", "NonSingular", "Unverifiable",
    }


def golden_complete_argv(model: Path, out: Path) -> list[str]:
    return [
        "complete",
        "--model", str(model),
        "--reqs", str(REPORT_GOLDEN / "reqs.feature"),
        "--kb", str(REPORT_GOLDEN / "kb.txt"),
        "--out", str(out / "model.json"),
        "--report", str(out / "report.json"),
        "--trace", str(out / "trace.json"),
        "--diagrams", str(out / "diagrams"),
    ]


def test_golden_run_is_byte_identical_under_every_hash_seed(tmp_path):
    """Four processes with ``PYTHONHASHSEED`` 0 to 3 write the same model,
    report, trace and diagrams, print the same lines and exit alike: no
    output depends on the order of a set or a dict of strings."""
    runs = []
    for seed in range(4):
        out = tmp_path / str(seed)
        proc = run_module(*golden_complete_argv(REPORT_GOLDEN / "model.json", out),
                          env_update={"PYTHONHASHSEED": str(seed)})
        files = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        runs.append((proc.returncode, proc.stdout, proc.stderr, files))
    assert runs[0][0] == 2 and runs[0][2] == ""
    assert {"model.json", "report.json", "trace.json"} < set(runs[0][3])
    assert any(name.startswith("diagrams/") for name in runs[0][3])
    assert all(run == runs[0] for run in runs[1:])


def test_a_second_complete_on_its_own_output_adds_nothing(tmp_path, capsys):
    """Completing the completed model again finds every generated transition
    already there: nothing is added, and the model's bytes do not change."""
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(golden_complete_argv(REPORT_GOLDEN / "model.json", first)) == 2
    assert main(golden_complete_argv(first / "model.json", second)) == 2
    report = json.loads((second / "report.json").read_text(encoding="utf-8"))
    assert (len(report["added"]), len(report["duplicates"])) == (0, 5)
    assert (second / "model.json").read_bytes() == (first / "model.json").read_bytes()
