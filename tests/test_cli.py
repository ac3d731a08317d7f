from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from modcomplete.cli import main
from modcomplete.kb import DEFAULT_KB_TEXT

from conftest import FIXTURES, RAILWAY_REQUIREMENT


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
    model_doc = json.loads((out / "model.json").read_text())
    train = next(b for b in model_doc["blocks"] if b["name"] == "Train")
    assert len(train["state_machine"]["transitions"]) == 1
    report = json.loads((out / "report.json").read_text())
    assert len(report["added"]) == 1 and report["conflicts"] == []
    assert "1 added" in capsys.readouterr().out


def test_complete_conflict_fixture(tmp_path):
    code, out = run_complete(
        tmp_path, str(FIXTURES / "railway_model.json"), str(FIXTURES / "conflict.feature")
    )
    assert code == 2
    report = json.loads((out / "report.json").read_text())
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
    reqs.write_text("Given Gate in s1, When Gate receives Stops, Then Gate goes in s2\n")
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


def test_kb_lint_default_clean(capsys):
    assert main(["kb-lint"]) == 0
    assert "ok: 3 rule(s)" in capsys.readouterr().out


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


def test_kb_env_var_default(tmp_path, capsys, monkeypatch):
    kb_file = tmp_path / "kb.txt"
    kb_file.write_text(DEFAULT_KB_TEXT, encoding="utf-8")
    monkeypatch.setenv("MODCOMPLETE_KB", str(kb_file))
    assert main(["kb-lint"]) == 0
    monkeypatch.setenv("MODCOMPLETE_KB", str(tmp_path / "missing.txt"))
    assert main(["kb-lint"]) == 1


def test_module_entry_point():
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [
            sys.executable, "-m", "modcomplete", "check",
            "--model", str(FIXTURES / "railway_model.json"),
            "--reqs", str(FIXTURES / "railway.feature"),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "REQ-001: MR1" in proc.stdout


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
  [info] Unverifiable: requirement could not be matched to the model (REQ-006)
"""

GOLDEN_CHECK = """\
REQ-001: MR1 (8 bindings)
REQ-002: MR2 (6 bindings, 2 alternatives)
REQ-003: NoMatch
    closest: MR1 at given[0]: no Block matches (slot context1, phrase 'Spaceship in running')
REQ-004: AmbiguousMatch (MR2)
REQ-005: parse error: 'Then' before 'Given' (token 0)
REQ-006: MX (3 bindings)
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
    starting (State) = s1  <- 's1'
    context1 (Block) = Gate  <- 'Gate'
    final (State) = s2  <- 's2'
""" + GOLDEN_FINDINGS


@pytest.mark.parametrize("extra, expected", [([], GOLDEN_CHECK), (["--explain"], GOLDEN_CHECK_EXPLAIN)])
def test_check_golden_output(tmp_path, capsys, extra, expected):
    (tmp_path / "model.json").write_text(json.dumps(GOLDEN_MODEL), encoding="utf-8")
    (tmp_path / "kb.txt").write_text(GOLDEN_KB, encoding="utf-8")
    (tmp_path / "reqs.feature").write_text(GOLDEN_REQS, encoding="utf-8")
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
