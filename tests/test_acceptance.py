"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the -v test names double as the pass/fail report.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from modcomplete import (
    complete_model,
    default_kb,
    load_model,
    parse_corpus,
    parse_kb,
    parse_requirement,
    save_model,
    serialize_kb,
)
from modcomplete.cli import main
from modcomplete.gherkin import TERMINAL_PUNCT, ParseError, RequirementDoc, tokenize

from conftest import FIXTURES, RAILWAY_REQUIREMENT
from support import agreement, random_case, random_kb, random_model

TABLE_BINDINGS = [
    ("context1", "Block", "Train"),
    ("starting", "State", "Running"),
    ("context2", "Block", "BrakingSupervision"),
    ("event", "Signal", "EmergencyStop"),
    ("context3", "Block", "BrakingSupervision"),
    ("operation", "Signal", "Activate"),
    ("context4", "Block", "Brake"),
    ("final", "State", "Braking"),
]


def run_cmd_complete(out: Path) -> int:
    return main(
        [
            "complete",
            "--model", str(FIXTURES / "railway_model.json"),
            "--reqs", str(FIXTURES / "railway.feature"),
            "--out", str(out / "model.json"),
            "--report", str(out / "report.json"),
            "--trace", str(out / "trace.json"),
            "--diagrams", str(out / "diagrams"),
        ]
    )


def test_criterion_1_railway_golden(tmp_path, capsys):
    started = time.perf_counter()
    code = run_cmd_complete(tmp_path)
    elapsed = time.perf_counter() - started
    assert code == 0
    model_doc = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
    transitions = [
        t
        for block in model_doc["blocks"]
        for t in (block.get("state_machine") or {}).get("transitions", [])
    ]
    assert len(transitions) == 1
    owner = next(
        b["name"]
        for b in model_doc["blocks"]
        if (b.get("state_machine") or {}).get("transitions")
    )
    assert owner == "Train"
    (transition,) = transitions
    assert transition["source"] == "Running"
    assert transition["target"] == "Braking"
    assert transition["trigger"] == "EmergencyStop"
    assert transition["effects"] == [{"signal": "Activate", "target_block": "Brake"}]
    assert transition["provenance"] == ["REQ-001"]

    trace_doc = json.loads((tmp_path / "trace.json").read_text(encoding="utf-8"))
    assert len(trace_doc) == 1
    got = [(b["role"], b["metaclass"], b["element"]) for b in trace_doc[0]["bindings"]]
    assert got == TABLE_BINDINGS
    assert elapsed < 1.0
    capsys.readouterr()
    print(f"criterion 1 PASS: railway golden run exact in {elapsed * 1000:.0f} ms")


def test_criterion_2_pairwise_attributes(tmp_path):
    model = load_model((FIXTURES / "railway_model.json").read_text(encoding="utf-8"))
    kb = default_kb()

    conflict_corpus = parse_corpus((FIXTURES / "conflict.feature").read_text(encoding="utf-8"))
    from modcomplete import check_acceptability

    conflict_result = complete_model(model, conflict_corpus, kb)
    conflict_findings = [
        f
        for f in check_acceptability(conflict_result)
        if f.kind == "Conflict"
    ]
    assert len(conflict_findings) == 1
    assert conflict_findings[0].severity == "error"
    assert conflict_findings[0].requirement_ids == ("REQ-A", "REQ-B")

    duplicate_corpus = parse_corpus((FIXTURES / "duplicate.feature").read_text(encoding="utf-8"))
    dup_result = complete_model(model, duplicate_corpus, kb)
    warnings = [
        f
        for f in check_acceptability(dup_result)
        if f.kind == "Redundancy"
    ]
    assert len(warnings) == 1
    assert warnings[0].severity == "warning"
    single_result = complete_model(model, duplicate_corpus[:1], kb)
    dup_transitions = dup_result.model.block("Train").state_machine.transitions
    single_transitions = single_result.model.block("Train").state_machine.transitions
    assert [t.id for t in dup_transitions] == [t.id for t in single_transitions]
    assert [t._replace(provenance=()) for t in dup_transitions] == [
        t._replace(provenance=()) for t in single_transitions
    ]
    print("criterion 2 PASS: one Conflict error naming both ids; one Redundancy warning")


def test_criterion_3_oracle_equivalence():
    kb = default_kb()
    rng = random.Random(424242)
    cases = 1000
    started = time.perf_counter()
    for i in range(cases):
        model, text, ast = random_case(rng)
        main_outcome, oracle_outcome = agreement(ast, kb, model)
        assert main_outcome == oracle_outcome, (
            f"case {i}: matcher {main_outcome} vs oracle {oracle_outcome} "
            f"on {text!r}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 3 PASS: {cases} randomized cases, 100% agreement in {elapsed:.1f} s")


def test_criterion_4_determinism(tmp_path):
    first, second = tmp_path / "run1", tmp_path / "run2"
    assert run_cmd_complete(first) == 0
    assert run_cmd_complete(second) == 0
    for name in ("model.json", "report.json", "trace.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    assert (first / "diagrams" / "RD-REQ-001.puml").read_bytes() == (
        second / "diagrams" / "RD-REQ-001.puml"
    ).read_bytes()
    print("criterion 4 PASS: double run byte-identical (model, report, trace, diagram)")


def test_criterion_5_idempotence():
    model = load_model((FIXTURES / "railway_model.json").read_text(encoding="utf-8"))
    corpus = parse_corpus((FIXTURES / "railway.feature").read_text(encoding="utf-8"))
    kb = default_kb()
    once = complete_model(model, corpus, kb)
    again = complete_model(once.model, corpus, kb)
    assert again.report.added == ()
    assert len(again.report.duplicates) == len(corpus)
    assert again.model == once.model
    print("criterion 5 PASS: re-completion adds 0 transitions (all duplicates)")


def test_criterion_6_round_trips():
    rng = random.Random(31337)
    for _ in range(110):
        model = random_model(rng)
        assert load_model(save_model(model)) == model
    for _ in range(110):
        kb = random_kb(rng)
        assert parse_kb(serialize_kb(kb)) == kb
    print("criterion 6 PASS: 110 model + 110 KB randomized round-trips")


def test_criterion_7_grammar_properties():
    # Keyword ordering: exactly Given [When] Then is accepted.
    fillers = {"given": "alpha", "when": "beta", "then": "gamma"}
    accepted = 0
    for n in (1, 2, 3, 4):
        for combo in itertools.product(["given", "when", "then"], repeat=n):
            text = " ".join(f"{kw.capitalize()} {fillers[kw]}" for kw in combo)
            ok = combo in (("given", "then"), ("given", "when", "then"))
            doc = RequirementDoc(id="R", text=text)
            if ok:
                parse_requirement(doc)
                accepted += 1
            else:
                with pytest.raises(ParseError):
                    parse_requirement(doc)

    # Lossless segmentation over the full test corpus plus random sentences.
    texts = [RAILWAY_REQUIREMENT]
    for fixture in ("railway.feature", "conflict.feature", "duplicate.feature"):
        for doc in parse_corpus((FIXTURES / fixture).read_text(encoding="utf-8")):
            texts.append(doc.text)
    rng = random.Random(2024)
    for _ in range(200):
        texts.append(random_case(rng)[1])
    for text in texts:
        ast = parse_requirement(RequirementDoc(id="R", text=text))
        tokens = tokenize(text)
        accounted = [t for c in ast.given + ast.when + ast.then for t in (c.lead, *c.words)]
        accounted += [t for t in tokens if t.lower in TERMINAL_PUNCT]
        assert sorted(t.index for t in accounted) == list(range(len(tokens)))
        rebuilt = "".join(t.text for t in sorted(accounted, key=lambda t: t.index))
        assert rebuilt == "".join(text.split())
    print(
        f"criterion 7 PASS: {accepted} valid orderings accepted, all others rejected; "
        f"{len(texts)} corpora reconstructed losslessly"
    )
