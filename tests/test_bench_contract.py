"""The traced benchmark (bench/traced_cli.py) wraps pipeline functions by
their module attribute names, and the benchmark's correctness check reads
match records. Run both here, so that renaming or removing what they use
fails here rather than in the benchmark."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES

ROOT = Path(__file__).resolve().parents[1]


def bench_run_module():
    """``bench/run.py`` as a module (it puts ``bench/`` on ``sys.path``)."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["wide-model", "clause-search", "dense-machines"])
def test_benchmark_oracle_spot_check_agrees_on_seed_1(name):
    """The check ``bench/run.py`` runs before it measures: the matcher, the
    oracle and the workload's expected outcomes agree on a sample."""
    run = bench_run_module()
    workload = run.workloads.WORKLOADS[name](1)
    sample = run.oracle_sample(workload, 1)
    assert sample
    problems = run.checks.oracle_spot_check(
        workload, sample, workload.model_text(), workload.feature_text(), run.workloads.KB_TEXT
    )
    assert problems == []


def run_traced(out_path: Path, mode: str, *cli_args: str, cwd: Path | None = None) -> None:
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(out_path), mode, *cli_args,
            "--model", str(FIXTURES / "railway_model.json"),
            "--reqs", str(FIXTURES / "railway.feature"),
        ],
        capture_output=True,
        text=True,
        encoding="utf-8",
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_check_records_matching_and_lookup_spans(tmp_path):
    spans_path = tmp_path / "spans.json"
    run_traced(spans_path, "spans", "check", "--explain")
    names = {span[0] for span in json.loads(spans_path.read_text(encoding="utf-8"))}
    assert {"matcher.match_requirement", "model.lookup_elements"} <= names


def test_counted_complete_reports_normalization_calls(tmp_path):
    counts_path = tmp_path / "counts.json"
    run_traced(counts_path, "counts", "complete", cwd=tmp_path)
    counts = json.loads(counts_path.read_text(encoding="utf-8"))
    assert {"normalize.normalize_phrase_calls", "normalize.normalize_signal_phrase_calls"} <= set(counts)


def test_memoized_lookup_still_counts_every_probe(tmp_path):
    """The benchmark's ``model.lookup_elements_calls`` counts the matcher's
    probes, memo hits included; only the work behind a probe may shrink.
    On the railway fixture ``check`` makes 21 probes, and before the memo
    they derived signal variants 26 times. The count was 66 while
    ``match_clause`` also searched from every prefix of an article run and
    let spans start or end on an article; removing those paths, not a cache
    in front of ``lookup_elements``, made it fall to 19. Reading a section
    as one clause lets a span run past a connective where no clause group
    ended, which added two."""
    spans_path, counts_path = tmp_path / "spans.json", tmp_path / "counts.json"
    run_traced(spans_path, "spans", "check")
    run_traced(counts_path, "counts", "check")
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    counts = json.loads(counts_path.read_text(encoding="utf-8"))
    assert sum(span[0] == "model.lookup_elements" for span in spans) == 21
    assert counts["normalize.normalize_signal_phrase_calls"] <= 13


def test_traced_complete_records_every_span_the_benchmark_reads(tmp_path):
    """``bench/run.py::layer_metrics`` reads these span names; a CLI that
    stops calling one of the wrapped names would zero a metric silently."""
    spans_path = tmp_path / "spans.json"
    run_traced(spans_path, "spans", "complete", "--diagrams", "diagrams", cwd=tmp_path)
    names = {span[0] for span in json.loads(spans_path.read_text(encoding="utf-8"))}
    assert names >= {
        "cli.main", "model.load_model", "gherkin.parse_corpus", "kb.load",
        "generator.complete_model", "gherkin.parse_requirement", "matcher.match_requirement",
        "matcher.match_clause", "model.lookup_elements",
        "generator.instantiate_fragment", "model.add_transition", "trace.build_trace",
        "generator.check_acceptability",
        "model.save_model", "trace.emit_trace_json", "trace.emit_requirement_diagram",
    }


def test_traced_complete_records_one_diagram_span_per_diagram_written(tmp_path):
    """``traced_cli.py`` wraps ``cli.emit_requirement_diagram`` by name and
    tags each span with the record's requirement id (its first argument), so
    ``trace.emit_requirement_diagram_s`` covers each diagram file written."""
    spans_path = tmp_path / "spans.json"
    run_traced(spans_path, "spans", "complete", "--diagrams", "diagrams", cwd=tmp_path)
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    span_ids = [span[4] for span in spans if span[0] == "trace.emit_requirement_diagram"]
    written = sorted(path.name for path in (tmp_path / "diagrams").iterdir())
    assert written
    assert written == [f"RD-{rid}.puml" for rid in span_ids]


def test_traced_complete_merges_in_one_span_under_complete_model(tmp_path):
    """The merge is one call, made by ``complete_model``, so the benchmark's
    ``model.add_transition_s`` measures the whole merge."""
    spans_path = tmp_path / "spans.json"
    run_traced(spans_path, "spans", "complete", cwd=tmp_path)
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    merges = [span for span in spans if span[0] == "model.add_transition"]
    assert len(merges) == 1
    assert spans[merges[0][3]][0] == "generator.complete_model"
