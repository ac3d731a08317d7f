"""The traced benchmark (bench/traced_cli.py) wraps pipeline functions by
their module attribute names. Run it once so that renaming or removing one
of those attributes fails here rather than in the benchmark."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES

ROOT = Path(__file__).resolve().parents[1]


def run_traced(out_path: Path, mode: str, *cli_args: str, cwd: Path | None = None) -> None:
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(out_path), mode, *cli_args,
            "--model", str(FIXTURES / "railway_model.json"),
            "--reqs", str(FIXTURES / "railway.feature"),
        ],
        capture_output=True,
        text=True,
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
