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


def test_traced_check_records_matching_and_lookup_spans(tmp_path):
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(spans_path), "spans",
            "check", "--explain",
            "--model", str(FIXTURES / "railway_model.json"),
            "--reqs", str(FIXTURES / "railway.feature"),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(spans_path.read_text(encoding="utf-8"))}
    assert {"matcher.match_requirement", "model.lookup_elements"} <= names
