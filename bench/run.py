"""Benchmark for the ``modcomplete`` command line, end to end and per module.

Usage (from the root of a checkout):

    python3 bench/run.py --workload wide-model --seed 1 --seconds 30 --trace 0

The run generates the workload's model, ``.feature`` and KB files from the
seed, checks the CLI's outputs against the generator's expected outcomes,
and runs ``match_requirement`` against ``oracle_match`` on a sample. It then
starts one CLI process after another (a closed loop, one client) for
``--seconds`` seconds, each followed by one process of the fixed reference
program ``reference.py``. With ``--trace 0`` it reports the end-to-end
metrics of untraced processes; with ``--trace 1`` it alternates untraced and
traced processes and reports the per-module metrics derived from the spans.
Every
metric is printed by name with its unit; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` counts requirement outcomes checked (corpus size times CLI
processes) and ``failed`` the wrong ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

CLI = [sys.executable, "-m", "modcomplete"]

#: Wall time of ``reference.py`` on an idle 2-vCPU 2.0 GHz virtual machine.
#: ``setup_s`` is stated in seconds at that speed (see measure_end_to_end).
REFERENCE_SECONDS = 0.150


class Run:
    """One workload's files, CLI command lines and measurements."""

    def __init__(self, workload: workloads.Workload, root: str, workdir: str) -> None:
        os.makedirs(workdir)
        self.workload = workload
        self.workdir = workdir
        self.outdir = os.path.join(workdir, "out")
        # Processes start in workdir and get relative names, so nothing they
        # print or write depends on where the checkout is or on the pid.
        self.inputs = ["model.json", "reqs.feature", "kb.txt"]
        for name, text in zip(self.inputs, (workload.model_text(), workload.feature_text(), workloads.KB_TEXT)):
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        self.env = {**os.environ, "PYTHONPATH": os.path.join(root, "src"), "TMPDIR": workdir}
        model, reqs, kb = self.inputs
        command = workload.command.split("-")[0]
        self.argv = [command, "--model", model, "--reqs", reqs, "--kb", kb]
        if command == "check":
            self.argv.append("--explain")
        else:
            self.argv += ["--out", "out/model.json", "--report", "out/report.json",
                          "--trace", "out/trace.json"]
            if workload.command.endswith("diagrams"):
                self.argv += ["--diagrams", "out/diagrams"]
        self.stdout_path = os.path.join(workdir, "stdout.txt")
        self.first_digests: dict[str, str] | None = None
        self.first_returncode = 0
        self.first_failed: set[str] = set()
        self.counts: dict[str, int] = {}
        self.bytes_written = 0
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0

    def launch(self, prefix: list[str]) -> tuple[float, float, int]:
        """Run one CLI process; return (wall seconds, peak RSS in MB, exit code)."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        with open(self.stdout_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(prefix + self.argv, stdout=out, stderr=subprocess.DEVNULL,
                                    env=self.env, cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024, proc.returncode

    def outputs(self) -> dict[str, bytes]:
        files = {"stdout": self.stdout_path}
        if os.path.isdir(self.outdir):
            for base, _, names in os.walk(self.outdir):
                for name in names:
                    path = os.path.join(base, name)
                    files[os.path.relpath(path, self.outdir)] = path
        out = {}
        for key, path in sorted(files.items()):
            with open(path, "rb") as fh:
                out[key] = fh.read()
        return out

    def verify(self, returncode: int) -> None:
        """Check one process's outputs: in full the first time, afterwards
        by exit code and byte identity with the first (a difference fails
        every requirement)."""
        outputs = self.outputs()
        digests = {k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()}
        n = len(self.workload.reqs)
        self.attempted += n
        if self.first_digests is None:
            try:
                if self.workload.command == "check":
                    failed, self.counts = checks.check_check(
                        self.workload, outputs["stdout"].decode("utf-8"), returncode)
                else:
                    failed, self.counts = checks.check_complete(
                        self.workload, self.outdir, returncode, self.workload.command.endswith("diagrams"))
            except (OSError, ValueError, KeyError, TypeError, AttributeError):
                # Missing or malformed output files: nothing can be right.
                failed, self.counts = {r.rid for r in self.workload.reqs}, {}
            self.first_digests, self.first_failed, self.first_returncode = digests, failed, returncode
            self.failed += len(failed)
            self.bytes_written = sum(len(v) for v in outputs.values())
        elif digests != self.first_digests or returncode != self.first_returncode:
            self.mismatches += 1
            self.failed += n
        else:
            self.failed += len(self.first_failed)


def traced_prefix(spans_path: str, mode: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path, mode]


def setup_seconds(run: Run) -> float:
    """Seconds one fresh process takes to import modcomplete and load the inputs."""
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), *run.inputs]
    out = subprocess.run(probe, env=run.env, cwd=run.workdir, capture_output=True, text=True, check=True)
    return float(out.stdout)


def reference_seconds(run: Run) -> float:
    """Wall time of one process of the fixed reference program."""
    start = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "reference.py")], env=run.env, cwd=run.workdir,
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def oracle_sample(workload: workloads.Workload, seed: int) -> list[workloads.Req]:
    """One requirement of every (kind, rule, alternatives, outcome) class."""
    classes: dict[tuple, list] = {}
    for req in workload.reqs:
        classes.setdefault((req.kind, req.rule or "", req.alternatives, req.outcome), []).append(req)
    rng = random.Random(f"oracle:{seed}")
    return [rng.choice(classes[key]) for key in sorted(classes)]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

END_TO_END = {"wall_rel": "x", "reqs_per_ref": "1/ref", "setup_s": "s", "peak_rss_mb": "MB",
              "correct_frac": "frac"}

PER_LAYER = {
    "gherkin.parse_corpus_s": "s", "gherkin.parse_requirement_s": "s",
    "gherkin.parse_requirement_calls": "count", "kb.load_s": "s",
    "model.load_model_s": "s", "model.lookup_elements_s": "s",
    "model.lookup_elements_calls": "count", "model.lookup_hit_ratio": "frac",
    "model.add_transition_s": "s", "model.add_transition_calls": "count",
    "normalize.normalize_phrase_calls": "count", "normalize.normalize_signal_phrase_calls": "count",
    "matcher.match_requirement_calls": "count", "matcher.match_requirement_s": "s",
    "matcher.match_clause_calls": "count", "matcher.match_clause_self_s": "s",
    "matcher.clause_yield": "frac", "matcher.req_p50_ms": "ms", "matcher.req_p99_ms": "ms",
    "matcher.req_samples": "count", "generator.complete_model_s": "s",
    "generator.instantiate_fragment_s": "s", "generator.self_s": "s",
    "generator.check_acceptability_s": "s", "trace.build_trace_s": "s", "cli.self_s": "s",
    "cli.bytes_written": "bytes", "outcome.added": "count", "outcome.duplicate": "count",
    "outcome.conflict": "count", "outcome.unmatched": "count", "outcome.ambiguous": "count",
    "share.lookup": "frac", "share.io": "frac", "bench.trace_overhead_s": "s",
    "bench.reference_s": "s",
}

#: Printed but left out of the result line: the first three are zero on a
#: workload whose command does not run that layer, and a time that reads the
#: same on every run is not a measurement.
DETAILS = {"model.save_model_s": "s", "trace.emit_trace_json_s": "s",
           "trace.emit_requirement_diagram_s": "s", "cli.main_s": "s", "bench.traced_wall_s": "s",
           "wall_s": "s", "reqs_per_s": "1/s", "setup_raw_s": "s", "reference_s": "s"}


# ---------------------------------------------------------------------------
# Per-module metrics from spans
# ---------------------------------------------------------------------------


def layer_metrics(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-module totals of one traced process, plus per-requirement matching times."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    flagged: dict[str, int] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, flag in spans:
        total[name] = total.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        flagged[name] = flagged.get(name, 0) + bool(flag)
        if parent >= 0:
            child_time[parent] += end - start

    def self_time(name: str) -> float:
        return sum(s[2] - s[1] - child_time[i] for i, s in enumerate(spans) if s[0] == name)

    per_req: dict[str, float] = {}
    for name, start, end, _, rid, _ in spans:
        if name == "matcher.match_requirement":
            per_req[rid] = per_req.get(rid, 0.0) + end - start

    def t(name: str) -> float:
        return total.get(name, 0.0)

    main = t("cli.main")
    io = (t("model.load_model") + t("model.save_model") + t("trace.build_trace")
          + t("trace.emit_trace_json") + t("trace.emit_requirement_diagram") + self_time("cli.main"))
    m = {
        "gherkin.parse_corpus_s": t("gherkin.parse_corpus"),
        "gherkin.parse_requirement_s": t("gherkin.parse_requirement"),
        "gherkin.parse_requirement_calls": calls.get("gherkin.parse_requirement", 0),
        "kb.load_s": t("kb.load"),
        "model.load_model_s": t("model.load_model"),
        "model.lookup_elements_s": t("model.lookup_elements"),
        "model.lookup_elements_calls": calls.get("model.lookup_elements", 0),
        "model.lookup_hit_ratio": flagged.get("model.lookup_elements", 0) / max(1, calls.get("model.lookup_elements", 0)),
        "model.add_transition_s": t("model.add_transition"),
        "model.add_transition_calls": calls.get("model.add_transition", 0),
        "model.save_model_s": t("model.save_model"),
        "matcher.match_requirement_calls": calls.get("matcher.match_requirement", 0),
        "matcher.match_requirement_s": t("matcher.match_requirement"),
        "matcher.match_clause_calls": calls.get("matcher.match_clause", 0),
        "matcher.match_clause_self_s": self_time("matcher.match_clause"),
        "matcher.clause_yield": flagged.get("matcher.match_clause", 0) / max(1, calls.get("matcher.match_clause", 0)),
        "generator.complete_model_s": t("generator.complete_model"),
        "generator.instantiate_fragment_s": t("generator.instantiate_fragment"),
        "generator.self_s": self_time("generator.complete_model"),
        "generator.check_acceptability_s": t("generator.check_acceptability"),
        "trace.build_trace_s": t("trace.build_trace"),
        "trace.emit_trace_json_s": t("trace.emit_trace_json"),
        "trace.emit_requirement_diagram_s": t("trace.emit_requirement_diagram"),
        "cli.self_s": self_time("cli.main"),
        "cli.main_s": main,
        "share.lookup": t("model.lookup_elements") / main,
        "share.io": io / main,
    }
    return m, per_req


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# Measurement loops
# ---------------------------------------------------------------------------


def measure_end_to_end(run: Run, seconds: float) -> dict[str, float]:
    """CLI process, reference process and set-up probe, in turn, for ``seconds`` seconds.

    The host is shared and its speed drifts by half within minutes; a CLI
    process, the reference process started right after it and the set-up
    probe after that see the same host. So ``wall_rel``, the median over
    such pairs of the CLI's wall time divided by the reference's, stays put
    while the raw times move. ``setup_s`` must be in seconds: it is the
    median of probe time / reference time, times ``REFERENCE_SECONDS``, the
    set-up time on a host as fast as the idle one the constant was taken on.
    The raw times are printed next to them.
    """
    walls, refs, rss, setups = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        wall, peak, code = run.launch(CLI)
        run.verify(code)
        walls.append(wall)
        refs.append(reference_seconds(run))
        rss.append(peak)
        setups.append(setup_seconds(run))
    wall_rel = statistics.median(w / r for w, r in zip(walls, refs))
    n = len(run.workload.reqs)
    print(f"# {len(walls)} CLI processes: wall min {min(walls):.4f} s, median {statistics.median(walls):.4f} s, "
          f"max {max(walls):.4f} s")
    print(f"# {len(refs)} reference processes: min {min(refs):.4f} s, median {statistics.median(refs):.4f} s, "
          f"max {max(refs):.4f} s")
    print(f"# {len(setups)} set-up probes: min {min(setups):.4f} s, median {statistics.median(setups):.4f} s, "
          f"max {max(setups):.4f} s")
    return {
        "wall_rel": wall_rel,
        "reqs_per_ref": n / wall_rel,
        "setup_s": REFERENCE_SECONDS * statistics.median(s / r for s, r in zip(setups, refs)),
        "peak_rss_mb": statistics.median(rss),
        "wall_s": statistics.median(walls),
        "reqs_per_s": n / statistics.median(walls),
        "setup_raw_s": statistics.median(setups),
        "reference_s": statistics.median(refs),
    }


def measure_layers(run: Run, seconds: float) -> dict[str, float]:
    """Untraced and traced CLI processes, in turn, for ``seconds`` seconds,
    then one process that counts normalizations; per-module medians."""
    spans_path = os.path.join(run.workdir, "spans.json")
    plain, traced, per_run, per_req, refs = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        wall, _, code = run.launch(CLI)
        run.verify(code)
        plain.append(wall)
        refs.append(reference_seconds(run))
        wall, _, code = run.launch(traced_prefix(spans_path, "spans"))
        run.verify(code)
        traced.append(wall)
        with open(spans_path, encoding="utf-8") as fh:
            metrics, req_times = layer_metrics(json.load(fh))
        per_run.append(metrics)
        per_req.extend(req_times.values())

    counts_path = os.path.join(run.workdir, "counts.json")
    _, _, code = run.launch(traced_prefix(counts_path, "counts"))
    run.verify(code)
    with open(counts_path, encoding="utf-8") as fh:
        counts = json.load(fh)

    print(f"# {len(traced)} traced and {len(plain)} untraced CLI processes, "
          f"{len(per_req)} per-requirement match times")
    out = {name: statistics.median(r[name] for r in per_run) for name in per_run[0]}
    out.update(counts)
    out["matcher.req_p50_ms"] = 1000 * percentile(per_req, 0.50)
    out["matcher.req_p99_ms"] = 1000 * percentile(per_req, 0.99)
    out["matcher.req_samples"] = len(per_req)
    out["cli.bytes_written"] = run.bytes_written
    for outcome in workloads.OUTCOMES:
        out[f"outcome.{outcome}"] = run.counts.get(outcome, 0)
    out["bench.traced_wall_s"] = statistics.median(traced)
    out["bench.trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    out["bench.reference_s"] = statistics.median(refs)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "modcomplete", "__init__.py")):
        print("error: run from the root of a modcomplete checkout (src/modcomplete is missing)",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        run = Run(workload, root, workdir)
        sys.path.insert(0, os.path.join(root, "src"))
        sample = oracle_sample(workload, args.seed)
        problems = checks.oracle_spot_check(workload, sample, workload.model_text(),
                                            workload.feature_text(), workloads.KB_TEXT)
        # One untimed process first: it writes the bytecode cache and is the
        # reference every measured process's outputs are compared with.
        run.verify(run.launch(CLI)[2])
        if args.trace:
            metrics = measure_layers(run, args.seconds)
        else:
            metrics = measure_end_to_end(run, args.seconds)
            metrics["correct_frac"] = 1 - run.failed / run.attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still works there
            pass

    expected = workload.outcome_counts()
    correct = run.failed == 0 and not problems and run.counts == expected
    print(f"# workload {workload.name}, seed {args.seed}: {len(workload.reqs)} requirements, "
          f"`modcomplete {run.argv[0]}`")
    print(f"# expected outcomes {json.dumps(expected)}, reported {json.dumps(run.counts)}")
    print(f"# oracle spot check on {len(sample)} requirements: "
          + ("agrees" if not problems else "; ".join(problems)))
    print(f"# processes whose outputs differ from the first: {run.mismatches}")
    diagrams = {n: d for n, d in run.first_digests.items() if n.startswith("diagrams")}
    for name, digest in sorted(run.first_digests.items()):
        if name not in diagrams:
            print(f"# sha256 {name} {digest}")
    if diagrams:
        combined = hashlib.sha256("".join(d for _, d in sorted(diagrams.items())).encode()).hexdigest()
        print(f"# sha256 of the {len(diagrams)} diagram digests {combined}")

    units = {**END_TO_END, **PER_LAYER, **DETAILS}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    reported = END_TO_END if not args.trace else PER_LAYER
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
