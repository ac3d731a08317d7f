"""Run the modcomplete CLI with spans around the calls one module makes into another.

Usage: traced_cli.py OUT.json (spans|counts) CLI_ARGS...

``spans`` records, for every wrapped call, its name, start, end, parent span
and requirement id, keeps them in memory and writes them to OUT.json when
the CLI returns. ``counts`` only counts the phrase normalizations the model
layer performs; they are too many and too short to time one by one, so they
are counted in a run of their own that reports no timings. The wrappers are
installed on the names the importing modules hold, so the program's own
files stay untouched. The process exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import modcomplete.cli as cli
import modcomplete.generator as generator
import modcomplete.matcher as matcher
import modcomplete.model as model


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, requirement id, outcome flag]
        self.spans: list[list] = []
        self.stack: list[tuple[int, str | None]] = []

    def wrap(self, module, attr: str, name: str, rid=None, flag=None) -> None:
        fn = getattr(module, attr)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent, parent_rid = stack[-1] if stack else (-1, None)
            span = [name, 0.0, 0.0, parent, rid(args) if rid else parent_rid, None]
            stack.append((len(spans), span[4]))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if flag is not None:
                span[5] = flag(result)
            return result

        setattr(module, attr, wrapper)


def install_spans(tracer: Tracer) -> None:
    doc_id = lambda args: args[0].id  # noqa: E731
    for module in (cli, generator):
        tracer.wrap(module, "parse_requirement", "gherkin.parse_requirement", rid=doc_id)
        tracer.wrap(module, "match_requirement", "matcher.match_requirement", rid=doc_id)
    for attr, name in (("load_model", "model.load_model"), ("save_model", "model.save_model"),
                       ("parse_corpus", "gherkin.parse_corpus"), ("parse_kb", "kb.load"),
                       ("default_kb", "kb.load"), ("complete_model", "generator.complete_model"),
                       ("check_acceptability", "generator.check_acceptability"),
                       ("emit_trace_json", "trace.emit_trace_json")):
        tracer.wrap(cli, attr, name)
    tracer.wrap(cli, "emit_requirement_diagram", "trace.emit_requirement_diagram",
                rid=lambda args: args[0].requirement_id)
    tracer.wrap(generator, "instantiate_fragment", "generator.instantiate_fragment",
                rid=lambda args: args[3])
    tracer.wrap(generator, "add_transition", "model.add_transition")
    tracer.wrap(generator, "build_trace", "trace.build_trace")
    tracer.wrap(matcher, "match_clause", "matcher.match_clause", flag=lambda r: bool(r.maps))
    tracer.wrap(matcher, "lookup_elements", "model.lookup_elements", flag=bool)
    tracer.wrap(cli, "main", "cli.main")


def install_counts(counts: dict[str, int]) -> None:
    for attr in ("normalize_phrase", "normalize_signal_phrase"):
        fn = getattr(model, attr)

        def counted(*args, _fn=fn, _key=f"normalize.{attr}_calls"):
            counts[_key] += 1
            return _fn(*args)

        counts[f"normalize.{attr}_calls"] = 0
        setattr(model, attr, counted)


def main() -> int:
    out_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "spans":
        tracer = Tracer()
        install_spans(tracer)
        code = cli.main(argv)
        payload = tracer.spans
    else:
        counts: dict[str, int] = {}
        install_counts(counts)
        code = cli.main(argv)
        payload = counts
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
