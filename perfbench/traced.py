"""One traced, in-process run of the pubrank CLI.

Wraps the module-level functions the CLI's entry points call, so that each
call records a span (name, start, end, parent, run id), the ru_maxrss
high-water mark right after it, and the counts its arguments and result
carry. Then calls `run_cli` with the given arguments, exactly as
`python -m pubrank.cli` would, with stdout captured. Spans stay in memory
and are written as one JSON document when the run ends:

    python3 perfbench/traced.py SPANS.json rank --corpus corpus.jsonl --out tables

Span names are `<module>.<stage>`; the benchmark turns them into per-layer
metrics. A function the program no longer has is listed under "missing"
rather than traced.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import resource
import sys
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def _pair_counts(first: str, second: str):
    return lambda args, result: {first: len(result[0]), second: len(result[1])}


# (module, attribute looked up at call time, span name, counts of the call)
TRACED = (
    ("pubrank.cli", "run_validate", "report.run_validate", None),
    ("pubrank.cli", "run_rank", "report.run_rank", None),
    ("pubrank.report", "run_pipeline", "report.run_pipeline", None),
    ("pubrank.report", "load_registry_dir", "registry.load", None),
    ("pubrank.report", "load_taxonomy", "taxonomy.load", None),
    ("pubrank.report", "ingest_corpus", "corpus.ingest", _pair_counts("records", "diagnostics")),
    ("pubrank.report", "filter_corpus", "corpus.filter",
     lambda args, result: {"kept": len(result), "dropped": len(args[0]) - len(result)}),
    ("pubrank.report", "resolve_corpus", "corpus.resolve", _pair_counts("resolved", "unresolved")),
    ("pubrank.corpus", "corpus_fingerprint", "corpus.fingerprint", None),
    ("pubrank.report", "compute_baselines", "indicators.baselines",
     lambda args, result: {"cells": len(result.cells)}),
    ("pubrank.report", "build_all_rankings", "ranking.tables",
     lambda args, result: {"entries": sum(len(t.entries) for t in result)}),
    ("pubrank.ranking", "compute_all_rows", "indicators.rows",
     lambda args, result: {"rows": len(result)}),
    ("pubrank.report", "export_all_rankings", "report.export", None),
    # one span per table and format, named report.export_<format>
    ("pubrank.report", "export_ranking", "report.export_", None),
)


class Tracer:
    """Spans of one run, in start order; `parent` is an index into them."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"name": name, "run_id": self.run_id,
                  "parent": self._open[-1] if self._open else None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            record["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def wrap(self, fn, name: str, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # export_ranking(table, fmt, destination): the format names the span
            with self.span(name + args[1] if name.endswith("_") else name) as record:
                result = fn(*args, **kwargs)
            if counts is not None:
                record["counts"] = counts(args, result)
            return result

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function; return those the program does not have."""
    missing = []
    for module_name, attribute, name, counts in TRACED:
        module = importlib.import_module(module_name)
        fn = getattr(module, attribute, None)
        if fn is None:
            missing.append(f"{module_name}.{attribute}")
        else:
            setattr(module, attribute, tracer.wrap(fn, name, counts))
    return missing


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    from pubrank.cli import run_cli

    tracer = Tracer()
    missing = install(tracer)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), tracer.span("cli.run"):
        code = run_cli(cli_args)
    stdout = captured.getvalue()
    spans_path.write_text(json.dumps({
        "run_id": tracer.run_id,
        "exit_code": code,
        "stdout_lines": stdout.count("\n"),
        "stdout_sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
        "missing": missing,
        "spans": tracer.spans,
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
