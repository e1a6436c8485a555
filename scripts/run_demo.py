#!/usr/bin/env python3
"""End-to-end walkthrough on a synthetic corpus.

Generates a small corpus with ground truth, runs the full ranking
pipeline on it, prints the top of one field table, and cross-checks the
engine's counts for one publisher against the generator's ledger.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from pubrank import (  # noqa: E402
    RunConfig,
    Scope,
    run_rank,
    sample_taxonomy_path,
)
from pubrank.taxonomy import load_taxonomy  # noqa: E402
from pubrank.testkit import SynthParams, generate_corpus  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--publishers", type=int, default=12)
    parser.add_argument(
        "--out", type=Path, default=None,
        help="keep generated inputs and tables here (default: temp dir)",
    )
    args = parser.parse_args(argv)

    workdir = args.out or Path(tempfile.mkdtemp(prefix="pubrank-demo-"))
    taxonomy = load_taxonomy(sample_taxonomy_path())

    print(f"# generating synthetic corpus (seed={args.seed}) in {workdir}")
    result = generate_corpus(
        SynthParams(seed=args.seed, publisher_count=args.publishers,
                    items_per_publisher=(60, 120)),
        taxonomy,
        workdir / "inputs",
    )
    print(f"  {result.item_count} records, "
          f"{len(result.ledger.all_publishers)} publishers in ledger")

    print("# ranking")
    pipeline, written = run_rank(RunConfig(
        corpus=result.corpus_path,
        registry_dir=result.registry_dir,
        taxonomy=result.taxonomy_path,
        out=workdir / "tables",
        min_books=5,
        min_chapters=50,
        formats=("csv", "json"),
    ))
    print(f"  {len(pipeline.tables)} tables, {len(written)} files")

    scope = Scope("field", "Humanities & Arts")
    table = next(t for t in pipeline.tables if t.scope == scope)
    print(f"# top of '{scope.name}' ({len(table.entries)} eligible publishers)")
    print(f"  {'rank':>4}  {'publisher':<28} {'pbk':>5} {'pch':>5} {'cit':>5} "
          f"{'fncs':>6} {'ai':>5} {'ed':>4}")
    for rank, r in enumerate(table.entries[:8], start=1):
        name = table.publishers[r.publisher_id].name
        print(f"  {rank:>4}  {name:<28} {r.pbk:>5} {r.pch:>5} "
              f"{r.cit:>5} {r.fncs:>6.2f} {r.ai:>5.2f} {r.ed:>3.0f}%")

    if table.entries:
        top = table.entries[0]
        truth = result.ledger.scope_truth(top.publisher_id, scope)
        ok = (top.pbk, top.pch, top.cit) == (truth.pbk, truth.pch, truth.cit)
        print(f"# ledger cross-check for {table.publishers[top.publisher_id].name}: "
              f"{'counts match' if ok else 'MISMATCH'}")
        if not ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
