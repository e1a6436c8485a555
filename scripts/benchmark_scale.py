#!/usr/bin/env python3
"""Measure pipeline wall time and peak memory at database scale.

Generates a synthetic corpus (~500k records by default) in a temporary
directory, then times the analysis path: ingest -> filter -> resolve ->
citation baselines -> all ranking tables. Corpus generation and table
export are deliberately outside the timed span; they are one-off setup
and I/O, not the per-run analysis cost.

Prints one JSON object, e.g.:

    {"records": 500123, "tables": 42, "elapsed": 31.4, "maxrss_mb": 1210.5}

ru_maxrss covers the whole process (generation included), so the memory
figure is an upper bound on what the pipeline itself needs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from pubrank import (  # noqa: E402
    DEFAULT_EXCLUDED_PUBLISHERS,
    DEFAULT_WINDOW,
    SynthParams,
    ThresholdPolicy,
    build_all_rankings,
    compute_baselines,
    filter_corpus,
    generate_corpus,
    ingest_corpus,
    resolve_corpus,
    sample_taxonomy_path,
)
from pubrank.registry import load_registry_dir  # noqa: E402
from pubrank.taxonomy import load_taxonomy  # noqa: E402

ITEMS_PER_PUBLISHER = 400


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=500_000,
                        help="approximate corpus size to generate")
    parser.add_argument("--seed", type=int, default=99)
    args = parser.parse_args(argv)

    publishers = max(1, round(args.records / ITEMS_PER_PUBLISHER))
    params = SynthParams(
        seed=args.seed,
        publisher_count=publishers,
        items_per_publisher=(ITEMS_PER_PUBLISHER - 10, ITEMS_PER_PUBLISHER + 10),
    )
    taxonomy = load_taxonomy(sample_taxonomy_path())

    with tempfile.TemporaryDirectory(prefix="pubrank-bench-") as tmp:
        result = generate_corpus(params, taxonomy, tmp)
        registry = load_registry_dir(result.registry_dir)

        t0 = time.perf_counter()
        records, _ = ingest_corpus(result.corpus_path, DEFAULT_WINDOW)
        filtered = filter_corpus(records, registry, DEFAULT_WINDOW,
                                 DEFAULT_EXCLUDED_PUBLISHERS)
        corpus, _ = resolve_corpus(filtered, registry, strict=True)
        baselines = compute_baselines(corpus, taxonomy)
        tables = build_all_rankings(corpus, registry, taxonomy, baselines,
                                    ThresholdPolicy())
        elapsed = time.perf_counter() - t0

    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({
        "records": result.item_count,
        "tables": len(tables),
        "elapsed": round(elapsed, 3),
        "maxrss_mb": round(maxrss_mb, 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
