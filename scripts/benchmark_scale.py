#!/usr/bin/env python3
"""Measure pipeline wall time and peak memory at database scale.

Generates a synthetic corpus (~500k records by default) in a temporary
directory, then times the analysis path as `run_pipeline` runs it for
`rank --format csv,json,html`: load registry and taxonomy -> ingest ->
filter -> resolve -> fingerprint -> citation baselines -> all ranking
tables. Corpus generation and table export are
deliberately outside the timed span; they are one-off setup and I/O, not
the per-run analysis cost.

Then runs the CLI path on the same corpus, `pubrank rank --format
csv,json,html` in a child process, from JSONL on disk to written tables,
and reports its own wall time and peak RSS. The child is spawned through
perfbench/launcher.py, started before generation: on exec, Linux folds the
parent's resident-set high-water mark into the child's ru_maxrss.

Prints one JSON object, e.g.:

    {"records": 500123, "tables": 42, "elapsed": 31.4, "maxrss_mb": 1210.5,
     "cli_wall_s": 10.4, "cli_maxrss_mb": 276.0}

ru_maxrss covers the whole process (generation included), so the memory
figure is an upper bound on what the pipeline itself needs.

Both runs parse the corpus cold: ingest's cache (see README) points at an
empty directory of its own for each run, inside the temporary directory,
so neither run reads the other's entry and nothing is left behind.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from pubrank import (  # noqa: E402
    RunConfig,
    run_pipeline,
    sample_taxonomy_path,
)
from pubrank.taxonomy import load_taxonomy  # noqa: E402
from pubrank.testkit import SynthParams, generate_corpus  # noqa: E402

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
    launcher = subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "launcher.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    with launcher, tempfile.TemporaryDirectory(prefix="pubrank-bench-") as tmp:
        taxonomy = load_taxonomy(sample_taxonomy_path())
        result = generate_corpus(params, taxonomy, tmp)
        cli = _run_cli_rank(launcher, result, Path(tmp))
        os.environ["XDG_CACHE_HOME"] = str(Path(tmp, "cache"))
        # the CLI child's formats, so that this run hashes the corpus as that one does
        config = RunConfig(corpus=result.corpus_path, registry_dir=result.registry_dir,
                           taxonomy=result.taxonomy_path, formats=("csv", "json", "html"),
                           strict=True)

        t0 = time.perf_counter()
        tables = run_pipeline(config).tables
        elapsed = time.perf_counter() - t0

    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({
        "records": result.item_count,
        "tables": len(tables),
        "elapsed": round(elapsed, 3),
        "maxrss_mb": round(maxrss_mb, 1),
        "cli_wall_s": round(cli["wall_s"], 3),
        "cli_maxrss_mb": round(cli["maxrss_kb"] / 1024, 1),
    }))
    return 0


def _run_cli_rank(launcher: subprocess.Popen, result, tmp: Path) -> dict:
    """`pubrank rank --format csv,json,html` on the generated bundle, run by
    the launcher; returns its reply (wall_s, cpu_s, maxrss_kb)."""
    argv = [sys.executable, "-m", "pubrank.cli", "rank",
            "--corpus", str(result.corpus_path), "--registry-dir", str(result.registry_dir),
            "--taxonomy", str(result.taxonomy_path), "--out", str(tmp / "tables"),
            "--format", "csv,json,html"]
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, XDG_CACHE_HOME=str(tmp / "cli-cache"))
    request = {"argv": argv, "env": env, "cwd": str(ROOT),
               "stdout": str(tmp / "cli.out"), "stderr": str(tmp / "cli.err")}
    launcher.stdin.write(json.dumps(request) + "\n")
    launcher.stdin.flush()
    reply = json.loads(launcher.stdout.readline())
    if reply["returncode"] != 0:
        raise SystemExit(f"pubrank rank exited {reply['returncode']}: "
                         + (tmp / "cli.err").read_text(encoding="utf-8"))
    return reply


if __name__ == "__main__":
    sys.exit(main())
