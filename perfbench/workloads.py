"""Seeded inputs for the benchmark workloads.

Every workload's inputs come from `pubrank.testkit.generate_corpus`, whose
ledger records the exact per-(publisher, scope) counts the output must
reproduce. `validate_dirty` then rewrites the `rank_deep` corpus with a
seeded fault injector whose log says what each rewritten line should do to
the counts `pubrank validate` prints. The same seed gives byte-identical
files.

Run directly to write one workload's inputs and print their SHA-256
digests, which is how byte-identity for a seed is checked:

    python3 perfbench/workloads.py --workload validate_dirty --seed 1 --out bench-inputs
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from pubrank.testkit import EXCLUDED_NAME, GroundTruthLedger, SynthParams, generate_corpus  # noqa: E402
from pubrank.taxonomy import load_taxonomy  # noqa: E402
from pubrank.samples import sample_taxonomy_path  # noqa: E402

WINDOW = (2009, 2013)  # the CLI default, which no workload overrides
FORMATS = ("csv", "json", "html")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the pubrank subcommand
    publishers: int
    items: tuple[int, int]  # items per publisher, inclusive
    min_books: int = 5
    min_chapters: int = 50
    dirty: bool = False
    oracle_sample: bool = False  # check a few rows against the brute-force oracle

    @property
    def flags(self) -> list[str]:
        if self.command == "validate":
            return []
        return ["--format", ",".join(FORMATS),
                "--min-books", str(self.min_books), "--min-chapters", str(self.min_chapters)]

    @property
    def expected_exit(self) -> int:
        return 1 if self.dirty else 0


# Sizes keep one CLI invocation near 2-5 s on a 2-vCPU machine, so a run of
# the benchmark holds several timed invocations; see README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("rank_deep", "rank", publishers=250, items=(390, 410)),
        Workload("rank_wide", "rank", publishers=4000, items=(4, 12), min_books=0, min_chapters=0,
                 oracle_sample=True),
        Workload("validate_dirty", "validate", publishers=250, items=(390, 410), dirty=True),
    )
}

# Share of lines given each fault; every other line is left as generated.
FAULTS = (
    ("truncated", 0.10),
    ("wrong_type", 0.10),
    ("unregistered", 0.10),
    ("unknown_categories", 0.05),
    ("out_of_window", 0.30),
)
UNKNOWN_CATEGORY_POOL = 40


@dataclass
class Inputs:
    corpus: Path
    registry_dir: Path
    taxonomy: Path
    empty_corpus: Path
    ledger: GroundTruthLedger
    lines: int
    generate_s: float
    expected_validate: dict[str, int] | None = None  # validate_dirty only


def _fold(raw: str) -> str:
    return " ".join(raw.split()).casefold()


def _in_ledger(record: dict) -> bool:
    """Whether the generator counted this record in its ledger: a book or
    chapter, not serial, inside the window, not the excluded publisher."""
    return (
        record["doc_type"] in ("book", "chapter")
        and not record.get("serial", False)
        and WINDOW[0] <= record["year"] <= WINDOW[1]
        and _fold(record["publisher"]) != _fold(EXCLUDED_NAME)
    )


def inject_faults(clean: Path, dirty: Path, log_path: Path, seed: int,
                  ledger: GroundTruthLedger) -> dict[str, int]:
    """Rewrite `clean` into `dirty`, one fault or none per line, and return
    the counts `pubrank validate` must print for the dirty corpus.

    Records of the excluded publisher are left alone, so that each fault's
    effect on the printed counts depends only on whether the ledger counted
    the original record.
    """
    rng = random.Random(seed * 1_000_003 + 17)
    out_lines: list[str] = []
    log: list[list] = []
    counted = 0
    lost = 0  # ledger records that no longer reach the resolved corpus's input
    unregistered = 0
    unknown_categories: set[str] = set()
    malformed = 0
    with clean.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.rstrip("\n")
            record = json.loads(text)
            in_ledger = _in_ledger(record)
            counted += in_ledger
            fault = None
            if _fold(record["publisher"]) != _fold(EXCLUDED_NAME):
                u = rng.random()
                for name, share in FAULTS:
                    if u < share:
                        fault = name
                        break
                    u -= share
            if fault == "truncated":
                text = text[: rng.randrange(1, len(text))]
            elif fault == "wrong_type":
                key = rng.choice(("year", "citations", "categories"))
                value = record[key]
                record[key] = ", ".join(value) if key == "categories" else str(value)
            elif fault == "unregistered":
                record["publisher"] = f"Unlisted House {line_no}"
            elif fault == "unknown_categories":
                topic = f"Uncharted Topic {rng.randrange(UNKNOWN_CATEGORY_POOL)}"
                record["categories"] = [topic]
                if in_ledger:
                    unknown_categories.add(topic)
            elif fault == "out_of_window":
                record["year"] = WINDOW[1] + rng.randint(1, 5)
            if fault in ("wrong_type", "unregistered", "unknown_categories", "out_of_window"):
                text = json.dumps(record, ensure_ascii=False)
            if fault in ("truncated", "wrong_type"):
                malformed += 1
            if in_ledger and fault in ("truncated", "wrong_type", "out_of_window"):
                lost += 1
            if in_ledger and fault == "unregistered":
                unregistered += 1
            if fault is not None:
                log.append([line_no, fault, in_ledger])
            out_lines.append(text + "\n")
    if counted != ledger.total_items:
        raise RuntimeError(
            f"fault injector counts {counted} ledger records, the ledger has {ledger.total_items}"
        )
    dirty.write_text("".join(out_lines), encoding="utf-8")
    in_scope = ledger.total_items - lost
    expected = {
        "ingested": len(out_lines) - malformed,
        "in_scope": in_scope,
        "resolved": in_scope - unregistered,
        "malformed": malformed,
        "unresolved": unregistered,  # every unregistered name is distinct
        "unknown_categories": len(unknown_categories),
    }
    log_path.write_text(
        json.dumps({"seed": seed, "expected": expected, "faults": log}, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    return expected


def generate(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write the workload's corpus, registry, taxonomy and ledger under
    `out_dir`, plus an empty corpus for measuring the CLI's fixed cost."""
    start = time.perf_counter()
    params = SynthParams(seed=seed, publisher_count=workload.publishers,
                         items_per_publisher=workload.items)
    result = generate_corpus(params, load_taxonomy(sample_taxonomy_path()), out_dir)
    corpus = result.corpus_path
    expected = None
    if workload.dirty:
        corpus = out_dir / "corpus_dirty.jsonl"
        expected = inject_faults(result.corpus_path, corpus, out_dir / "injection_log.json",
                                 seed, result.ledger)
    empty = out_dir / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    return Inputs(
        corpus=corpus,
        registry_dir=result.registry_dir,
        taxonomy=result.taxonomy_path,
        empty_corpus=empty,
        ledger=result.ledger,
        lines=result.item_count,
        generate_s=time.perf_counter() - start,
        expected_validate=expected,
    )


def csv_row_count(path: Path) -> int:
    with path.open(newline="", encoding="utf-8") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write one benchmark workload's inputs.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    inputs = generate(WORKLOADS[args.workload], args.seed, args.out)
    print(f"{inputs.lines} lines generated in {inputs.generate_s:.2f} s", file=sys.stderr)
    for path in sorted(p for p in args.out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(args.out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
