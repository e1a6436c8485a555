"""Output checks for benchmark invocations.

The first invocation of a workload is checked in full against the
generator's ledger (and, on `rank_wide`, against the brute-force oracle);
every later invocation must produce the same output digest, which makes it
the same output byte for byte. A check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import re
from pathlib import Path

from pubrank.corpus import filter_corpus, ingest_corpus, resolve_corpus
from pubrank.indicators import Scope
from pubrank.registry import load_registry_dir
from pubrank.taxonomy import load_taxonomy
from pubrank.testkit import GroundTruthLedger, oracle_indicators

from workloads import FORMATS, WINDOW, Inputs, csv_row_count

ORACLE_TOLERANCE = 1e-12
# The oracle rescans the corpus for every contributing item, so the sample
# is a few small rows with citations (a row without any has fncs 0 whatever
# the baselines say): about a second of checking at rank_wide's size.
ORACLE_SAMPLE = 4
ORACLE_MAX_ITEMS = 4


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]", "-", name.lower())


def expected_table_files(taxonomy_csv: Path) -> set[str]:
    """One file per scope and format, named as the README specifies."""
    with taxonomy_csv.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    scopes = {("field", row["field"]) for row in rows} | {("discipline", row["discipline"]) for row in rows}
    return {f"{kind}_{_slug(name)}.{fmt}" for kind, name in scopes for fmt in FORMATS}


def check_table_files(out_dir: Path, expected: set[str]) -> list[str]:
    names = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    problems = []
    if names != expected:
        problems.append(
            f"{len(names)} files written, {len(expected)} expected; "
            f"missing {sorted(expected - names)[:3]}, unexpected {sorted(names - expected)[:3]}"
        )
    return problems


def _json_rows(out_dir: Path):
    for path in sorted(out_dir.glob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        scope = Scope(payload["scope"]["kind"], payload["scope"]["name"])
        for row in payload["rows"]:
            yield scope, row


def check_rows_against_ledger(out_dir: Path, ledger: GroundTruthLedger,
                              min_books: int, min_chapters: int) -> list[str]:
    """Every row's pbk/pch/cit equals the ledger, and every ledger pair that
    meets a threshold inside its scope appears as a row."""
    problems = []
    seen = set()
    for scope, row in _json_rows(out_dir):
        key = (row["publisher_id"], scope.kind, scope.name)
        seen.add(key)
        truth = ledger.scope_truth(row["publisher_id"], scope)
        if (row["pbk"], row["pch"], row["cit"]) != (truth.pbk, truth.pch, truth.cit):
            problems.append(f"{key}: pbk/pch/cit {row['pbk']}/{row['pch']}/{row['cit']}, "
                            f"ledger {truth.pbk}/{truth.pch}/{truth.cit}")
    eligible = {key for key, t in ledger.scopes.items() if t.pbk >= min_books or t.pch >= min_chapters}
    missing = eligible - seen
    if missing:
        problems.append(f"{len(missing)} eligible ledger pairs have no row, e.g. {sorted(missing)[:3]}")
    return problems[:10]


def check_oracle_sample(out_dir: Path, inputs: Inputs, seed: int) -> list[str]:
    """fncs/ai/ed of a few seeded, small rows equal the brute-force oracle."""
    candidates = sorted(
        (row["publisher_id"], scope.kind, scope.name, row["fncs"], row["ai"], row["ed"])
        for scope, row in _json_rows(out_dir)
        if row["pbk"] + row["pch"] <= ORACLE_MAX_ITEMS and row["cit"] > 0
    )
    if not candidates:
        return ["no rows small enough for the oracle sample"]
    sample = random.Random(seed).sample(candidates, min(ORACLE_SAMPLE, len(candidates)))
    registry = load_registry_dir(inputs.registry_dir)
    taxonomy = load_taxonomy(inputs.taxonomy)
    records, _ = ingest_corpus(inputs.corpus, WINDOW)
    corpus, _ = resolve_corpus(filter_corpus(records, registry, WINDOW), registry, strict=True)
    problems = []
    for pid, kind, name, *engine in sample:
        oracle = oracle_indicators(pid, Scope(kind, name), corpus, taxonomy)[3:]
        for label, got, want in zip(("fncs", "ai", "ed"), engine, oracle):
            if abs(got - want) > ORACLE_TOLERANCE:
                problems.append(f"{pid} {kind}:{name} {label} {got!r}, oracle {want!r}")
    return problems


_COUNTS = re.compile(r"^corpus: (\d+) records ingested, (\d+) in scope, (\d+) resolved$", re.M)
_PROBLEMS = re.compile(r"^validation found problems: (\d+) malformed lines, (\d+) unresolved publishers$", re.M)


def check_validate_report(stdout: str, expected: dict[str, int]) -> list[str]:
    """The counts `pubrank validate` prints equal the ledger plus the
    injection log."""
    counts, problems_line = _COUNTS.search(stdout), _PROBLEMS.search(stdout)
    if counts is None or problems_line is None:
        return ["validate output lacks the corpus or problem summary line"]
    got = {
        "ingested": int(counts[1]),
        "in_scope": int(counts[2]),
        "resolved": int(counts[3]),
        "malformed": int(problems_line[1]),
        "unresolved": int(problems_line[2]),
        "unknown_categories": stdout.count("\n  unknown category: "),
    }
    return [f"{key}: printed {got[key]}, expected {want}" for key, want in expected.items() if got[key] != want]


def expected_setup_stdout(inputs: Inputs) -> str:
    """What `pubrank validate` prints for an empty corpus."""
    reg = inputs.registry_dir
    with inputs.taxonomy.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return (
        f"registry: {csv_row_count(reg / 'publishers.csv')} publishers, "
        f"{csv_row_count(reg / 'variants.csv')} variants, "
        f"{csv_row_count(reg / 'acquisitions.csv')} acquisitions\n"
        f"taxonomy: {len({r['field'] for r in rows})} fields, "
        f"{len({r['discipline'] for r in rows})} disciplines\n"
        "corpus: 0 records ingested, 0 in scope, 0 resolved\n"
        "validation ok\n"
    )
