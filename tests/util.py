"""Small builders shared across test modules."""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

from pubrank.corpus import (
    DEFAULT_WINDOW,
    filter_corpus,
    ingest_corpus,
    resolve_corpus,
)
from pubrank.indicators import compute_baselines
from pubrank.ranking import build_all_rankings
from pubrank.registry import load_registry_dir
from pubrank.taxonomy import load_taxonomy


def record(
    item_id: str,
    doc_type: str = "book",
    publisher: str = "Springer",
    year: int = 2010,
    categories=("History",),
    citations: int = 0,
    **extra,
) -> dict:
    rec = {
        "id": item_id,
        "doc_type": doc_type,
        "publisher": publisher,
        "year": year,
        "categories": list(categories),
        "citations": citations,
    }
    rec.update(extra)
    return rec


def jsonl(records) -> list[str]:
    return [json.dumps(r) for r in records]


def csv_text(rows) -> str:
    """Rows as CSV text with LF line ends, quoted as the csv module quotes."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def write_jsonl(path: Path, records) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def ingest_and_resolve(records, registry, window=(2009, 2013), strict=True):
    """dict records -> (ResolvedCorpus, diagnostics). Fails the test on
    unexpected diagnostics unless the caller inspects them."""
    items, diagnostics = ingest_corpus(jsonl(records))
    filtered = filter_corpus(items, registry, window)
    corpus, unresolved = resolve_corpus(filtered, registry, strict=strict)
    return corpus, diagnostics, unresolved


def pipeline_artifacts(records, registry, taxonomy, window=(2009, 2013)):
    corpus, diagnostics, _ = ingest_and_resolve(records, registry, window)
    assert not [d for d in diagnostics if d.severity == "error"], diagnostics
    baselines = compute_baselines(corpus, taxonomy)
    return corpus, baselines


def keyed_rows(rows):
    """The engine's row list as a dict keyed by (publisher_id, scope);
    asserts that no pair has two rows."""
    keyed = {(row.publisher_id, row.scope): row for row in rows}
    assert len(keyed) == len(rows), "a (publisher, scope) pair has more than one row"
    return keyed


def ranking_table(scope, *args, **kwargs):
    """The table for one scope, picked from build_all_rankings(*args, **kwargs)."""
    return next(t for t in build_all_rankings(*args, **kwargs) if t.scope == scope)


def load_synth_bundle(result):
    """Run a generated bundle through the real pipeline, strictly.

    Returns (registry, taxonomy, corpus); asserts the generator produced
    nothing the standard pipeline chokes on.
    """
    registry = load_registry_dir(result.registry_dir)
    taxonomy = load_taxonomy(result.taxonomy_path)
    records, diagnostics = ingest_corpus(result.corpus_path)
    assert [d for d in diagnostics if d.severity == "error"] == []
    filtered = filter_corpus(records, registry, DEFAULT_WINDOW)
    corpus, unresolved = resolve_corpus(filtered, registry, strict=True)
    assert unresolved == set()
    return registry, taxonomy, corpus


def random_records(rng, taxonomy, n, publishers=("Springer", "Routledge", "Elsevier", "CRC Press")):
    """n well-formed record dicts over the sample registry's publishers."""
    categories = sorted(taxonomy.discipline_of)
    records = []
    book_ids = []
    for i in range(n):
        is_book = rng.random() < 0.6 or not book_ids
        rec = record(
            f"r{i}",
            doc_type="book" if is_book else "chapter",
            publisher=rng.choice(publishers),
            year=rng.randint(2009, 2013),
            categories=sorted(rng.sample(categories, rng.randint(1, 3))),
            citations=rng.randint(0, 6),
        )
        if is_book:
            rec["edited"] = rng.random() < 0.5
            book_ids.append(rec["id"])
        else:
            rec["parent_book_id"] = rng.choice(book_ids + ["missing-parent"])
        records.append(rec)
    return records


def write_registry(directory: Path, publishers, variants=(), acquisitions=()):
    """publishers: (id, name, type[, website]); variants: (raw, canonical_id[,
    city, address]); acquisitions: (acquired, acquirer[, year]). Tuple rows
    are padded with empty cells to the header's width; list rows are
    written as given."""
    import csv

    directory.mkdir(parents=True, exist_ok=True)

    def dump(name, header, rows, width):
        with (directory / name).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                if isinstance(row, tuple):
                    row = list(row) + [""] * (width - len(row))
                writer.writerow(row)

    dump("publishers.csv", ["id", "name", "type", "website"], publishers, 4)
    dump("variants.csv", ["raw", "canonical_id", "city", "address"], variants, 4)
    dump("acquisitions.csv", ["acquired_id", "acquirer_id", "year"], acquisitions, 3)
    return directory


def tree_hash(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(directory)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()
