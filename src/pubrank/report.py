"""Serialization of rankings and profiles, plus the end-to-end pipeline.

CSV and HTML round fncs/ai to two decimals and print ED as an integer
percentage; JSON keeps full precision so a parse-back reproduces the
in-memory rows bit for bit. Each file is written atomically: its text,
rendered in parts of at most `_PART_ROWS` rows so that no whole text is
held at once, goes into a temp file that is then renamed over the target.
Files contain nothing run-dependent, so identical inputs and
configuration give byte-identical output trees.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from dataclasses import dataclass
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator

from . import corpus as corpus_module  # for corpus_fingerprint, looked up at call time
from .corpus import (
    DEFAULT_WINDOW,
    Diagnostic,
    ResolvedCorpus,
    filter_corpus,
    ingest_corpus,
    resolve_corpus,
    unknown_parent_chapters,
)
from .errors import ConfigError, ExportError
from .indicators import CorpusStats, IndicatorRow, compute_baselines, corpus_stats
from .ranking import PublisherProfile, RankingTable, ThresholdPolicy, build_all_rankings, build_profile
from .registry import PUBLISHER_TYPES, PublisherRegistry, load_registry_dir
from .taxonomy import TaxonomyMap, load_taxonomy

FORMATS = ("csv", "json", "html")

INDICATORS = ("pbk", "pch", "cit", "fncs", "ai", "ed")

RANKING_COLUMNS = ("rank", "publisher", "type", *INDICATORS)

CSV_HEADER = ",".join(RANKING_COLUMNS)

_PART_ROWS = 256  # table rows per part of a file's text


@dataclass(frozen=True)
class RunConfig:
    corpus: Path
    registry_dir: Path
    taxonomy: Path
    out: Path | None = None
    window: tuple[int, int] = DEFAULT_WINDOW
    min_books: int = ThresholdPolicy.min_books
    min_chapters: int = ThresholdPolicy.min_chapters
    basis: str = ThresholdPolicy.basis
    formats: tuple[str, ...] = ("csv",)
    strict: bool = False
    type_filter: str | None = None

    def __post_init__(self):
        if self.window[0] > self.window[1]:
            raise ConfigError(f"window start {self.window[0]} after end {self.window[1]}")
        if not self.formats:
            raise ConfigError("at least one output format required")
        for fmt in self.formats:
            if fmt not in FORMATS:
                raise ConfigError(f"unknown format {fmt!r}, expected one of {FORMATS}")
            if self.formats.count(fmt) > 1:  # would write each of its files twice
                raise ConfigError(f"format {fmt!r} given twice")
        for name in ("corpus", "registry_dir", "taxonomy", "out"):  # Path("") is "."
            if getattr(self, name) is not None and not str(getattr(self, name)):
                raise ConfigError(f"{name} path must be non-empty")
        if self.type_filter is not None and self.type_filter not in PUBLISHER_TYPES:
            raise ConfigError(f"unknown type {self.type_filter!r}, expected one of {PUBLISHER_TYPES}")
        self.policy()  # thresholds and basis, checked before any input is read
        if self.out is not None:  # else the export fails once the whole pipeline has run
            out = Path(self.out)
            existing = next(p for p in (out, *out.parents) if p.exists())
            if not existing.is_dir():
                blocked = "" if existing == out else f", since {existing} is not"
                raise ConfigError(f"--out {self.out} is not a directory{blocked}")

    def policy(self) -> ThresholdPolicy:
        return ThresholdPolicy(self.min_books, self.min_chapters, self.basis)


def scope_slug(name: str) -> str:
    """Lowercase, every non-alphanumeric character becomes '-'."""
    return re.sub(r"[^a-z0-9]", "-", name.lower())


def _table_stem(table: RankingTable) -> str:  # a ranking file's name without its extension
    return f"{table.scope.kind}_{scope_slug(table.scope.name)}"


def table_filename(table: RankingTable, fmt: str) -> str:
    return f"{_table_stem(table)}.{fmt}"


def _atomic_write(path: Path, parts: Iterable[str]) -> None:
    """Write the text's parts, in order, to a temp file beside `path`, then
    rename it over `path`. On any failure the temp file goes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        try:
            with tmp.open("w", encoding="utf-8") as fh:
                fh.writelines(parts)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):  # unlink never removes a directory
                tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ExportError(f"cannot write {path}: {exc}") from exc


def _joined(sep: str, items: Iterable[str]) -> Iterator[str]:
    """`sep.join(items)` in parts of at most `_PART_ROWS` items each."""
    items = iter(items)
    lead = ""
    while part := list(islice(items, _PART_ROWS)):
        yield lead + sep.join(part)
        lead = sep


def _csv_cell(text: str) -> str:
    """A text cell, quoted when it holds a comma, a quote, CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _indicator_cells(row: IndicatorRow) -> tuple[str, ...]:
    """pbk, pch, cit, fncs, ai and ed as CSV renders them."""
    return (
        str(row.pbk),
        str(row.pch),
        str(row.cit),
        f"{row.fncs:.2f}",
        f"{row.ai:.2f}",
        f"{row.ed:.0f}",
    )


def _csv_text(columns: Iterable[str], rows: Iterable[tuple[str, ...]]) -> Iterator[str]:
    """A CSV document of display rows, in parts: a label (rank or scope
    kind), a free-text name, plain cells, then the indicator cells."""
    lines = (",".join((label, _csv_cell(name), *cells)) for label, name, *cells in rows)
    yield from _joined("\n", chain([",".join(columns)], lines))
    yield "\n"


def _indicator_json(row: IndicatorRow) -> dict:
    return {"pbk": row.pbk, "pch": row.pch, "cit": row.cit,
            "fncs": row.fncs, "ai": row.ai, "ed": row.ed}


def _html_page(title: str, body: Iterable[str]) -> Iterator[str]:
    """An HTML page, in parts: the title escaped, then the body's parts."""
    from html import escape  # here, not at start-up: only HTML output escapes
    title = escape(title)
    yield (
        '<!DOCTYPE html>\n<html lang="en">\n'
        f'<head><meta charset="utf-8"><title>{title}</title></head>\n'
        f"<body>\n<h1>{title}</h1>\n"
    )
    yield from body
    yield "</body>\n</html>\n"


def _html_table(columns: Iterable[str], rows: Iterable[Iterable[str]]) -> Iterator[str]:
    """An HTML table of already-escaped cells, in parts."""
    head = "<tr><th>" + "</th><th>".join(columns) + "</th></tr>"
    lines = ("<tr><td>" + "</td><td>".join(cells) + "</td></tr>" for cells in rows)
    yield f'<table border="1">\n{head}\n'
    yield from _joined("\n", lines)
    yield "\n</table>\n"


def _html_cells(rows: Iterable[tuple[str, ...]]) -> Iterator[tuple[str, ...]]:
    """Display rows as HTML cells: the name escaped, a "%" after ED."""
    from html import escape
    for label, name, *cells, ed in rows:
        yield (label, escape(name), *cells, ed + "%")


def _table_cells(table: RankingTable) -> list[tuple[str, ...]]:
    """The table's display rows: rank, publisher, type and the indicator
    cells, as CSV and HTML both read them."""
    cells = []
    for rank, row in enumerate(table.entries, start=1):
        pub = table.publishers[row.publisher_id]
        cells.append((str(rank), pub.name, pub.publisher_type, *_indicator_cells(row)))
    return cells


def _json_header(table: RankingTable) -> dict:
    """The ranking JSON document with an empty "rows" list."""
    meta = table.meta
    return {
        "scope": {"kind": table.scope.kind, "name": table.scope.name},
        "corpus_fingerprint": meta.corpus_fingerprint,
        "window": list(meta.window),
        "policy": {
            "min_books": meta.policy.min_books,
            "min_chapters": meta.policy.min_chapters,
            "basis": meta.policy.basis,
        },
        "sort_key": "pbk",
        "type_filter": meta.type_filter,
        "rows": [],
    }


def _json_payload(table: RankingTable) -> dict:
    """The ranking JSON document as plain data; `_ranking_json`'s parts
    join to exactly `json.dumps(_json_payload(table), indent=2) + "\n"`."""
    return {
        **_json_header(table),
        "rows": [
            {
                "rank": rank,
                "publisher_id": row.publisher_id,
                "publisher": table.publishers[row.publisher_id].name,
                "type": table.publishers[row.publisher_id].publisher_type,
                **_indicator_json(row),
            }
            for rank, row in enumerate(table.entries, start=1)
        ],
    }


def _json_rows(table: RankingTable) -> Iterator[str]:
    # json.dumps renders a str with encode_basestring_ascii, an int with
    # int.__repr__ and a finite float with float.__repr__
    enc = encode_basestring_ascii
    for rank, row in enumerate(table.entries, start=1):
        pub = table.publishers[row.publisher_id]
        yield (
            "    {\n"
            f'      "rank": {rank!r},\n'
            f'      "publisher_id": {enc(row.publisher_id)},\n'
            f'      "publisher": {enc(pub.name)},\n'
            f'      "type": {enc(pub.publisher_type)},\n'
            f'      "pbk": {row.pbk!r},\n'
            f'      "pch": {row.pch!r},\n'
            f'      "cit": {row.cit!r},\n'
            f'      "fncs": {row.fncs!r},\n'
            f'      "ai": {row.ai!r},\n'
            f'      "ed": {row.ed!r}\n'
            "    }"
        )


def _ranking_json(table: RankingTable) -> Iterator[str]:
    """The ranking JSON text, in parts: the header through json.dumps, the
    rows from a fixed template, since json.dumps with indent runs in pure
    Python."""
    head = json.dumps(_json_header(table), indent=2)
    if not table.entries:
        yield head + "\n"
        return
    # head ends in '"rows": []\n}'; drop "]\n}" and write the rows into the list
    yield head[:-3] + "\n"
    yield from _joined(",\n", _json_rows(table))
    yield "\n  ]\n}\n"


def export_ranking(
    table: RankingTable,
    fmt: str,
    destination: str | Path,
    cells: list[tuple[str, ...]] | None = None,
) -> Path:
    """Write one ranking table in one format into the destination
    directory; the file name is derived from the scope. `cells` are the
    table's `_table_cells`, when the caller has them already."""
    if fmt not in FORMATS:
        raise ExportError(f"unknown format {fmt!r}")
    path = Path(destination) / table_filename(table, fmt)
    if fmt == "json":
        parts = _ranking_json(table)
    else:
        if cells is None:
            cells = _table_cells(table)
        if fmt == "csv":
            parts = _csv_text(RANKING_COLUMNS, cells)
        else:
            title = f"{table.scope.kind.capitalize()}: {table.scope.name}"
            parts = _html_page(title, _html_table(RANKING_COLUMNS, _html_cells(cells)))
    _atomic_write(path, parts)
    return path


def export_all_rankings(
    tables: list[RankingTable], formats: tuple[str, ...], destination: str | Path
) -> list[Path]:
    slugs: dict[str, RankingTable] = {}
    for table in tables:
        key = _table_stem(table)
        if key in slugs:
            raise ExportError(
                f"scopes {slugs[key].scope.name!r} and {table.scope.name!r} collide on slug {key!r}"
            )
        slugs[key] = table
    written = []
    for table in tables:
        # CSV and HTML share one formatting of the indicator cells
        cells = _table_cells(table) if "csv" in formats or "html" in formats else None
        for fmt in formats:
            written.append(export_ranking(table, fmt, destination, cells=cells))
    return written


def _profile_json(profile: PublisherProfile) -> dict:
    pub = profile.publisher
    return {
        "publisher_id": pub.publisher_id,
        "name": pub.name,
        "type": pub.publisher_type,
        "website": pub.website,
        "variants": [
            {"raw": v.raw, "city": v.city, "address": v.address} for v in profile.variants
        ],
        "rows": [
            {"scope_kind": r.scope.kind, "scope": r.scope.name, **_indicator_json(r)}
            for r in profile.rows
        ],
    }


def export_profile(profile: PublisherProfile, fmt: str, destination: str | Path) -> Path:
    """Write a publisher profile; file name publisher_<slug>.<fmt>."""
    if fmt not in FORMATS:
        raise ExportError(f"unknown format {fmt!r}")
    pub = profile.publisher
    path = Path(destination) / f"publisher_{scope_slug(pub.name)}.{fmt}"
    if fmt == "json":
        parts = [json.dumps(_profile_json(profile), indent=2) + "\n"]
    else:
        rows = [(r.scope.kind, r.scope.name, *_indicator_cells(r)) for r in profile.rows]
        if fmt == "csv":
            parts = _csv_text(("scope_kind", "scope", *INDICATORS), rows)
        else:
            from html import escape
            website = f" | website: {escape(pub.website)}" if pub.website else ""
            variant_rows = (
                [escape(c or "") for c in (v.raw, v.city, v.address)]
                for v in profile.variants
            )
            body = chain(
                [f"<p>type: {pub.publisher_type}{website}</p>\n<h2>Name variants</h2>\n"],
                _html_table(("raw", "city", "address"), variant_rows),
                ["<h2>Indicators by scope</h2>\n"],
                _html_table(("kind", "scope", *INDICATORS), _html_cells(rows)),
            )
            parts = _html_page(pub.name, body)
    _atomic_write(path, parts)
    return path


class PreparedInputs(SimpleNamespace):
    """Loaded registry and taxonomy, and what ingest, filter and resolution
    reported; `_prepare_inputs` hands on the corpus beside it. Built from
    keywords, as are the two records that extend it."""

    registry: PublisherRegistry
    taxonomy: TaxonomyMap
    diagnostics: list[Diagnostic]
    unresolved: set[str]
    ingested: int
    filtered: int
    resolved: int


class PipelineResult(PreparedInputs):
    """Everything the pipeline produced, for callers that keep going."""

    tables: list[RankingTable]


def _prepare_inputs(
    config: RunConfig, registry: PublisherRegistry
) -> tuple[PreparedInputs, ResolvedCorpus]:
    """Load the taxonomy, then ingest, filter and resolve the corpus against
    `registry`. Raises PubrankError subclasses on fatal problems. The
    ingested list goes once filter has returned, so resolve never holds
    what filter drops."""
    taxonomy = load_taxonomy(config.taxonomy)
    records, diagnostics = ingest_corpus(config.corpus)
    ingested = len(records)
    records = filter_corpus(records, registry, config.window)
    filtered = len(records)
    corpus, unresolved = resolve_corpus(records, registry, strict=config.strict)
    inputs = PreparedInputs(registry=registry, taxonomy=taxonomy, diagnostics=diagnostics,
                            unresolved=unresolved, ingested=ingested, filtered=filtered,
                            resolved=len(corpus))
    return inputs, corpus


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Prepare the inputs, compute baselines, and build all ranking tables.
    The walk is the corpus's last reader, so the records go as it passes
    them. The tables carry the corpus fingerprint if `config.formats` names
    json, the one format that writes it, else None."""
    inputs, corpus = _prepare_inputs(config, load_registry_dir(config.registry_dir))
    fingerprint = None
    if "json" in config.formats:  # taken before the walk releases any record
        fingerprint = corpus_module.corpus_fingerprint(corpus.items, corpus.publisher_ids)
    tables = build_all_rankings(
        inputs.registry,
        inputs.taxonomy,
        # held by build_all_rankings alone, which lets go of it once the rows are made
        compute_baselines(corpus.hand_over(), inputs.taxonomy),
        config.policy(),
        window=config.window,
        type_filter=config.type_filter,
        fingerprint=fingerprint,
    )
    return PipelineResult(**vars(inputs), tables=tables)


def run_rank(config: RunConfig) -> tuple[PipelineResult, list[Path]]:
    if config.out is None:
        raise ConfigError("rank requires an output directory")
    result = run_pipeline(config)
    written = export_all_rankings(result.tables, config.formats, config.out)
    return result, written


def run_profile(config: RunConfig, publisher: str) -> tuple[PublisherProfile, list[Path]]:
    """Build and export the profile for one publisher, given by id or by
    any resolvable name form. Either way the profile is that of the
    terminal owner, the publisher the rankings count the items under."""
    if config.out is None:
        raise ConfigError("profile requires an output directory")
    registry = load_registry_dir(config.registry_dir)
    pid = registry.resolve(publisher)  # an unknown name fails before the corpus is read
    inputs, corpus = _prepare_inputs(config, registry)
    baselines = compute_baselines(corpus.hand_over(), inputs.taxonomy)
    profile = build_profile(pid, baselines, inputs.registry, config.policy(), config.type_filter)
    written = [export_profile(profile, fmt, config.out) for fmt in config.formats]
    return profile, written


def run_stats(config: RunConfig) -> CorpusStats:
    inputs, corpus = _prepare_inputs(config, load_registry_dir(config.registry_dir))
    baselines = compute_baselines(corpus.hand_over(), inputs.taxonomy)
    return corpus_stats(baselines, inputs.registry, inputs.taxonomy)


class ValidationReport(PreparedInputs):
    """The prepared inputs, and the gaps validate finds in the corpus."""

    unknown_categories: tuple[str, ...]
    orphan_chapters: int


def run_validate(config: RunConfig) -> ValidationReport:
    """Load and cross-check every input, collecting per-line diagnostics
    and resolution gaps instead of failing on them (load errors and, in
    strict mode, unresolved publishers stay fatal)."""
    inputs, corpus = _prepare_inputs(config, load_registry_dir(config.registry_dir))
    category_tuples = {item.categories for item in corpus.items}
    return ValidationReport(
        **vars(inputs),
        unknown_categories=inputs.taxonomy.unknown_categories(category_tuples),
        orphan_chapters=len(unknown_parent_chapters(corpus.items)),
    )
