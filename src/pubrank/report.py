"""Serialization of rankings and profiles, plus the end-to-end pipeline.

CSV and HTML round fncs/ai to two decimals and print ED as an integer
percentage; JSON keeps full precision so a parse-back reproduces the
in-memory rows bit for bit. Files are written atomically (temp + rename)
and contain nothing run-dependent, so identical inputs and configuration
give byte-identical output trees.
"""

from __future__ import annotations

import html
import json
import os
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator

from .corpus import (
    DEFAULT_WINDOW,
    CorpusStats,
    Diagnostic,
    ResolvedCorpus,
    corpus_stats,
    filter_corpus,
    ingest_corpus,
    resolve_corpus,
    unknown_parent_chapters,
)
from .errors import ConfigError, ExportError
from .indicators import IndicatorRow, compute_baselines
from .ranking import PublisherProfile, RankingTable, ThresholdPolicy, build_all_rankings, build_profile
from .registry import PUBLISHER_TYPES, PublisherRegistry, load_registry_dir
from .taxonomy import TaxonomyMap, load_taxonomy

FORMATS = ("csv", "json", "html")

INDICATORS = ("pbk", "pch", "cit", "fncs", "ai", "ed")

RANKING_COLUMNS = ("rank", "publisher", "type", *INDICATORS)

CSV_HEADER = ",".join(RANKING_COLUMNS)


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
        for name in ("corpus", "registry_dir", "taxonomy"):
            if not str(getattr(self, name)):
                raise ConfigError(f"{name} path must be non-empty")
        if self.type_filter is not None and self.type_filter not in PUBLISHER_TYPES:
            raise ConfigError(f"unknown type {self.type_filter!r}, expected one of {PUBLISHER_TYPES}")
        self.policy()  # thresholds and basis, checked before any input is read

    def policy(self) -> ThresholdPolicy:
        return ThresholdPolicy(self.min_books, self.min_chapters, self.basis)


def scope_slug(name: str) -> str:
    """Lowercase, every non-alphanumeric character becomes '-'."""
    return re.sub(r"[^a-z0-9]", "-", name.lower())


def table_filename(table: RankingTable, fmt: str) -> str:
    return f"{table.scope.kind}_{scope_slug(table.scope.name)}.{fmt}"


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        raise ExportError(f"cannot write {path}: {exc}") from exc


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


def _csv_text(columns: Iterable[str], rows: Iterable[tuple[str, ...]]) -> str:
    """A CSV document of display rows: a label (rank or scope kind), a
    free-text name, plain cells, then the indicator cells."""
    lines = [",".join(columns)]
    lines += [",".join((label, _csv_cell(name), *cells)) for label, name, *cells in rows]
    return "\n".join(lines) + "\n"


def _indicator_json(row: IndicatorRow) -> dict:
    return {"pbk": row.pbk, "pch": row.pch, "cit": row.cit,
            "fncs": row.fncs, "ai": row.ai, "ed": row.ed}


_HTML_PAGE = """<!DOCTYPE html>
<html lang="en">
<head><meta charset="utf-8"><title>{title}</title></head>
<body>
<h1>{title}</h1>
{body}</body>
</html>
"""


def _html_table(columns: Iterable[str], rows: Iterable[Iterable[str]]) -> str:
    """An HTML table of already-escaped cells."""
    head = "<tr><th>" + "</th><th>".join(columns) + "</th></tr>"
    body = "\n".join("<tr><td>" + "</td><td>".join(cells) + "</td></tr>" for cells in rows)
    return f'<table border="1">\n{head}\n{body}\n</table>\n'


def _html_cells(rows: Iterable[tuple[str, ...]]) -> Iterator[tuple[str, ...]]:
    """Display rows as HTML cells: the name escaped, a "%" after ED."""
    for label, name, *cells, ed in rows:
        yield (label, html.escape(name), *cells, ed + "%")


def _table_cells(table: RankingTable) -> list[tuple[str, ...]]:
    """The table's display rows: rank, publisher, type and the indicator
    cells, as CSV and HTML both read them."""
    return [
        (str(rank), e.publisher.name, e.publisher.publisher_type, *_indicator_cells(e.row))
        for rank, e in enumerate(table.entries, start=1)
    ]


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
    """The ranking JSON document as plain data; `_ranking_json` writes
    exactly `json.dumps(_json_payload(table), indent=2) + "\n"`."""
    return {
        **_json_header(table),
        "rows": [
            {
                "rank": rank,
                "publisher_id": e.publisher.publisher_id,
                "publisher": e.publisher.name,
                "type": e.publisher.publisher_type,
                **_indicator_json(e.row),
            }
            for rank, e in enumerate(table.entries, start=1)
        ],
    }


def _json_rows(table: RankingTable) -> Iterator[str]:
    # json.dumps renders a str with encode_basestring_ascii, an int with
    # int.__repr__ and a finite float with float.__repr__
    enc = encode_basestring_ascii
    for rank, e in enumerate(table.entries, start=1):
        pub, row = e.publisher, e.row
        yield (
            "    {\n"
            f'      "rank": {rank!r},\n'
            f'      "publisher_id": {enc(pub.publisher_id)},\n'
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


def _ranking_json(table: RankingTable) -> str:
    """The ranking JSON text: the header through json.dumps, the rows from
    a fixed template, since json.dumps with indent runs in pure Python."""
    head = json.dumps(_json_header(table), indent=2)
    if not table.entries:
        return head + "\n"
    # head ends in '"rows": []\n}'; drop "]\n}" and write the rows into the list
    rows = ",\n".join(_json_rows(table))
    return f"{head[:-3]}\n{rows}\n  ]\n}}\n"


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
        text = _ranking_json(table)
    else:
        if cells is None:
            cells = _table_cells(table)
        if fmt == "csv":
            text = _csv_text(RANKING_COLUMNS, cells)
        else:
            title = f"{table.scope.kind.capitalize()}: {table.scope.name}"
            body = _html_table(RANKING_COLUMNS, _html_cells(cells))
            text = _HTML_PAGE.format(title=html.escape(title), body=body)
    _atomic_write(path, text)
    return path


def export_all_rankings(
    tables: list[RankingTable], formats: tuple[str, ...], destination: str | Path
) -> list[Path]:
    slugs: dict[str, RankingTable] = {}
    for table in tables:
        key = f"{table.scope.kind}_{scope_slug(table.scope.name)}"
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
        text = json.dumps(_profile_json(profile), indent=2) + "\n"
    else:
        rows = [(r.scope.kind, r.scope.name, *_indicator_cells(r)) for r in profile.rows]
        if fmt == "csv":
            text = _csv_text(("scope_kind", "scope", *INDICATORS), rows)
        else:
            website = f" | website: {html.escape(pub.website)}" if pub.website else ""
            variant_rows = (
                [html.escape(c or "") for c in (v.raw, v.city, v.address)]
                for v in profile.variants
            )
            body = (
                f"<p>type: {pub.publisher_type}{website}</p>\n<h2>Name variants</h2>\n"
                + _html_table(("raw", "city", "address"), variant_rows)
                + "<h2>Indicators by scope</h2>\n"
                + _html_table(("kind", "scope", *INDICATORS), _html_cells(rows))
            )
            text = _HTML_PAGE.format(title=html.escape(pub.name), body=body)
    _atomic_write(path, text)
    return path


@dataclass
class PreparedInputs:
    """Loaded registry and taxonomy, and what ingest, filter and resolution
    reported; `_prepare_inputs` hands on the corpus beside it."""

    registry: PublisherRegistry
    taxonomy: TaxonomyMap
    diagnostics: list[Diagnostic]
    unresolved: set[str]
    ingested: int
    filtered: int
    resolved: int


@dataclass
class PipelineResult(PreparedInputs):
    """Everything the pipeline produced, for callers that keep going."""

    tables: list[RankingTable]


def _prepare_inputs(config: RunConfig) -> tuple[PreparedInputs, ResolvedCorpus]:
    """Load registry and taxonomy, then ingest, filter and resolve the
    corpus. Raises PubrankError subclasses on fatal problems."""
    registry = load_registry_dir(config.registry_dir)
    taxonomy = load_taxonomy(config.taxonomy)
    records, diagnostics = ingest_corpus(config.corpus)
    filtered = filter_corpus(records, registry, config.window)
    corpus, unresolved = resolve_corpus(filtered, registry, strict=config.strict)
    inputs = PreparedInputs(
        registry, taxonomy, diagnostics, unresolved, len(records), len(filtered), len(corpus)
    )
    return inputs, corpus


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Prepare the inputs, compute baselines, and build all ranking tables."""
    inputs, corpus = _prepare_inputs(config)
    baselines = compute_baselines(corpus, inputs.taxonomy)
    del corpus  # its last reference: the rows and tables reuse its memory
    tables = build_all_rankings(
        inputs.registry,
        inputs.taxonomy,
        baselines,
        config.policy(),
        window=config.window,
        type_filter=config.type_filter,
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
    result = run_pipeline(config)
    registry = result.registry
    profile = build_profile(registry.resolve(publisher), result.tables, registry)
    written = [export_profile(profile, fmt, config.out) for fmt in config.formats]
    return profile, written


def run_stats(config: RunConfig) -> CorpusStats:
    inputs, corpus = _prepare_inputs(config)
    return corpus_stats(corpus, inputs.registry, inputs.taxonomy)


@dataclass
class ValidationReport(PreparedInputs):
    """The prepared inputs, and the gaps validate finds in the corpus."""

    unknown_categories: tuple[str, ...]
    orphan_chapters: int


def run_validate(config: RunConfig) -> ValidationReport:
    """Load and cross-check every input, collecting per-line diagnostics
    and resolution gaps instead of failing on them (load errors and, in
    strict mode, unresolved publishers stay fatal)."""
    inputs, corpus = _prepare_inputs(config)
    plans = inputs.taxonomy.plans
    unknown = {c for item in corpus.items for c in plans[item.categories].unknown}
    return ValidationReport(
        **vars(inputs),
        unknown_categories=tuple(sorted(unknown)),
        orphan_chapters=len(unknown_parent_chapters(corpus.items)),
    )
