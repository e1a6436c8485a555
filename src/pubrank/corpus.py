"""Corpus ingestion, filtering, resolution, and summary statistics.

The input format is UTF-8 line-delimited JSON, one item per line. Ingest
is tolerant: a malformed line becomes a diagnostic and the run continues;
only unreadable sources and duplicate item ids are fatal. Filtering and
stats are pure functions over the ingested records.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import CorpusError, DuplicateItemError, UnresolvedPublisherError
from .registry import PublisherRegistry
from .taxonomy import SCOPE_FIELD, TaxonomyMap

DOC_BOOK = "book"
DOC_CHAPTER = "chapter"
_ANALYSED_TYPES = frozenset({DOC_BOOK, DOC_CHAPTER})

DEFAULT_WINDOW = (2009, 2013)
DEFAULT_EXCLUDED_PUBLISHERS = ("Annual Reviews",)

_KNOWN_KEYS = frozenset({
    "id",
    "doc_type",
    "publisher",
    "year",
    "categories",
    "citations",
    "serial",
    "parent_book_id",
    "edited",
})


class ItemRecord(NamedTuple):
    """One bibliographic item. doc_type keeps the source label verbatim;
    only the exact labels "book" and "chapter" take part in the analysis.
    A NamedTuple: immutable, hashable and cheap to build, one per line."""

    item_id: str
    doc_type: str
    raw_publisher: str
    pub_year: int
    categories: tuple[str, ...]  # deduplicated, sorted
    citations: int
    is_serial: bool = False
    parent_book_id: str | None = None
    book_is_edited: bool | None = None

    @property
    def is_book(self) -> bool:
        return self.doc_type == DOC_BOOK

    @property
    def is_chapter(self) -> bool:
        return self.doc_type == DOC_CHAPTER


@dataclass(frozen=True)
class Diagnostic:
    line: int
    reason: str
    severity: str = "error"  # "error" rejects the line, "warning" keeps it

    def __str__(self) -> str:
        return f"line {self.line}: {self.severity}: {self.reason}"


def _check_window(window: tuple[int, int]) -> tuple[int, int]:
    start, end = window
    if start > end:
        raise CorpusError(f"empty study window {start}:{end}")
    return (start, end)


_CATEGORIES_ERROR = "categories must be a non-empty array of strings"


def _normalise_categories(raw: list) -> tuple[str, ...]:
    """The sorted, stripped, interned and deduplicated category tuple."""
    if not raw or not all(type(c) is str and c.strip() for c in raw):
        raise ValueError(_CATEGORIES_ERROR)
    return tuple(sorted({sys.intern(c.strip()) for c in raw}))


def _parse_line(
    obj: dict, categories_memo: dict, publishers: dict
) -> tuple[ItemRecord, list[str]]:
    """Build an ItemRecord from one parsed JSON object.

    Returns the record plus any non-fatal warnings. Raises ValueError with
    the rejection reason for malformed objects. `categories_memo` maps a
    raw category list, as a tuple, to its normalised tuple; it only ever
    holds lists that passed the check, so records with the same list share
    one tuple. `publishers` maps each publisher string to its first copy,
    which every record with that publisher text then holds. Values come
    from `json.loads`, so exact-type checks (bool is an int subclass and
    must not pass as one) and identity on the two bools are the same tests
    as isinstance.
    """
    warnings = []
    if not obj.keys() <= _KNOWN_KEYS:
        warnings.append("unknown keys ignored: " + ", ".join(sorted(obj.keys() - _KNOWN_KEYS)))

    get = obj.get
    doc_type = get("doc_type")
    if type(doc_type) is not str or not doc_type:
        if "doc_type" not in obj:
            raise ValueError("missing doc_type")
        raise ValueError("doc_type must be a non-empty string")

    item_id = get("id")
    if type(item_id) is not str or not item_id:
        raise ValueError("missing or empty id")
    raw_publisher = get("publisher")
    if type(raw_publisher) is not str or not raw_publisher.strip():
        raise ValueError("missing or empty publisher")
    year = get("year")
    if type(year) is not int:
        raise ValueError("year must be an integer")
    citations = get("citations")
    if type(citations) is not int:
        raise ValueError("citations must be an integer")
    if citations < 0:
        raise ValueError("citations must be >= 0")
    raw_categories = get("categories")
    if type(raw_categories) is not list:
        raise ValueError(_CATEGORIES_ERROR)
    key = tuple(raw_categories)
    try:
        categories = categories_memo[key]
    except KeyError:
        categories = categories_memo[key] = _normalise_categories(raw_categories)
    except TypeError:  # an unhashable element, which the full check rejects
        categories = _normalise_categories(raw_categories)
    serial = get("serial", False)
    if serial is not False and serial is not True:
        raise ValueError("serial must be a boolean")

    parent_book_id = get("parent_book_id")
    if parent_book_id is not None and (type(parent_book_id) is not str or not parent_book_id):
        raise ValueError("parent_book_id must be a non-empty string")
    edited = get("edited")
    if edited is not None and edited is not False and edited is not True:
        raise ValueError("edited must be a boolean")

    if doc_type == DOC_CHAPTER and parent_book_id is None:
        raise ValueError("chapter without parent_book_id")
    if doc_type == DOC_BOOK and parent_book_id is not None:
        raise ValueError("book must not carry parent_book_id")
    if doc_type != DOC_BOOK and edited is not None:
        warnings.append("edited flag ignored on non-book record")
        edited = None

    record = ItemRecord(
        item_id,
        sys.intern(doc_type),
        publishers.setdefault(raw_publisher, raw_publisher),
        year,
        categories,
        citations,
        serial,
        parent_book_id,
        edited,
    )
    return record, warnings


# json.loads(line) minus its three Python frames: the C scanner of a
# default decoder, called on the line as it stands
_scan_once = json.JSONDecoder().scan_once
_LINE_ENDS = ("\n", "", "\r\n")

# Fixed bounds: a line's diagnostic depends on the line alone, not on
# PYTHONINTMAXSTRDIGITS or the stack depth. Only a line longer than _MAX_DEPTH,
# a fifth of the default recursion limit, can nest deeper than that.
_INT_MAX_DIGITS = 4300
_MAX_DEPTH = 200
_TOO_DEEP = f"invalid JSON: nesting deeper than {_MAX_DEPTH} levels"


def _too_deep(line: str) -> bool:
    """Whether the line nests more than _MAX_DEPTH levels outside strings."""
    if line.count("[") + line.count("{") <= _MAX_DEPTH:
        return False
    unquoted = re.sub(r'"(?:[^"\\]|\\.)*"?', "", line)  # an unclosed string ends the line
    steps = (1 if c in "[{" else -1 for c in unquoted if c in "[]{}")
    return max(accumulate(steps, initial=0)) > _MAX_DEPTH


def _open_lines(source) -> Iterator[str]:
    """Lines of a corpus file, or of any iterable of strings."""
    if not isinstance(source, (str, Path)):
        yield from source
        return
    path = Path(source)
    try:
        fh = path.open(encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc
    with fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise CorpusError(f"corpus {path} is not UTF-8: {exc}") from exc


def ingest_corpus(
    source, window: tuple[int, int] = DEFAULT_WINDOW
) -> tuple[list[ItemRecord], list[Diagnostic]]:
    """Parse a line-delimited corpus into item records plus diagnostics.

    Every well-formed line yields exactly one record, in input order.
    Malformed lines become error diagnostics; blank lines are skipped.
    Duplicate item ids are fatal and report both line numbers.
    """
    _check_window(window)
    records: list[ItemRecord] = []
    diagnostics: list[Diagnostic] = []
    seen: dict[str, int] = {}
    categories_memo: dict[tuple, tuple[str, ...]] = {}
    # a table of its own, not sys.intern's, so that it goes with the call:
    # it has an entry per distinct publisher string, 17k on a long-tail corpus
    publishers: dict[str, str] = {}
    loads = json.loads
    scan_once = _scan_once
    digits_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(_INT_MAX_DIGITS)
    try:
        for line_no, line in enumerate(_open_lines(source), start=1):
            if not line or line.isspace():
                continue
            if len(line) > _MAX_DEPTH and _too_deep(line):
                diagnostics.append(Diagnostic(line_no, _TOO_DEEP))
                continue
            # A line that starts with a value is scanned exactly as
            # json.loads scans it, so the scan raises what json.loads would.
            # The result stands only when the value ends the line; anything
            # else (leading whitespace, a BOM, trailing data) goes through
            # json.loads, which gives the same object or the same error.
            try:
                try:
                    obj, end = scan_once(line, 0)
                except StopIteration:
                    obj = loads(line)
                else:
                    if line[end:] not in _LINE_ENDS:
                        obj = loads(line)
            except json.JSONDecodeError as exc:
                diagnostics.append(Diagnostic(line_no, f"invalid JSON: {exc.msg}"))
                continue
            except (ValueError, RecursionError) as exc:
                # an integer past _INT_MAX_DIGITS, or a caller's stack
                # within _MAX_DEPTH frames of the recursion limit
                diagnostics.append(Diagnostic(line_no, f"invalid JSON: {exc}"))
                continue
            if type(obj) is not dict:
                diagnostics.append(Diagnostic(line_no, "record is not a JSON object"))
                continue
            try:
                record, warnings = _parse_line(obj, categories_memo, publishers)
            except ValueError as exc:
                diagnostics.append(Diagnostic(line_no, str(exc)))
                continue
            item_id = record.item_id
            if item_id in seen:
                raise DuplicateItemError(item_id, seen[item_id], line_no)
            seen[item_id] = line_no
            records.append(record)
            for message in warnings:
                diagnostics.append(Diagnostic(line_no, message, severity="warning"))
    finally:
        sys.set_int_max_str_digits(digits_limit)
    return records, diagnostics


def filter_corpus(
    items: list[ItemRecord],
    registry: PublisherRegistry,
    window: tuple[int, int] = DEFAULT_WINDOW,
    excluded_publishers: Iterable[str] = DEFAULT_EXCLUDED_PUBLISHERS,
) -> list[ItemRecord]:
    """Keep books and chapters inside the window, dropping serials.

    Serial exclusion is both flag-based (is_serial) and publisher-based:
    items whose publisher resolves into the exclusion list are removed.
    Raw strings that do not resolve are kept here; the resolution step
    decides their fate. Pure, order-preserving, idempotent.
    """
    start, end = _check_window(window)
    excluded_ids = set()
    for entry in excluded_publishers:
        with contextlib.suppress(UnresolvedPublisherError):
            excluded_ids.add(registry.resolve(entry))
    kept = [
        item
        for item in items
        if item.doc_type in _ANALYSED_TYPES and not item.is_serial and start <= item.pub_year <= end
    ]
    resolved, _ = _resolve_names(kept, registry)
    excluded_raw = {raw for raw, pid in resolved.items() if pid in excluded_ids}
    if excluded_raw:
        kept = [item for item in kept if item.raw_publisher not in excluded_raw]
    return kept


@dataclass(frozen=True)
class ResolvedCorpus:
    """Filtered items with their terminal publisher ids and a content
    fingerprint. The fingerprint is order-insensitive so record order
    never leaks into downstream artifacts."""

    items: tuple[ItemRecord, ...]
    publisher_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.items)

    def pairs(self) -> Iterator[tuple[ItemRecord, str]]:
        return zip(self.items, self.publisher_ids)

    @cached_property
    def fingerprint(self) -> str:
        """Computed on first read, so commands that never read it (validate,
        stats) never hash the corpus."""
        return corpus_fingerprint(self.items, self.publisher_ids)


def _record_key(item: ItemRecord, publisher_id: str) -> str:
    return "\x1f".join(
        (
            item.item_id,
            item.doc_type,
            publisher_id,
            str(item.pub_year),
            ",".join(item.categories),
            str(item.citations),
            item.parent_book_id or "",
            "" if item.book_is_edited is None else str(item.book_is_edited),
        )
    )


def corpus_fingerprint(items: Iterable[ItemRecord], publisher_ids: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for key in sorted(_record_key(i, p) for i, p in zip(items, publisher_ids)):
        digest.update(key.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def resolve_corpus(
    items: list[ItemRecord], registry: PublisherRegistry, strict: bool = True
) -> tuple[ResolvedCorpus, set[str]]:
    """Attach terminal publisher ids to every item.

    In strict mode an unresolved raw string is fatal. In lenient mode the
    offending items are dropped and the exact set of unresolved folded
    strings is returned alongside the corpus.
    """
    resolved, unresolved = _resolve_names(items, registry)
    if unresolved and strict:
        raise UnresolvedPublisherError(unresolved[0])
    kept_items = [item for item in items if item.raw_publisher in resolved]
    publisher_ids = tuple(resolved[item.raw_publisher] for item in kept_items)
    return ResolvedCorpus(items=tuple(kept_items), publisher_ids=publisher_ids), set(unresolved)


def _resolve_names(
    items: Iterable[ItemRecord], registry: PublisherRegistry
) -> tuple[dict[str, str], list[str]]:
    """Resolve each distinct raw publisher string once, in first-seen order:
    raw string -> terminal publisher id, plus the folded form of every
    string that does not resolve."""
    resolved: dict[str, str] = {}
    unresolved: list[str] = []
    lookup = registry.lookup
    for raw in dict.fromkeys(item.raw_publisher for item in items):
        publisher_id, folded = lookup(raw)
        if publisher_id is None:
            unresolved.append(folded)
        else:
            resolved[raw] = publisher_id
    return resolved, unresolved


def unknown_parent_chapters(items: Iterable[ItemRecord]) -> list[str]:
    """Chapters whose parent book is not in the corpus. They stay in the
    analysis but count as not-edited."""
    books = {i.item_id for i in items if i.is_book}
    return [i.item_id for i in items if i.is_chapter and i.parent_book_id not in books]


@dataclass
class FieldStats:
    disciplines: int = 0
    commercial_publishers: int = 0
    university_publishers: int = 0
    books: int = 0
    chapters: int = 0
    book_citations: int = 0
    chapter_citations: int = 0

    @property
    def publishers(self) -> int:
        return self.commercial_publishers + self.university_publishers

    @property
    def items(self) -> int:
        return self.books + self.chapters

    @property
    def citations(self) -> int:
        return self.book_citations + self.chapter_citations

    @property
    def book_citation_avg(self) -> float | None:
        return self.book_citations / self.books if self.books else None

    @property
    def chapter_citation_avg(self) -> float | None:
        return self.chapter_citations / self.chapters if self.chapters else None


@dataclass(frozen=True)
class CorpusStats:
    per_field: dict[str, FieldStats]
    total: FieldStats
    unknown_categories: tuple[str, ...]


def corpus_stats(
    corpus: ResolvedCorpus, registry: PublisherRegistry, taxonomy: TaxonomyMap
) -> CorpusStats:
    """Per-field and global aggregates over a filtered, resolved corpus.

    Items are whole-counted: one item in n fields contributes fully to all
    n of them, so per-field numbers only sum to the totals on corpora
    where every item has a single field.
    """
    per_field = {f: FieldStats(disciplines=len(taxonomy.disciplines_by_field[f])) for f in taxonomy.fields}
    total = FieldStats(disciplines=taxonomy.discipline_count)
    pubs_by_field: dict[str, set[str]] = {f: set() for f in taxonomy.fields}
    pubs_total: set[str] = set()
    unknown: set[str] = set()

    plans = taxonomy.plans
    for item, pid in corpus.pairs():
        plan = plans[item.categories]
        unknown.update(plan.unknown)
        for kind, fieldname, _, _ in plan.scopes:
            if kind == SCOPE_FIELD:
                pubs_by_field[fieldname].add(pid)
                _tally(per_field[fieldname], item)
        pubs_total.add(pid)
        _tally(total, item)

    for fieldname, bucket in pubs_by_field.items():
        stats = per_field[fieldname]
        for pid in bucket:
            _count_publisher(stats, registry, pid)
    for pid in pubs_total:
        _count_publisher(total, registry, pid)
    return CorpusStats(per_field=per_field, total=total, unknown_categories=tuple(sorted(unknown)))


def _tally(stats: FieldStats, item: ItemRecord) -> None:
    if item.is_book:
        stats.books += 1
        stats.book_citations += item.citations
    else:
        stats.chapters += 1
        stats.chapter_citations += item.citations


def _count_publisher(stats: FieldStats, registry: PublisherRegistry, pid: str) -> None:
    if registry.publishers[pid].publisher_type == "university_press":
        stats.university_publishers += 1
    else:
        stats.commercial_publishers += 1
