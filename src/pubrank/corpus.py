"""Corpus ingestion, filtering, resolution, and summary statistics.

The input format is UTF-8 line-delimited JSON, one item per line. Ingest
is tolerant: a malformed line becomes a diagnostic and the run continues;
only unreadable sources and duplicate item ids are fatal. Filtering and
stats are pure functions over the ingested records.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import marshal
import os
import re
import select
import stat
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, count, islice, repeat
from operator import attrgetter, lt
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

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


_item_id = attrgetter("item_id")


@dataclass(frozen=True)
class Diagnostic:
    line: int
    reason: str
    severity: str = "error"  # "error" rejects the line, "warning" keeps it


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
    obj: dict, categories_memo: dict, shared: dict
) -> tuple[ItemRecord, list[str]]:
    """Build an ItemRecord from one parsed JSON object.

    Returns the record plus any non-fatal warnings. Raises ValueError with
    the rejection reason for malformed objects. `categories_memo` maps a
    raw category list, as a tuple, to its normalised tuple; it only ever
    holds lists that passed the check, so records with the same list share
    one tuple. `shared` maps each publisher string, year and normalised
    category tuple to its first copy, which every record with that value
    then holds (a str, an int and a tuple are never equal, so one table
    serves all three). The line loop adds each book's id to it, so a
    chapter after its book holds the book's id string as its parent id.
    Values come from `json.loads`, so exact-type checks
    (bool is an int subclass and must not pass as one) and identity on the
    two bools are the same tests as isinstance.
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
        categories = _normalise_categories(raw_categories)
        categories = categories_memo[key] = shared.setdefault(categories, categories)
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
        shared.setdefault(raw_publisher, raw_publisher),
        shared.setdefault(year, year),
        categories,
        citations,
        serial,
        shared.get(parent_book_id, parent_book_id),
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


class _Ingest:
    """The state of one ingest_corpus call's line loop: records and
    diagnostics so far, the ids seen, the blank lines, and the tables that
    share category tuples, publisher strings, years and book ids between
    records.
    The tables are its own, not sys.intern's, so that they go with the
    call: a long-tail corpus has 17k distinct publisher strings."""

    def __init__(self) -> None:
        self.records: list[ItemRecord] = []
        self.diagnostics: list[Diagnostic] = []
        self.seen: set[str] = set()
        self.blank: list[int] = []
        self.categories_memo: dict[tuple, tuple[str, ...]] = {}
        self.shared: dict = {}
        self.lines = 0  # lines scanned so far

    def scan(self, lines: Iterable[str]) -> None:
        """Run the line loop over `lines`, which follow the lines scanned so far."""
        records = self.records
        diagnostics = self.diagnostics
        seen = self.seen
        categories_memo = self.categories_memo
        shared = self.shared
        loads = json.loads
        scan_once = _scan_once
        line_no = self.lines
        for line_no, line in enumerate(lines, start=line_no + 1):
            if not line or line.isspace():
                self.blank.append(line_no)
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
                record, warnings = _parse_line(obj, categories_memo, shared)
            except ValueError as exc:
                diagnostics.append(Diagnostic(line_no, str(exc)))
                continue
            item_id = record.item_id
            if item_id in seen:
                raise DuplicateItemError(item_id, self._first_line(item_id), line_no)
            seen.add(item_id)
            if record.doc_type == DOC_BOOK:
                shared[item_id] = item_id
            records.append(record)
            for message in warnings:
                diagnostics.append(Diagnostic(line_no, message, severity="warning"))
        self.lines = line_no

    def _first_line(self, item_id: str) -> int:
        """The line of the first record with this id, for a scan that began
        at line 1: the records fill, in order, the lines that are neither
        blank nor rejected."""
        index = next(i for i, r in enumerate(self.records) if r.item_id == item_id)
        skipped = set(self.blank)
        skipped.update(d.line for d in self.diagnostics if d.severity == "error")
        record_lines = (n for n in count(1) if n not in skipped)
        return next(islice(record_lines, index, None))


# Ingest on two cores. A regular corpus file of at least _SPLIT_MIN_BYTES,
# on Linux with more than one CPU allowed, is split at the first "\n" after
# its byte midpoint: a forked worker scans the second range while this
# process scans the first. Each _CHUNK_LINES lines, the worker writes that
# chunk's records, as marshalled columns, and diagnostics as one
# length-prefixed frame to a pipe. After each chunk of its own, this process
# reads the worker's whole frames for as long as the pipe has data, and at
# the end it reads them up to the pipe's end.
#
# Measured (2 vCPU, CPython 3.11.7; ingest_corpus alone, one fresh process
# per run, medians of 12 alternating serial/split pairs) on prefixes of the
# seed-1 benchmark corpus of 4,000 publishers: 10.7 -> 20.3 ms at 0.25 MiB
# (split faster in 1 of 12), 24.2 -> 32.6 ms at 0.5 MiB (3 of 12), 51.5 ->
# 41.2 ms at 1 MiB (8 of 12), 107 -> 73 ms at 2 MiB (11 of 12) and 274 ->
# 175 ms at its full 5.5 MiB (11 of 12); on the 17 MiB corpus of 250
# publishers, 0.78 -> 0.47 s (10 of 10). The fixed cost (fork, copy-on-write
# faults, the worker's exit) is about 10 ms: files under 1 MiB stay serial.
_SPLIT_MIN_BYTES = 1 << 20
_CHUNK_LINES = 1024
_FRAME_HEADER = 8  # bytes of the little-endian payload length
# A 1 MiB pipe (the default limit for unprivileged processes) holds about
# 17 chunks, so the worker, which does not decode, seldom waits for this
# process to read them.
_PIPE_BYTES = 1 << 20


class _ByteRange(io.RawIOBase):
    """A file's bytes from `start` up to `end`, for a text reader."""

    def __init__(self, path, start: int, end: int) -> None:
        super().__init__()
        self._file = open(path, "rb", buffering=0)
        self._file.seek(start)
        self._left = end - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        with memoryview(buffer) as view:
            read = self._file.readinto(view[: self._left])
        self._left -= read
        return read

    def close(self) -> None:
        self._file.close()
        super().close()


def _range_lines(path, start: int, end: int) -> io.TextIOWrapper:
    """The lines of bytes start..end of a file, read as `_open_lines` reads
    a whole file (UTF-8, universal newlines)."""
    return io.TextIOWrapper(io.BufferedReader(_ByteRange(path, start, end)), encoding="utf-8")


def _split_at(source) -> tuple[int, int] | None:
    """(offset just past the first "\\n" after the midpoint, file size) for a
    corpus file that ingest splits, else None."""
    if not isinstance(source, (str, Path)) or not hasattr(os, "sched_setaffinity"):
        return None
    try:
        info = os.stat(source)
        if (len(os.sched_getaffinity(0)) < 2 or not stat.S_ISREG(info.st_mode)
                or info.st_size < _SPLIT_MIN_BYTES):
            return None
        with open(source, "rb") as fh:
            fh.seek(info.st_size // 2)
            for block in iter(lambda: fh.read(1 << 16), b""):
                newline = block.find(b"\n")
                if newline >= 0:
                    split = fh.tell() - len(block) + newline + 1
                    return (split, info.st_size) if split < info.st_size else None
    except OSError:  # the serial path reports it
        return None
    return None


def _chunks(state: _Ingest, lines: Iterator[str]) -> Iterator[None]:
    """Scan `lines` into `state` _CHUNK_LINES at a time, yielding after each
    chunk."""
    while True:
        scanned = state.lines
        state.scan(islice(lines, _CHUNK_LINES))
        if state.lines == scanned:
            return
        yield


def _send_chunks(path, start: int, end: int, out) -> None:
    """The worker's side: scan bytes start..end and write one frame per
    chunk, (record columns, diagnostics as plain tuples), with line numbers
    counted from the range's first line, to the file object `out`. Any
    error, a duplicate id among them, ends the worker with status 1."""
    state = _Ingest()
    with _range_lines(path, start, end) as lines:
        for _ in _chunks(state, lines):
            payload = marshal.dumps((
                tuple(zip(*state.records)),
                [(d.line, d.reason, d.severity) for d in state.diagnostics],
            ))
            out.write(len(payload).to_bytes(_FRAME_HEADER, "little"))
            out.write(payload)
            state.records.clear()
            state.diagnostics.clear()


def _read_frames(
    frames: io.BufferedReader, shared: dict, records: list, diagnostics: list, to_end: bool
) -> None:
    """Read the worker's whole frames from the pipe into `records`, whose
    values go through the `shared` table, and `diagnostics`: for as long as
    the pipe has data or, if `to_end`, up to its end. A frame that has
    begun is read to its end, as the worker is writing it. A short header
    or payload raises EOFError."""
    share = shared.setdefault
    while to_end or select.select((frames,), (), (), 0)[0]:
        header = frames.read(_FRAME_HEADER)
        if not header:
            return
        size = int.from_bytes(header, "little")
        payload = frames.read(size)
        if len(header) < _FRAME_HEADER or len(payload) < size:
            raise EOFError("truncated frame from the ingest worker")
        columns, frame_diagnostics = marshal.loads(payload)
        diagnostics += frame_diagnostics
        if not columns:
            continue
        ids, doc_types, publishers, years, categories, citations, serial, parents, edited = columns
        # tuple.__new__ builds each record in C; ItemRecord(...) would
        # run the NamedTuple's Python __new__
        records += map(tuple.__new__, repeat(ItemRecord), zip(
            ids,
            doc_types,  # interned by the worker, so marshal interns them here
            map(share, publishers, publishers),
            map(share, years, years),
            map(share, categories, categories),
            citations,
            serial,
            parents,
            edited,
        ))


def _ingest_split(path, split: int, size: int) -> tuple[list[ItemRecord], list[Diagnostic]]:
    """Ingest bytes 0..split here and split..size in a forked worker.

    Raises when either range fails, when the worker's status is not 0 and
    when an id is in both ranges; the caller then runs the serial loop,
    which gives the serial result or error. The two processes are pinned
    to different CPUs until the worker ends: left to itself, the scheduler
    was seen to keep both on one CPU for the whole of a 0.3 s ingest.
    """
    import fcntl  # POSIX only, as is the split
    import signal

    cpus = sorted(os.sched_getaffinity(0))
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as frames, open(write_fd, "wb") as out:
        with contextlib.suppress(AttributeError, OSError):  # F_SETPIPE_SZ is Linux's
            fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        pid = os.fork()
        if pid == 0:  # the worker leaves only through os._exit
            status = 1
            try:
                frames.close()
                os.sched_setaffinity(0, cpus[:-1])
                _send_chunks(path, split, size, out)
                out.close()  # flushes what os._exit would drop
                status = 0
            finally:
                os._exit(status)
        state = _Ingest()
        records: list[ItemRecord] = []
        diagnostics: list[tuple[int, str, str]] = []
        try:
            out.close()
            os.sched_setaffinity(0, cpus[-1:])
            with _range_lines(path, 0, split) as lines:
                for _ in _chunks(state, lines):
                    _read_frames(frames, state.shared, records, diagnostics, to_end=False)
            _read_frames(frames, state.shared, records, diagnostics, to_end=True)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.sched_setaffinity(0, cpus)
            _, wait_status = os.waitpid(pid, 0)
    if wait_status != 0:
        raise RuntimeError(f"ingest worker ended with wait status {wait_status}")
    if not state.seen.isdisjoint(map(_item_id, records)):
        raise ValueError("an item id is in both ranges")
    offset = state.lines
    state.records += records
    state.diagnostics += [
        Diagnostic(line + offset, reason, severity) for line, reason, severity in diagnostics
    ]
    return state.records, state.diagnostics


def ingest_corpus(
    source, window: tuple[int, int] = DEFAULT_WINDOW
) -> tuple[list[ItemRecord], list[Diagnostic]]:
    """Parse a line-delimited corpus into item records plus diagnostics.

    Every well-formed line yields exactly one record, in input order.
    Malformed lines become error diagnostics; blank lines are skipped.
    Duplicate item ids are fatal and report both line numbers. A large
    corpus file is scanned in two ranges at once (see _SPLIT_MIN_BYTES);
    if that fails in any way, the serial loop runs, so the result or the
    error is always the serial one. `window` is only checked, as the
    benchmark's output checks still pass it; filter_corpus applies it.
    """
    _check_window(window)
    digits_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(_INT_MAX_DIGITS)
    try:
        split = _split_at(source)
        if split is not None:
            # whatever goes wrong, the serial loop below gives the serial
            # result or raises the serial error
            with contextlib.suppress(Exception):
                return _ingest_split(source, *split)
        state = _Ingest()
        state.scan(_open_lines(source))
        return state.records, state.diagnostics
    finally:
        sys.set_int_max_str_digits(digits_limit)


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
    fingerprint. `resolve_corpus` gives the items in item-id order, so
    record order never leaks into downstream artifacts and the fingerprint
    is hashed as its keys are built; it is order-insensitive whatever the
    order of the items."""

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


_DIGEST_BATCH = 1024  # key lines hashed per update
_KEY_CONTROL = re.compile(r"[\x00-\x1f]").search


def _keys_in_order(items: Sequence[ItemRecord]) -> bool:
    """Whether the items' fingerprint keys come out sorted: the ids rise
    strictly and none holds a character at or below "\\x1f". A key is its
    id followed by "\\x1f", so two such keys compare as their ids do, even
    when one id is a prefix of the other."""
    return all(map(lt, map(_item_id, items), map(_item_id, islice(items, 1, None)))) and not any(
        map(_KEY_CONTROL, map(_item_id, items))
    )


def corpus_fingerprint(items: Sequence[ItemRecord], publisher_ids: Iterable[str]) -> str:
    """SHA-256 of the sorted record keys, each followed by "\\n". A key is
    the id, doc type, publisher id, year, categories (joined by ","),
    citations, parent book id and edited flag, joined by "\\x1f". Keys
    that come out sorted (see _keys_in_order) are hashed a batch at a time
    as they are built; any others are built into one list and sorted."""
    keys: Iterator[str] = (
        "\x1f".join((
            item.item_id,
            item.doc_type,
            publisher_id,
            str(item.pub_year),
            ",".join(item.categories),
            str(item.citations),
            item.parent_book_id or "",
            "" if item.book_is_edited is None else str(item.book_is_edited),
        ))
        for item, publisher_id in zip(items, publisher_ids)
    )
    if not _keys_in_order(items):
        keys = iter(sorted(keys))
    digest = hashlib.sha256()
    while batch := "\n".join(islice(keys, _DIGEST_BATCH)):  # a key is never empty
        digest.update(batch.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def resolve_corpus(
    items: list[ItemRecord], registry: PublisherRegistry, strict: bool = True
) -> tuple[ResolvedCorpus, set[str]]:
    """Attach terminal publisher ids to every item, and put the items in
    item-id order.

    In strict mode an unresolved raw string is fatal, and the error names
    the first one in input order. In lenient mode the offending items are
    dropped and the exact set of unresolved folded strings is returned
    alongside the corpus.
    """
    resolved, unresolved = _resolve_names(items, registry)
    if unresolved and strict:
        raise UnresolvedPublisherError(unresolved[0])
    kept_items = [item for item in items if item.raw_publisher in resolved]
    kept_items.sort(key=_item_id)
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
