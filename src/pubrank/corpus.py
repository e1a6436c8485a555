"""Corpus ingestion, filtering and resolution.

The input format is UTF-8 line-delimited JSON, one item per line. Ingest
is tolerant: a malformed line becomes a diagnostic and the run continues;
only unreadable sources and duplicate item ids are fatal. Ingest reads a
file a chunk of lines at a time (`ingest_chunks`), and `ingest_corpus`
joins the chunks into one record list. Filtering and resolution are pure
functions over records, which every command applies to each chunk in turn
(`report._CorpusPass`), so no command holds a list of the corpus's
records. The corpus fingerprint hashes the resolved records' keys as the
chunks pass, while they come out sorted (`KeyDigest`). The summary
statistics are folded from the indicators' one walk
(`indicators.corpus_stats`).
"""

from __future__ import annotations

import contextlib
import io
import json
import marshal
import os
import re
import select
import stat
import sys
import time
from functools import cache
from itertools import accumulate, count, islice, repeat
from operator import attrgetter, lt
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CorpusError, DuplicateItemError, UnresolvedPublisherError
from .registry import PublisherRegistry

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


_item_id = attrgetter("item_id")


class Diagnostic(NamedTuple):
    line: int
    reason: str
    severity: str = "error"  # "error" rejects the line, "warning" keeps it


def _check_window(window: tuple[int, int]) -> tuple[int, int]:
    start, end = window
    if start > end:
        raise CorpusError(f"empty study window {start}:{end}")
    return (start, end)


_CATEGORIES_ERROR = "categories must be a non-empty array of strings"
_MAX_CITATIONS = 2**53 - 1  # the largest count every JSON reader reads back exactly


def _normalise_categories(raw: list) -> tuple[str, ...]:
    """The sorted, stripped, interned and deduplicated category tuple."""
    if not raw or not all(type(c) is str and c.strip() for c in raw):
        raise ValueError(_CATEGORIES_ERROR)
    return tuple(sorted({sys.intern(c.strip()) for c in raw}))


def _parse_line(obj: dict, shared: dict) -> tuple[ItemRecord, list[str]]:
    """Build an ItemRecord from one parsed JSON object.

    Returns the record plus any non-fatal warnings. Raises ValueError with
    the rejection reason for malformed objects. `shared` maps each
    publisher string, year and normalised category tuple to its first copy,
    which every record with that value then holds, and each raw category
    list that passed the check, as a tuple, to its normalised tuple, so
    records with the same list share one tuple (a str, an int and a tuple
    are never equal, and a raw tuple equal to a normalised one is already
    normalised, so one table serves them all). Ids, parent ids included,
    are each record's own: no record list outlives its chunk, so sharing
    them would save nothing. Values come from `json.loads`, so exact-type checks
    (bool is an int subclass and must not pass as one) and identity on the
    two bools are the same tests as isinstance.
    """
    warnings = []
    if not obj.keys() <= _KNOWN_KEYS:
        unknown = sorted(obj.keys() - _KNOWN_KEYS)
        warnings.append("unknown keys ignored: " + ", ".join(map(repr, unknown)))  # repr escapes line breaks

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
    if citations > _MAX_CITATIONS:
        raise ValueError(f"citations must be <= {_MAX_CITATIONS}")
    raw_categories = get("categories")
    if type(raw_categories) is not list:
        raise ValueError(_CATEGORIES_ERROR)
    key = tuple(raw_categories)
    try:
        categories = shared[key]
    except KeyError:
        categories = _normalise_categories(raw_categories)
        categories = shared[key] = shared.setdefault(categories, categories)
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
# A surrogate in a line read from a file can only come from a \u escape (UTF-8
# decoding rejects an encoded one), so only the object of a line that holds a
# backslash is checked; a valid pair decodes to one character outside the range.
_SURROGATE = re.compile(r"[\ud800-\udfff]").search


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
    """The state of one scan's line loop: the records and diagnostics not
    yet taken, the ids seen, the blank lines, and the table that shares
    category tuples, publisher strings and years between records (see
    _parse_line), and each reason between diagnostics. The table is
    its own, not sys.intern's, so that it goes with the scan: a long-tail
    corpus has 17k distinct publisher strings."""

    def __init__(self) -> None:
        self.records: list[ItemRecord] = []
        self.diagnostics: list[Diagnostic] = []
        self.seen: set[str] = set()
        self.blank: list[int] = []
        self.shared: dict = {}
        self.lines = 0  # lines scanned so far

    def scan(self, lines: Iterable[str]) -> bool:
        """Run the line loop over `lines`, which follow those scanned so far;
        True if any. Integers are read under _INT_MAX_DIGITS, whatever the
        caller's limit."""
        digits_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(_INT_MAX_DIGITS)
        try:
            return self._loop(lines)
        finally:
            sys.set_int_max_str_digits(digits_limit)

    def _loop(self, lines: Iterable[str]) -> bool:
        records = self.records
        seen = self.seen
        shared = self.shared
        loads = json.loads
        scan_once = _scan_once
        line_no = scanned = self.lines
        for line_no, line in enumerate(lines, start=scanned + 1):
            if not line or line.isspace():
                self.blank.append(line_no)
                continue
            if len(line) > _MAX_DEPTH and _too_deep(line):
                self.note(line_no, _TOO_DEEP)
                continue
            # A line that starts with a value is scanned exactly as
            # json.loads scans it, so the scan raises what json.loads would.
            # The result stands only when the value ends the line; anything
            # else (leading whitespace, a BOM, trailing data) goes through
            # json.loads, which gives the same object or the same error.
            try:
                if not line.isascii():
                    line.encode()  # a caller's string may hold a lone surrogate
                try:
                    obj, end = scan_once(line, 0)
                except StopIteration:
                    obj = loads(line)
                else:
                    if line[end:] not in _LINE_ENDS:
                        obj = loads(line)
            except json.JSONDecodeError as exc:
                self.note(line_no, f"invalid JSON: {exc.msg}")
                continue
            except (ValueError, RecursionError) as exc:
                # an integer past _INT_MAX_DIGITS, a lone surrogate, or a
                # caller's stack within _MAX_DEPTH frames of the recursion limit
                self.note(line_no, f"invalid JSON: {exc}")
                continue
            if type(obj) is not dict:
                self.note(line_no, "record is not a JSON object")
                continue
            if "\\" in line and _SURROGATE(json.dumps(obj, ensure_ascii=False)):
                self.note(line_no, "string holds an unpaired surrogate escape")
                continue
            try:
                record, warnings = _parse_line(obj, shared)
            except ValueError as exc:
                self.note(line_no, str(exc))
                continue
            item_id = record.item_id
            if item_id in seen:
                raise DuplicateItemError(item_id, self._first_line(item_id), line_no)
            seen.add(item_id)
            records.append(record)
            for message in warnings:
                self.note(line_no, message, "warning")
        self.lines = line_no
        return line_no > scanned

    def note(self, line_no: int, reason: str, severity: str = "error") -> None:
        reason = self.shared.setdefault(reason, reason)
        self.diagnostics.append(Diagnostic(line_no, reason, severity))

    def take(self) -> tuple[list[ItemRecord], list[Diagnostic]]:
        """The records and diagnostics noted since the last take, which this
        state lets go of."""
        taken = self.records, self.diagnostics
        self.records, self.diagnostics = [], []
        return taken

    def _first_line(self, item_id: str) -> int:
        """The line of the first record with this id, for a scan that began
        at line 1 and took nothing: the records fill, in order, the lines
        that are neither blank nor rejected. Any other scan reads its file
        again for the line, and gets 0 when the record is not held here."""
        index = next((i for i, r in enumerate(self.records) if r.item_id == item_id), None)
        if index is None:
            return 0
        skipped = set(self.blank)
        skipped.update(d.line for d in self.diagnostics if d.severity == "error")
        record_lines = (n for n in count(1) if n not in skipped)
        return next(islice(record_lines, index, None))


# Ingest on two cores. A large corpus file (see _large_file), on Linux with
# more than one CPU allowed, is split at the first "\n" after its byte
# midpoint: a forked worker scans the first range while this process scans the
# second. Each _CHUNK_LINES lines, the worker writes that chunk's records, as
# marshalled columns, its diagnostics and the number of lines it has scanned
# as one frame to a pipe, behind a header of the chunk's part and length.
# After each chunk of its own, this process reads the worker's whole frames
# for as long as the pipe has data, and at the end it reads them up to the
# pipe's end. The worker's range starts
# the file, so its frames' line numbers stand as they are, and the frames go
# into the file's cache entry as they arrive.
#
# Measured with the worker on the second range (2 vCPU, CPython 3.11.7;
# ingest_corpus alone, one fresh process per run, medians of 12 alternating
# serial/split pairs) on prefixes of the seed-1 benchmark corpus of 4,000
# publishers: 10.7 -> 20.3 ms at 0.25 MiB (split faster in 1 of 12), 24.2 ->
# 32.6 ms at 0.5 MiB (3 of 12), 51.5 -> 41.2 ms at 1 MiB (8 of 12), 107 ->
# 73 ms at 2 MiB (11 of 12) and 274 -> 175 ms at its full 5.5 MiB (11 of
# 12); on the 17 MiB corpus of 250 publishers, 0.78 -> 0.47 s (10 of 10).
# The fixed cost (fork, copy-on-write faults, the worker's exit) is about
# 10 ms: files under 1 MiB stay serial.
_SPLIT_MIN_BYTES = 1 << 20
_CHUNK_LINES = 1024
_FRAME_HEADER = 9  # bytes: the chunk's part, then the little-endian payload length
# A 1 MiB pipe (the default limit for unprivileged processes) holds about
# 17 chunks, so the worker, which does not decode, seldom waits for this
# process to read them.
_PIPE_BYTES = 1 << 20

# One chunk of ingest's result: its part (0 for the file's first or only
# range, 1 for a split's second range), its records, and its diagnostics
# with their lines counted from the start of the file.
Chunk = tuple[int, list[ItemRecord], list[Diagnostic]]


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


def _large_file(source) -> os.stat_result | None:
    """The status of a corpus file that ingest may split and caches, a regular
    file of at least _SPLIT_MIN_BYTES; else None."""
    if not isinstance(source, (str, Path)):
        return None
    try:
        info = os.stat(source)
    except OSError:  # the serial path reports it
        return None
    return info if stat.S_ISREG(info.st_mode) and info.st_size >= _SPLIT_MIN_BYTES else None


def _split_at(source, size: int) -> int | None:
    """The offset just past the first "\\n" after the midpoint of a large file
    of `size` bytes, when this process may run on two CPUs; else None."""
    if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
        return None
    with contextlib.suppress(OSError):  # the serial path reports it
        with open(source, "rb") as fh:
            fh.seek(size // 2)
            for block in iter(lambda: fh.read(1 << 16), b""):
                newline = block.find(b"\n")
                if newline >= 0:
                    split = fh.tell() - len(block) + newline + 1
                    return split if split < size else None
    return None


def _frame(
    part: int, records: Sequence[ItemRecord], diagnostics: Iterable[Diagnostic], lines: int
) -> bytes:
    """One frame: a header of the chunk's part and the payload's length,
    then the payload, the chunk's records and diagnostics as marshalled
    columns and the number of lines scanned when it was written."""
    payload = marshal.dumps((tuple(zip(*records)), tuple(zip(*diagnostics)), lines))
    return bytes((part,)) + len(payload).to_bytes(_FRAME_HEADER - 1, "little") + payload


def _send_chunks(path, end: int, out) -> None:
    """The worker's side: scan the file's bytes up to `end` and write one
    frame per chunk to the file object `out`. Any error, a duplicate id
    among them, ends the worker with status 1."""
    state = _Ingest()
    with _range_lines(path, 0, end) as lines:
        while state.scan(islice(lines, _CHUNK_LINES)):
            out.write(_frame(0, *state.take(), state.lines))


def _read_frames(
    frames: io.BufferedReader, into: _Ingest, to_end: bool, entry: _Entry, only: int | None = None
) -> Iterator[Chunk]:
    """Read whole frames, from the worker's pipe or a cache entry, and yield
    each as a chunk: its part, its records, whose values go through `into`'s
    shared table, and its diagnostics, whose reasons do too; `into`'s line
    count becomes the last frame's. Read for as long as the pipe has data
    or, if `to_end`, up to the end, and pass each frame on to `entry` as it
    stands. Given a part `only`, skip the payloads of the other part's
    frames, which needs a file that can seek. A frame that has begun is
    read to its end, as the worker is writing it. A short header or payload
    raises EOFError."""
    share = into.shared.setdefault
    while to_end or select.select((frames,), (), (), 0)[0]:
        header = frames.read(_FRAME_HEADER)
        if not header:
            return
        part, size = header[0], int.from_bytes(header[1:], "little")
        if only is not None and part != only and len(header) == _FRAME_HEADER:
            frames.seek(size, io.SEEK_CUR)
            continue
        payload = frames.read(size)
        if len(header) < _FRAME_HEADER or len(payload) < size:
            raise EOFError("truncated frame")
        entry.write(header, payload)
        columns, diagnostic_columns, into.lines = marshal.loads(payload)
        records, diagnostics = [], []
        if diagnostic_columns:
            line_nos, reasons, severities = diagnostic_columns
            diagnostics += map(tuple.__new__, repeat(Diagnostic),
                               zip(line_nos, map(share, reasons, reasons), severities))
        if columns:
            ids, doc_types, publishers, years, categories, citations, serial, parents, edited = columns
            # tuple.__new__ builds each record in C; ItemRecord(...) would
            # run the NamedTuple's Python __new__
            records += map(tuple.__new__, repeat(ItemRecord), zip(
                ids,
                doc_types,  # interned when written, so marshal interns them here
                map(share, publishers, publishers),
                map(share, years, years),
                map(share, categories, categories),
                citations,
                serial,
                parents,
                edited,
            ))
        yield part, records, diagnostics


def _ingest_split(path, split: int, size: int, entry: _Entry) -> Iterator[Chunk]:
    """Ingest bytes 0..split in a forked worker and split..size here, as
    chunks: the worker's as part 0, as they arrive, and this range's as
    part 1, whose diagnostics come last, once the worker's line count is
    known. Write each chunk's frame to `entry` as it is yielded.

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
                _send_chunks(path, split, out)
                out.close()  # flushes what os._exit would drop
                status = 0
            finally:
                os._exit(status)
        state = _Ingest()  # this process's range, lines counted from its start
        first = _Ingest()  # the worker's range, from its frames
        first.shared = state.shared  # one table shares values across both
        worker_ids: list[str] = []  # to check against this range's at the end

        def worker_chunks(to_end: bool) -> Iterator[Chunk]:
            for chunk in _read_frames(frames, first, to_end, entry):
                worker_ids.extend(map(_item_id, chunk[1]))
                yield chunk

        try:
            out.close()
            os.sched_setaffinity(0, cpus[-1:])
            with _range_lines(path, split, size) as lines:
                while state.scan(islice(lines, _CHUNK_LINES)):
                    records, state.records = state.records, []  # its diagnostics wait for the shift
                    entry.write_frame(1, records, (), state.lines)
                    yield 1, records, []
                    yield from worker_chunks(False)
            yield from worker_chunks(True)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.sched_setaffinity(0, cpus)
            _, wait_status = os.waitpid(pid, 0)
    if wait_status != 0:
        raise RuntimeError(f"ingest worker ended with wait status {wait_status}")
    if not state.seen.isdisjoint(worker_ids):
        raise ValueError("an item id is in both ranges")
    offset = first.lines
    diagnostics = [Diagnostic(d.line + offset, d.reason, d.severity) for d in state.diagnostics]
    entry.write_frame(1, [], diagnostics, offset + state.lines)
    yield 1, [], diagnostics


# A cache of ingest's own result. A large corpus file (see _large_file) is
# looked up by the SHA-256 of _code_tag() and its bytes under
# $XDG_CACHE_HOME/pubrank (~/.cache/pubrank by default), a directory that
# must belong to this user and be closed to everyone else: an entry is
# trusted once its digest checks, and marshal is not safe against crafted
# data. An entry is the SHA-256 of its body, then the body: frames as the
# ingest worker writes them, a chunk's part, records and diagnostics each,
# with absolute line numbers. A split parse writes each range's frames as
# they come, interleaved, and this process's range's diagnostics last, in
# one frame, as their line numbers are known only once the worker's range
# is read; a reader reads part 0's frames, then seeks back for part 1's, so
# that it gives the records in file order. The body is checked
# before any frame is decoded, and an entry that is missing or fails the
# check is parsed again. Reads and writes stream a frame at a time, so
# neither holds the body in memory.
_CACHE_ENTRIES = 8  # the most recently used entries kept
_DIGEST_BYTES = 32
_BLOCK_BYTES = 1 << 16
_file_version = attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns", "st_ctime_ns")


def _sha256(data: bytes = b""):
    import hashlib  # here, not at start-up: only the cache key and the fingerprint hash
    return hashlib.sha256(data)


@cache
def _code_tag() -> bytes:
    """SHA-256 of this module's source and the Python version: the parse's
    messages and the marshal format are both fixed by these."""
    digest = _sha256(Path(__file__).read_bytes())
    digest.update(sys.version.encode())
    return digest.digest()


def _hash_rest(fh, digest) -> bytes:
    """The digest of `digest` updated with the rest of the file `fh`."""
    block = bytearray(_BLOCK_BYTES)
    with memoryview(block) as view:
        while size := fh.readinto(block):
            digest.update(view[:size])
    return digest.digest()


def _touch(entry: Path) -> None:
    """Make the entry the most recently used. The clock's own nanoseconds,
    not the file system's coarser tick, order entries written in quick
    succession."""
    now = time.time_ns()
    os.utime(entry, ns=(now, now))


def _cache_dir() -> Path | None:
    """The cache directory, made if it is missing, when it is a directory
    of this user's that no one else may read or write; else None."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the default
        base = os.path.join(os.path.expanduser("~"), ".cache")
        if not os.path.isabs(base):  # no home directory
            return None
    directory = Path(base, "pubrank")
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = os.stat(directory)
    except OSError:  # a file where the directory should be, among others
        return None
    if (not stat.S_ISDIR(info.st_mode) or not hasattr(os, "getuid")
            or info.st_uid != os.getuid() or info.st_mode & 0o077):
        return None
    return directory


def _cache_key(source) -> Path | None:
    """The cache entry path of a large corpus file, when there is a cache
    directory to hold it; else None."""
    directory = _cache_dir()
    if directory is None:
        return None
    try:
        with open(source, "rb", buffering=0) as fh:
            key = _hash_rest(fh, _sha256(_code_tag()))
    except OSError:  # the parse reports it
        return None
    return directory / key.hex()


def _cache_read(entry: Path) -> Iterator[Chunk]:
    """The chunks of a cache entry whose body passes its digest, part 0's
    before part 1's, so that the records come in file order; raises if the
    entry is missing, unreadable or damaged. A hit makes the entry the most
    recently used."""
    with open(entry, "rb") as fh:
        digest = fh.read(_DIGEST_BYTES)
        if _hash_rest(fh, _sha256()) != digest:
            raise ValueError("cache entry fails its digest")
        into = _Ingest()
        for part in (0, 1):
            fh.seek(_DIGEST_BYTES)
            yield from _read_frames(fh, into, True, _Entry(None), part)
    with contextlib.suppress(OSError):  # a read-only cache still serves hits
        _touch(entry)


class _Entry:
    """A cache entry being written: its body's frames go to a temporary
    file in the cache directory and through the body's digest. commit()
    puts the entry in place and drops all but the _CACHE_ENTRIES most
    recently used files there. An OSError (an unwritable directory, a full
    disk) or discard() ends the writing and removes the temporary file;
    commit() then puts nothing in place. _Entry(None) writes nothing."""

    def __init__(self, path: Path | None) -> None:
        self.path = path
        self.file = None
        if path is not None:
            self.body = _sha256()
            self.temporary = path.with_name(f".{path.name}.{os.getpid()}")
            with contextlib.suppress(OSError):
                self.file = open(self.temporary, "wb")
                self.file.write(bytes(_DIGEST_BYTES))  # the body's digest, once it is known

    def write(self, *parts: bytes) -> None:
        if self.file is None:
            return
        try:
            for part in parts:
                self.file.write(part)
                self.body.update(part)
        except OSError:
            self.discard()

    def write_frame(self, part: int, records: Sequence[ItemRecord],
                    diagnostics: Iterable[Diagnostic], lines: int) -> None:
        if self.file is not None:  # never opened, or failed: no frame is needed
            self.write(_frame(part, records, diagnostics, lines))

    def commit(self) -> None:
        if self.file is None:
            return
        try:
            self.file.seek(0)
            self.file.write(self.body.digest())
            self.file.close()
            os.replace(self.temporary, self.path)
            _touch(self.path)
            with os.scandir(self.path.parent) as files:
                by_use = sorted(((f.stat().st_mtime_ns, f.path) for f in files if f.is_file()),
                                reverse=True)
            for _, path in by_use[_CACHE_ENTRIES:]:
                os.unlink(path)
        except OSError:
            self.discard()
        self.file = None

    def discard(self) -> None:
        if self.file is None:
            return
        with contextlib.suppress(OSError):  # a full disk fails the close's flush too
            self.file.close()
        with contextlib.suppress(OSError):
            os.unlink(self.temporary)
        self.file = None


def _parse(source, info: os.stat_result | None, entry: _Entry) -> Iterator[Chunk | None]:
    """Scan a large corpus file, of status `info`, in two ranges at once,
    else serially, a chunk at a time, and write the chunks' frames to
    `entry`. If the split fails, None voids the chunks it gave and the
    serial loop follows. That loop reads a file _CHUNK_LINES lines at a
    time, and any other iterable of lines, which may be read once only, in
    one chunk; after a duplicate id in a file, it scans the file again
    whole, for the serial error and its first line."""
    split = None if info is None else _split_at(source, info.st_size)
    if split is not None:
        try:
            yield from _ingest_split(source, split, info.st_size, entry)
            return
        except Exception:  # the serial loop gives the serial result or raises the serial error
            entry.discard()  # it may hold some of the worker's frames
            yield None
    state = _Ingest()
    lines = _open_lines(source)
    chunk_lines = _CHUNK_LINES if isinstance(source, (str, Path)) else None
    try:
        while state.scan(islice(lines, chunk_lines)):
            records, diagnostics = state.take()
            entry.write_frame(0, records, diagnostics, state.lines)
            yield 0, records, diagnostics
    except DuplicateItemError:
        if chunk_lines is not None:  # the first line may be in a chunk already taken
            _Ingest().scan(_open_lines(source))
        raise


def _unchanged(path, info: os.stat_result) -> bool:
    """Whether the file at `path` still has the inode, size and times of `info`."""
    try:
        return _file_version(os.stat(path)) == _file_version(info)
    except OSError:
        return False


def ingest_chunks(source) -> Iterator[Chunk | None]:
    """Ingest a corpus a chunk at a time, from a cache entry's frames, the
    split's two ranges or the serial loop, holding no chunk once it is
    yielded. Records come in input order within each part: a cache hit
    gives part 0's chunks before part 1's, a split parse interleaves them.
    Diagnostics come in line order. A None voids every chunk before it: the chunks start
    over on another path, after a missing or damaged cache entry or a
    failed split. The chunks after the last None, joined part by part, are
    ingest_corpus's result, errors and cache entry included."""
    info = _large_file(source)
    path = None if info is None else _cache_key(source)
    if path is not None:
        try:
            yield from _cache_read(path)
            return
        except Exception:  # whatever fails, the parse gives the result instead
            yield None
    entry = _Entry(path)
    try:
        yield from _parse(source, info, entry)
        if path is not None and _unchanged(source, info):
            entry.commit()
    finally:
        entry.discard()  # after a commit, there is nothing left to discard


def ingest_corpus(
    source, window: tuple[int, int] = DEFAULT_WINDOW
) -> tuple[list[ItemRecord], list[Diagnostic]]:
    """Parse a line-delimited corpus into item records plus diagnostics.

    Every well-formed line yields exactly one record, in input order.
    Malformed lines become error diagnostics; blank lines are skipped.
    Duplicate item ids are fatal and report both line numbers. A large
    corpus file (see _large_file) is scanned in two ranges at once; if that
    fails in any way, the serial loop runs, so the result or the error is
    always the serial one. Its result is cached by its bytes (see
    _CACHE_ENTRIES): a hit gives a result equal to the parse's, with the
    same values shared. Only a parse that returns over a file left
    unchanged while it ran writes an entry. `window` is only checked, as
    the benchmark's output checks still pass it; filter_corpus applies it.
    """
    _check_window(window)
    parts: tuple[list[ItemRecord], list[ItemRecord]] = ([], [])
    diagnostics: list[Diagnostic] = []
    for chunk in ingest_chunks(source):
        if chunk is None:
            parts, diagnostics = ([], []), []
        else:
            parts[chunk[0]].extend(chunk[1])
            diagnostics += chunk[2]
    records, second = parts
    records += second
    return records, diagnostics


def filter_corpus(
    items: list[ItemRecord],
    registry: PublisherRegistry,
    window: tuple[int, int] = DEFAULT_WINDOW,
) -> list[ItemRecord]:
    """Keep books and chapters inside the window, dropping serials.

    Serial exclusion is both flag-based (is_serial) and publisher-based:
    items whose publisher resolves into DEFAULT_EXCLUDED_PUBLISHERS are
    removed. Raw strings that do not resolve are kept here; the resolution
    step decides their fate. Pure, order-preserving, idempotent.
    """
    start, end = _check_window(window)
    excluded_ids = set()
    for entry in DEFAULT_EXCLUDED_PUBLISHERS:
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


class ResolvedCorpus:
    """Filtered items with their terminal publisher ids, in input order.
    The walk (`indicators.compute_baselines`) and `corpus_fingerprint` read
    a corpus through `chunks()`: here the items are one chunk, which the
    corpus keeps. A corpus that is read from its file a chunk at a time
    gives its chunks the same way, with None where the chunks start over,
    and feeds their fingerprint keys to its `keys` as it gives them."""

    keys: KeyDigest | None = None

    def __init__(self, items: Sequence[ItemRecord], publisher_ids: Sequence[str]):
        self.items = items
        self.publisher_ids = publisher_ids

    def __len__(self) -> int:
        return len(self.items)

    def pairs(self) -> Iterator[tuple[ItemRecord, str]]:
        return zip(self.items, self.publisher_ids)

    def chunks(self) -> Iterator[tuple[Sequence[ItemRecord], Sequence[str]] | None]:
        yield self.items, self.publisher_ids


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


def _keys(items: Iterable[ItemRecord], publisher_ids: Iterable[str]) -> Iterator[str]:
    """Each item's fingerprint key: the id, doc type, publisher id, year,
    categories (joined by ","), citations, parent book id and edited flag,
    joined by "\\x1f"."""
    for item, publisher_id in zip(items, publisher_ids):
        yield "\x1f".join((
            item.item_id,
            item.doc_type,
            publisher_id,
            str(item.pub_year),
            ",".join(item.categories),
            str(item.citations),
            item.parent_book_id or "",
            "" if item.book_is_edited is None else str(item.book_is_edited),
        ))


def _batches(keys: Iterator[str]) -> Iterator[bytes]:
    """The keys, each followed by "\\n", as UTF-8 in batches of _DIGEST_BATCH."""
    while batch := "\n".join(islice(keys, _DIGEST_BATCH)):  # a key is never empty
        yield (batch + "\n").encode("utf-8")


class KeyDigest:
    """The fingerprint's SHA-256 over the keys of chunks of records, fed a
    chunk at a time as a pass gives them, for as long as the keys come out
    sorted (see _keys_in_order, and each chunk's first id against the last
    one's). Part 0's keys are hashed as they come, and so are part 1's when
    part 0 came first, as a cache hit gives them. When part 1 begins first,
    as a split parse gives it, its keys are held as bytes and hashed after
    part 0's at the end."""

    def __init__(self) -> None:
        self.digest = _sha256()
        self.sorted = True
        self.last: str | None = None  # the last id hashed
        self.held: list[bytes] | None = None  # part 1's keys, when part 1 began first
        self.held_first: str | None = None
        self.held_last: str | None = None

    def add(self, part: int, items: Sequence[ItemRecord], publisher_ids: Sequence[str]) -> None:
        if not items or not self.sorted:
            return
        if part and self.last is None and self.held is None:
            self.held = []
        hold = part == 1 and self.held is not None
        last = self.held_last if hold else self.last
        if not _keys_in_order(items) or (last is not None and not last < items[0].item_id):
            self.sorted, self.held = False, None
            return
        if hold:
            self.held += _batches(_keys(items, publisher_ids))
            if self.held_first is None:
                self.held_first = items[0].item_id
            self.held_last = items[-1].item_id
        else:
            for batch in _batches(_keys(items, publisher_ids)):
                self.digest.update(batch)
            self.last = items[-1].item_id

    def hexdigest(self) -> str | None:
        """The digest of the keys fed, or None if any came out of order."""
        if not self.sorted:
            return None
        digest = self.digest.copy()
        if self.held:
            if self.last is not None and not self.last < self.held_first:
                return None
            for batch in self.held:
                digest.update(batch)
        return digest.hexdigest()


def corpus_fingerprint(corpus: ResolvedCorpus) -> str:
    """SHA-256 of the sorted record keys (see _keys), each followed by
    "\\n". Keys that come out sorted are hashed a batch at a time as the
    corpus's chunks give them (KeyDigest); a corpus whose `keys` a pass has
    fed is read here only if they did not. Otherwise the chunks are read,
    again for such a corpus, and their keys encoded into one list of bytes
    and sorted: UTF-8 bytes sort as their text does."""
    keys = corpus.keys
    if keys is None:
        keys = KeyDigest()
        for items, publisher_ids in corpus.chunks():
            keys.add(0, items, publisher_ids)
    hexdigest = keys.hexdigest()
    if hexdigest is not None:
        return hexdigest
    encoded: list[bytes] = []
    for chunk in corpus.chunks():
        if chunk is None:  # the chunks start over
            encoded = []
        else:
            encoded += map(str.encode, _keys(*chunk))
    encoded.sort()
    digest = _sha256()
    for start in range(0, len(encoded), _DIGEST_BATCH):
        digest.update(b"\n".join(encoded[start:start + _DIGEST_BATCH]) + b"\n")
    return digest.hexdigest()


def resolve_corpus(
    items: list[ItemRecord], registry: PublisherRegistry, strict: bool = True
) -> tuple[ResolvedCorpus, set[str]]:
    """Attach terminal publisher ids to every item, keeping input order.

    In strict mode an unresolved raw string is fatal, and the error names
    the first one in input order. In lenient mode the offending items are
    dropped and the exact set of unresolved folded strings is returned
    alongside the corpus.
    """
    resolved, unresolved = _resolve_names(items, registry)
    if unresolved and strict:
        raise UnresolvedPublisherError(unresolved[0])
    kept_items = [item for item in items if item.raw_publisher in resolved]
    publisher_ids = tuple(resolved[item.raw_publisher] for item in kept_items)
    return ResolvedCorpus(items=kept_items, publisher_ids=publisher_ids), set(unresolved)


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
