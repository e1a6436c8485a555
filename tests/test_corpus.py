import hashlib
import importlib
import json
import os
import random
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pubrank import corpus
from pubrank.cli import run_cli
from pubrank.corpus import (
    DOC_BOOK,
    Diagnostic,
    ItemRecord,
    ResolvedCorpus,
    _parse_line,
    corpus_fingerprint,
    filter_corpus,
    ingest_corpus,
    resolve_corpus,
)
from pubrank.errors import (
    CorpusError,
    DuplicateItemError,
    PubrankError,
    UnresolvedPublisherError,
)
from pubrank.indicators import compute_baselines, corpus_stats
from pubrank.report import RunConfig, run_rank, run_validate
from pubrank.samples import sample_registry_dir, sample_taxonomy_path
from pubrank.taxonomy import load_taxonomy
from pubrank.testkit import SynthParams, generate_corpus
from util import ingest_and_resolve, jsonl, record


class TestIngest:
    def test_one_valid_book_line(self):
        records, diagnostics = ingest_corpus(jsonl([record("b1", citations=3)]))
        assert len(records) == 1 and not diagnostics
        item = records[0]
        assert item.item_id == "b1"
        assert item.doc_type == DOC_BOOK  # a book, so not a chapter
        assert item.citations == 3
        assert item.categories == ("History",)

    def test_empty_stream(self):
        assert ingest_corpus([]) == ([], [])

    def test_missing_doc_type_lines_become_diagnostics(self):
        lines = []
        for i in range(10):
            rec = record(f"r{i}")
            if i in (3, 7):
                del rec["doc_type"]
            lines.append(json.dumps(rec))
        records, diagnostics = ingest_corpus(lines)
        assert len(records) == 8
        assert len(diagnostics) == 2
        assert all("missing doc_type" in d.reason for d in diagnostics)
        assert [d.line for d in diagnostics] == [4, 8]

    def test_invalid_json_and_non_object_lines(self):
        records, diagnostics = ingest_corpus(["{broken", '"just a string"'])
        assert not records
        assert len(diagnostics) == 2
        assert "invalid JSON" in diagnostics[0].reason
        assert "not a JSON object" in diagnostics[1].reason

    def test_too_deep_nesting_and_overlong_integers_become_diagnostics(self):
        deep = "[" * 200_000 + "]" * 200_000
        huge = json.dumps(record("h")).replace('"citations": 0', '"citations": 1' + "0" * 5000)
        records, diagnostics = ingest_corpus([deep, huge, json.dumps(record("ok"))])
        assert [r.item_id for r in records] == ["ok"]
        assert [(d.line, d.severity) for d in diagnostics] == [(1, "error"), (2, "error")]
        assert all("invalid JSON" in d.reason for d in diagnostics)

    def test_nesting_diagnostics_do_not_depend_on_stack_depth(self):
        # brackets inside a string, after an escaped quote and before an
        # escaped backslash, do not nest
        quoted = json.dumps(record("q", publisher='"' + "[" * 250 + "\\"))
        objects = '{"a": ' * 201 + "1" + "}" * 201
        lines = ["[" * n + "]" * n for n in (200, 201, 900, 950)] + [quoted, objects]

        def deeper(frames):
            return deeper(frames - 1) if frames else ingest_corpus(lines)

        shallow = ingest_corpus(lines)
        assert deeper(300) == shallow
        records, diagnostics = shallow
        assert [r.item_id for r in records] == ["q"]
        too_deep = "invalid JSON: nesting deeper than 200 levels"
        assert [(d.line, d.reason) for d in diagnostics] == [
            (1, "record is not a JSON object"),
            (2, too_deep),
            (3, too_deep),
            (4, too_deep),
            (6, too_deep),
        ]

    def test_citations_past_2_to_the_53_minus_1_become_diagnostics(self):
        lines = jsonl([record("max", citations=2**53 - 1), record("over", citations=2**53)])
        records, diagnostics = ingest_corpus(lines)
        assert [r.citations for r in records] == [2**53 - 1]
        assert diagnostics == [Diagnostic(2, "citations must be <= 9007199254740991")]

    def test_an_unpaired_surrogate_escape_rejects_its_line(self):
        lines = [json.dumps(record("x\ud800")), json.dumps({**record("k"), "x\udfff": 1}),
                 json.dumps(record("h", categories=["Hist\ud800ory"])),
                 json.dumps(record("pair\ud83d\ude00")), json.dumps(record("escaped\\ud800"))]
        records, diagnostics = ingest_corpus(lines)
        assert [r.item_id for r in records] == ["pair\U0001f600", "escaped\\ud800"]
        assert diagnostics == [Diagnostic(n, "string holds an unpaired surrogate escape")
                               for n in (1, 2, 3)]

    def test_a_literal_surrogate_in_a_string_line_rejects_it(self, registry):
        # only a caller passing lines as strings can write one; a file cannot hold it
        lines = [json.dumps(record(item_id), ensure_ascii=False)
                 for item_id in ("x\ud800", "caf\u00e9", "pair\U0001f600", "é\udfff")]
        records, diagnostics = ingest_corpus(lines)
        assert [r.item_id for r in records] == ["caf\u00e9", "pair\U0001f600"]
        assert diagnostics == [
            Diagnostic(n, f"invalid JSON: 'utf-8' codec can't encode character '\\u{code}' "
                          "in position 9: surrogates not allowed")
            for n, code in ((1, "d800"), (4, "dfff"))]
        resolved, _ = resolve_corpus(records, registry, strict=False)
        assert corpus_fingerprint(resolved)  # encodes every id as UTF-8

    def test_blank_lines_skipped(self):
        records, diagnostics = ingest_corpus(["", "  ", json.dumps(record("a")), "\n"])
        assert len(records) == 1 and not diagnostics

    def test_duplicate_id_is_fatal_with_both_lines(self):
        lines = jsonl([record("dup"), record("other"), record("dup")])
        with pytest.raises(DuplicateItemError) as err:
            ingest_corpus(lines)
        assert err.value.item_id == "dup"
        assert (err.value.first_line, err.value.second_line) == (1, 3)

    def test_duplicate_first_line_counts_blank_and_rejected_lines(self):
        lines = ["", "{broken", json.dumps(record("dup")), "  ", json.dumps(record("other")),
                 '"not an object"', json.dumps(record("dup"))]
        with pytest.raises(DuplicateItemError) as err:
            ingest_corpus(lines)
        assert (err.value.first_line, err.value.second_line) == (3, 7)

    def test_records_share_years(self):
        (first, second), _ = ingest_corpus(jsonl([record("a", year=2011), record("b", year=2011)]))
        assert first.pub_year == 2011 and first.pub_year is second.pub_year

    @pytest.mark.parametrize(
        "mutation,fragment",
        [
            (lambda r: r.update(doc_type=""), "doc_type"),
            (lambda r: r.update(id="") or r, "id"),
            (lambda r: r.pop("publisher"), "publisher"),
            (lambda r: r.update(year="2010"), "year must be an integer"),
            (lambda r: r.update(year=True), "year must be an integer"),
            (lambda r: r.update(citations=-1), "citations must be >= 0"),
            (lambda r: r.update(citations=1.5), "citations must be an integer"),
            (lambda r: r.update(categories=[]), "categories"),
            (lambda r: r.update(categories=["ok", 3]), "categories"),
            (lambda r: r.update(serial="yes"), "serial"),
        ],
    )
    def test_malformed_values_rejected(self, mutation, fragment):
        rec = record("x")
        mutation(rec)
        records, diagnostics = ingest_corpus([json.dumps(rec)])
        assert not records
        assert len(diagnostics) == 1 and fragment in diagnostics[0].reason

    def test_chapter_requires_parent_and_book_forbids_it(self):
        rec_chapter = record("c1", doc_type="chapter")
        rec_book = record("b1", parent_book_id="b0")
        records, diagnostics = ingest_corpus(jsonl([rec_chapter, rec_book]))
        assert not records
        assert "parent_book_id" in diagnostics[0].reason
        assert "parent_book_id" in diagnostics[1].reason

    def test_edited_flag_on_chapter_warns_and_is_dropped(self):
        rec = record("c1", doc_type="chapter", parent_book_id="b0", edited=True)
        records, diagnostics = ingest_corpus([json.dumps(rec)])
        assert len(records) == 1
        assert records[0].book_is_edited is None
        assert diagnostics and diagnostics[0].severity == "warning"

    def test_unknown_keys_warn_but_keep_record(self):
        rec = record("b1", isbn="978-3-16-148410-0")
        records, diagnostics = ingest_corpus([json.dumps(rec)])
        assert len(records) == 1
        assert diagnostics[0].severity == "warning"
        assert "isbn" in diagnostics[0].reason

    def test_categories_deduplicated_and_sorted(self):
        rec = record("b1", categories=["Law", "History", "Law"])
        records, _ = ingest_corpus([json.dumps(rec)])
        assert records[0].categories == ("History", "Law")

    def test_records_are_immutable_hashable_and_share_publisher_strings(self):
        lines = jsonl([record("a", publisher="Oxford University Press", categories=["Law"]),
                       record("b", publisher="Oxford University Press")])
        (first, second), _ = ingest_corpus(lines)
        with pytest.raises(AttributeError):
            first.citations = 5
        (twin,), _ = ingest_corpus(lines[:1])
        assert twin == first and twin is not first
        assert hash(twin) == hash(first)
        assert first.raw_publisher is second.raw_publisher

    def test_chapter_after_its_book_holds_the_book_id_string(self):
        (book, chapter), _ = ingest_corpus(
            jsonl([record("b1"), record("c1", doc_type="chapter", parent_book_id="b1")])
        )
        assert chapter.parent_book_id == book.item_id

    def test_chapter_before_its_book_keeps_its_values(self):
        lines = jsonl([record("c1", doc_type="chapter", parent_book_id="b1"), record("b1")])
        (chapter, book), _ = ingest_corpus(lines)
        assert chapter.parent_book_id == book.item_id == "b1"
        assert (chapter, book) == tuple(reference_ingest(lines)[0])

    def test_unreadable_source_fatal(self, tmp_path):
        with pytest.raises(CorpusError):
            ingest_corpus(tmp_path / "nope.jsonl")

    def test_non_utf8_source_fatal(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        rec = record("a", publisher="Presses de l'Universit\u00e9")
        path.write_bytes(json.dumps(rec, ensure_ascii=False).encode("latin-1"))
        with pytest.raises(CorpusError, match="not UTF-8"):
            ingest_corpus(path)

    def test_empty_window_fatal(self):
        with pytest.raises(CorpusError):
            ingest_corpus([], window=(2013, 2009))


CATEGORIES_ERROR = "categories must be a non-empty array of strings"

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 10**6) | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)
RECORD_KEYS = ["id", "doc_type", "publisher", "year", "categories", "citations", "serial",
               "parent_book_id", "edited", "isbn"]
HIGH = st.integers(0xD800, 0xDBFF)
LOW = st.integers(0xDC00, 0xDFFF)
# \uXXXX escapes of UTF-16 surrogates: a lone high one, a lone low one, a pair
SURROGATE_ESCAPES = st.one_of(
    HIGH.map("\\u{:04x}".format),
    LOW.map("\\u{:04X}".format),
    st.tuples(HIGH, LOW).map(lambda pair: "\\u{:04x}\\u{:04x}".format(*pair)),
)


@st.composite
def corpus_line_bytes(draw, index):
    """One line: arbitrary bytes, or a record whose fields may be replaced
    by arbitrary JSON values."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=60))
    rec = record(f"r{index}", doc_type=draw(st.sampled_from(["book", "chapter"])),
                 categories=draw(st.lists(st.sampled_from(["History", " Law", "Law"]),
                                          max_size=3)))
    rec.update(draw(st.dictionaries(st.sampled_from(RECORD_KEYS), JSON_VALUES, max_size=3)))
    for key in draw(st.lists(st.sampled_from(RECORD_KEYS), max_size=2)):
        rec.pop(key, None)
    return json.dumps(rec, ensure_ascii=draw(st.booleans())).encode("utf-8")


@st.composite
def jsonl_text_line(draw, index):
    """One line as a reader hands it over: a record, another JSON value or
    arbitrary text, maybe with a surrogate escape after one of its quotes
    (in a key or a string, or just after one), maybe truncated, with
    whitespace, a BOM or trailing data around it and an LF, a CRLF or no
    line end."""
    kind = draw(st.sampled_from(["record", "value", "text"]))
    if kind == "record":
        body = draw(corpus_line_bytes(index)).decode("utf-8", errors="replace")
    elif kind == "value":
        body = json.dumps(draw(JSON_VALUES), ensure_ascii=draw(st.booleans()))
    else:
        body = draw(st.text(max_size=20))
    after_quotes = [at + 1 for at, char in enumerate(body) if char == '"']
    if after_quotes and draw(st.booleans()):
        at = draw(st.sampled_from(after_quotes))
        body = body[:at] + draw(SURROGATE_ESCAPES) + body[at:]
    if draw(st.booleans()):
        body = body[: draw(st.integers(0, len(body)))]
    lead = draw(st.sampled_from(["", "", " ", "\t", "\ufeff", "\r"]))
    trail = draw(st.sampled_from(["", "", " ", "\t", " x", "{}", "]", ",", "\r"]))
    return lead + body + trail + draw(st.sampled_from(["\n", "\r\n", ""]))


def holds_surrogate(value) -> bool:
    """Whether a JSON value holds a UTF-16 surrogate, in a key or a string."""
    if isinstance(value, str):
        return any("\ud800" <= char <= "\udfff" for char in value)
    if isinstance(value, dict):
        return any(holds_surrogate(key) or holds_surrogate(item) for key, item in value.items())
    return isinstance(value, list) and any(map(holds_surrogate, value))


def reference_ingest(lines):
    """ingest_corpus for a list of lines, decoding each with json.loads:
    (records, diagnostics), or the error it raises."""
    records, diagnostics, seen, shared = [], [], {}, {}
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            diagnostics.append(Diagnostic(line_no, f"invalid JSON: {exc.msg}"))
            continue
        except (ValueError, RecursionError) as exc:
            diagnostics.append(Diagnostic(line_no, f"invalid JSON: {exc}"))
            continue
        if not isinstance(obj, dict):
            diagnostics.append(Diagnostic(line_no, "record is not a JSON object"))
            continue
        if holds_surrogate(obj):
            diagnostics.append(Diagnostic(line_no, "string holds an unpaired surrogate escape"))
            continue
        try:
            item, warnings = _parse_line(obj, shared)
        except ValueError as exc:
            diagnostics.append(Diagnostic(line_no, str(exc)))
            continue
        if item.item_id in seen:
            return ("DuplicateItemError", item.item_id, seen[item.item_id], line_no)
        seen[item.item_id] = line_no
        records.append(item)
        diagnostics += [Diagnostic(line_no, w, severity="warning") for w in warnings]
    return records, diagnostics


def ingest_outcome(source):
    try:
        return ingest_corpus(source)
    except DuplicateItemError as exc:
        return ("DuplicateItemError", exc.item_id, exc.first_line, exc.second_line)


class TestIngestFuzz:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_scan_equals_json_loads_reference(self, data):
        """The C-scanner fast path gives the records and the diagnostics,
        message for message, that json.loads gives, for lines handed over
        as strings and for the same text read from a file."""
        lines = [data.draw(jsonl_text_line(i)) for i in range(data.draw(st.integers(0, 8)))]
        assert ingest_outcome(lines) == reference_ingest(lines)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.jsonl"
            path.write_text("".join(lines), encoding="utf-8", newline="")
            with path.open(encoding="utf-8") as fh:
                file_lines = list(fh)
            assert ingest_outcome(path) == reference_ingest(file_lines)


    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_split_scan_equals_json_loads_reference(self, data):
        """The same property for a file whose ingest is split in two ranges,
        whatever the size: the halves' records and diagnostics, joined,
        are the serial ones, message for message."""
        lines = [data.draw(jsonl_text_line(i)) for i in range(data.draw(st.integers(0, 8)))]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.jsonl"
            path.write_text("".join(lines), encoding="utf-8", newline="")
            with path.open(encoding="utf-8") as fh:
                file_lines = list(fh)
            # split every file and cache none, so that every example runs the split
            with mock.patch.object(corpus, "_SPLIT_MIN_BYTES", 0), \
                    mock.patch.object(corpus, "_cache_key", lambda source: None):
                assert ingest_outcome(path) == reference_ingest(file_lines)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_cache_hit_equals_json_loads_reference(self, data):
        """The same property for a file cached by a split parse, in entries
        of several frames: the worker's frames as they came, then this
        process's range, shifted. The miss and the hit both give the serial
        records and diagnostics, message for message."""
        lines = [data.draw(jsonl_text_line(i)) for i in range(data.draw(st.integers(0, 8)))]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.jsonl"
            path.write_text("".join(lines), encoding="utf-8", newline="")
            with path.open(encoding="utf-8") as fh:
                reference = reference_ingest(list(fh))
            with mock.patch.object(corpus, "_SPLIT_MIN_BYTES", 0), \
                    mock.patch.object(corpus, "_CHUNK_LINES", 2), \
                    mock.patch.dict(os.environ, {"XDG_CACHE_HOME": tmp}):  # this example's own cache
                assert ingest_outcome(path) == reference
                written = entries(Path(tmp, "pubrank"))
                assert ingest_outcome(path) == reference
            assert len(written) == (reference[0] != "DuplicateItemError")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_arbitrary_bytes_return_or_raise_pubrank_error(self, data):
        lines = [data.draw(corpus_line_bytes(i)) for i in range(data.draw(st.integers(0, 8)))]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.jsonl"
            path.write_bytes(b"\n".join(lines))
            try:
                records, diagnostics = ingest_corpus(path)
            except PubrankError:
                return
            with path.open(encoding="utf-8") as fh:
                line_count = len(fh.readlines())
        assert len(records) + sum(d.severity == "error" for d in diagnostics) <= line_count
        for item in records:
            assert item.categories == tuple(sorted(set(item.categories)))
            assert all(c and c == c.strip() for c in item.categories)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_memoised_categories_equal_the_full_check(self, data):
        """Repeated lists, whitespace and duplicate variants, and bad lists
        that extend an already seen good list: each record gets the sorted,
        stripped set of its list, equal lists share one tuple, and each bad
        list still gets its diagnostic."""
        names = st.sampled_from(["History", " History", "History ", "Law", "\tLaw", "Economics"])
        bad_elements = st.sampled_from([[], {}, ["History"], 3, None, "", "  ", True, 1.5])
        seen: list[list] = []
        raws = []
        for _ in range(data.draw(st.integers(1, 25))):
            choice = data.draw(st.sampled_from(["new", "repeat", "bad", "empty"]))
            if choice == "repeat" and seen:
                raw = list(data.draw(st.sampled_from(seen)))
            elif choice == "bad" and seen:
                prefix = data.draw(st.sampled_from(seen))
                raw = prefix + [data.draw(bad_elements)]
            elif choice == "empty":
                raw = []
            else:
                raw = data.draw(st.lists(names, min_size=1, max_size=4))
                seen.append(raw)
            raws.append(raw)
        lines = jsonl([record(f"r{i}", categories=raw) for i, raw in enumerate(raws)])
        records, diagnostics = ingest_corpus(lines)
        by_id = {item.item_id: item for item in records}
        errors = {d.line: d.reason for d in diagnostics}
        shared: dict[tuple, tuple] = {}
        for i, raw in enumerate(raws):
            good = bool(raw) and all(isinstance(c, str) and c.strip() for c in raw)
            if not good:
                assert f"r{i}" not in by_id
                assert errors[i + 1] == CATEGORIES_ERROR
                continue
            categories = by_id[f"r{i}"].categories
            assert categories == tuple(sorted({c.strip() for c in raw}))
            assert shared.setdefault(tuple(raw), categories) is categories


@pytest.fixture
def split_calls(monkeypatch):
    """Split every corpus file, whatever its size, and record what each
    split gave: its chunks, or None when it raised and the serial loop ran."""
    if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("ingest splits only on Linux with two CPUs allowed")
    monkeypatch.setattr(corpus, "_SPLIT_MIN_BYTES", 0)
    calls = []
    split = corpus._ingest_split

    def recorded(*args):
        calls.append(None)
        chunks = []
        for chunk in split(*args):  # passed on as they come, as a failing split passes them
            chunks.append(chunk)
            yield chunk
        calls[-1] = chunks

    monkeypatch.setattr(corpus, "_ingest_split", recorded)
    return calls


def serial_ingest(path):
    with mock.patch.object(corpus, "_SPLIT_MIN_BYTES", 1 << 62):
        return ingest_corpus(path)


def write_lines(path: Path, lines) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


class TestSplitIngest:
    """Ingest of a file in two ranges, the first in a forked worker."""

    def test_halves_join_to_the_serial_result(self, tmp_path, split_calls):
        lines = []
        for i in range(40):
            rec = record(f"r{i:02d}", year=2009 + i % 5, citations=i, isbn="x" if i % 7 == 0 else None)
            lines.append("" if i % 9 == 0 else "{broken" if i % 11 == 0 else json.dumps(rec))
        path = write_lines(tmp_path / "corpus.jsonl", lines)
        records, diagnostics = ingest_corpus(path)
        assert split_calls and split_calls[0] is not None
        assert (records, diagnostics) == serial_ingest(path) == ingest_corpus(lines)
        assert max(d.line for d in diagnostics) > 20  # this process's lines, shifted

    def test_duplicate_across_the_split_reports_serial_lines(self, tmp_path, split_calls):
        lines = [json.dumps(record(f"r{i:02d}")) for i in range(20)]
        lines[15] = json.dumps(record("r01"))
        path = write_lines(tmp_path / "corpus.jsonl", lines)
        with pytest.raises(DuplicateItemError) as err:
            ingest_corpus(path)
        assert split_calls == [None]
        assert (err.value.item_id, err.value.first_line, err.value.second_line) == ("r01", 2, 16)

    def test_invalid_utf8_in_the_second_half_raises_the_serial_error(self, tmp_path, split_calls):
        lines = [json.dumps(record(f"r{i:02d}")).encode("utf-8") for i in range(20)]
        lines[16] = lines[16].replace(b"Springer", b"Spr\xffnger")
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        with pytest.raises(CorpusError) as serial:
            serial_ingest(path)
        with pytest.raises(CorpusError) as split:
            ingest_corpus(path)
        assert split_calls == [None]
        assert "not UTF-8" in str(split.value) and str(split.value) == str(serial.value)

    def test_failed_worker_gives_the_serial_result(self, tmp_path, split_calls, monkeypatch):
        monkeypatch.setattr(corpus, "_send_chunks", lambda *args: os._exit(1))
        path = write_lines(tmp_path / "corpus.jsonl", jsonl([record(f"r{i}") for i in range(20)]))
        result = ingest_corpus(path)
        assert split_calls == [None]
        assert result == serial_ingest(path)
        assert len(result[0]) == 20

    @pytest.mark.parametrize("frame", [b"\x05\x00\x00", (100).to_bytes(8, "little") + b"abc"],
                             ids=["short header", "short payload"])
    def test_truncated_frame_gives_the_serial_result(self, tmp_path, split_calls, monkeypatch, frame):
        monkeypatch.setattr(corpus, "_send_chunks", lambda path, end, out: out.write(frame))
        path = write_lines(tmp_path / "corpus.jsonl", jsonl([record(f"r{i}") for i in range(20)]))
        result = ingest_corpus(path)
        assert split_calls == [None]
        assert result == serial_ingest(path)
        assert len(result[0]) == 20

    def test_error_in_this_half_reaps_the_worker_and_restores_affinity(self, tmp_path, split_calls):
        lines = [json.dumps(record(f"r{i:02d}")) for i in range(20)]
        lines[13] = json.dumps(record("r11"))
        path = write_lines(tmp_path / "corpus.jsonl", lines)
        cpus = os.sched_getaffinity(0)
        with pytest.raises(DuplicateItemError) as err:
            ingest_corpus(path)
        assert split_calls == [None]
        assert (err.value.item_id, err.value.first_line, err.value.second_line) == ("r11", 12, 14)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.sched_getaffinity(0) == cpus

    def test_values_are_shared_across_the_halves(self, tmp_path, split_calls):
        recs = [record(f"r{i:02d}", publisher="Oxford University Press", year=2011,
                       categories=["Law", "History"]) for i in range(20)]
        path = write_lines(tmp_path / "corpus.jsonl", jsonl(recs))
        records, _ = ingest_corpus(path)
        assert split_calls[0] is not None
        first, last = records[0], records[-1]
        assert first.raw_publisher is last.raw_publisher
        assert first.categories == ("History", "Law") and first.categories is last.categories
        assert first.pub_year is last.pub_year
        assert first.doc_type is last.doc_type

    def test_chapters_share_their_book_id_within_a_half(self, tmp_path, split_calls):
        recs = [record(f"r{i:02d}") for i in range(20)]
        for book, chapter in ((0, 3), (12, 17)):
            recs[chapter] = record(f"r{chapter:02d}", doc_type="chapter", parent_book_id=f"r{book:02d}")
        path = write_lines(tmp_path / "corpus.jsonl", jsonl(recs))
        records, _ = ingest_corpus(path)
        assert split_calls[0] is not None
        assert records[3].parent_book_id == records[0].item_id  # the worker's half
        assert records[17].parent_book_id == records[12].item_id

    def test_list_source_never_forks(self, split_calls, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        records, _ = ingest_corpus(jsonl([record(f"r{i}") for i in range(20)]))
        assert len(records) == 20 and split_calls == []


def every_diagnostic_kind() -> bytes:
    """A corpus with every kind of diagnostic, blank lines, CRLF line ends,
    values shared between records, and chapters after and before their
    books, across more than one frame of a cache entry."""
    faults = [
        {"doc_type": ""}, {"id": ""}, {"publisher": " "}, {"year": "2010"}, {"year": True},
        {"citations": -1}, {"citations": 1.5}, {"categories": []}, {"categories": ["ok", 3]},
        {"serial": "yes"}, {"parent_book_id": 7}, {"edited": "no"},
        {"doc_type": "chapter"}, {"parent_book_id": "b0"},
    ]
    lines = ["{broken", "[1, 2]", "[" * 300 + "]" * 300,
             json.dumps(record("huge")).replace('"citations": 0', '"citations": 1' + "0" * 5000)]
    lines += [json.dumps({**record(f"f{i}"), **fault}) for i, fault in enumerate(faults)]
    lines += ["", "   ", json.dumps(record("k", isbn="x")),
              json.dumps(record("e", doc_type="chapter", parent_book_id="b1", edited=True)),
              json.dumps(record("early", doc_type="chapter", parent_book_id="b1"))]
    for i in range(12):
        lines.append(json.dumps(record(f"b{i}", publisher=["Springer", "Brill"][i % 2],
                                       year=2009 + i % 3, categories=["Law", "History"])))
        lines.append(json.dumps(record(f"c{i}", doc_type="chapter", parent_book_id=f"b{i // 2}")))
    text = "".join(line + ("\r\n" if i % 3 else "\n") for i, line in enumerate(lines))
    return text.encode("utf-8")


def assert_values_shared(records):
    """The values a parse shares between records are shared."""
    by_id = {r.item_id: r for r in records}
    for doc_type in ("book", "chapter"):
        assert all(r.doc_type is sys.intern(doc_type) for r in records if r.doc_type == doc_type)
    springer = [r for r in records if r.raw_publisher == "Springer"]
    assert len(springer) > 2 and all(r.raw_publisher is springer[0].raw_publisher for r in springer)
    books = [by_id[f"b{i}"] for i in range(12)]
    assert all(b.pub_year is books[0].pub_year for b in books[::3])
    assert all(b.categories is books[0].categories for b in books)
    for i in range(12):
        assert by_id[f"c{i}"].parent_book_id == by_id[f"b{i // 2}"].item_id


def repeated_faults() -> list[str]:
    """Lines whose errors and warnings repeat, each reason a string the
    parse builds afresh for its line, spread over several frames."""
    huge = '"citations": 1' + "0" * 5000
    lines = []
    for i in range(12):
        lines += [
            "{broken",
            json.dumps(record(f"big{i}", citations=2**53)),
            json.dumps(record(f"h{i}")).replace('"citations": 0', huge),
            json.dumps(record(f"k{i}", isbn="x")),
            json.dumps(record(f"b{i}")),
        ]
    return lines


def assert_reasons_shared(diagnostics):
    """One string object per distinct reason, each reason repeated."""
    reasons = {d.reason for d in diagnostics}
    assert len(diagnostics) == 4 * 12 and len(reasons) == 4
    assert len({id(d.reason) for d in diagnostics}) == len(reasons)


class TestSharedReasons:
    """Equal diagnostic reasons are one string, however ingest ran."""

    def test_serial(self, tmp_path):
        path = write_lines(tmp_path / "corpus.jsonl", repeated_faults())
        assert_reasons_shared(serial_ingest(path)[1])

    def test_split(self, tmp_path, split_calls):
        path = write_lines(tmp_path / "corpus.jsonl", repeated_faults())
        _, diagnostics = ingest_corpus(path)
        assert split_calls[0] is not None
        assert_reasons_shared(diagnostics)

    def test_cache_hit(self, tmp_path, cached):
        path = write_lines(tmp_path / "corpus.jsonl", repeated_faults())
        miss = ingest_corpus(path)
        hit = ingest_corpus(path)
        assert hit == miss == serial_ingest(path) and len(entries(cached)) == 1
        assert_reasons_shared(hit[1])


@pytest.fixture
def cached(monkeypatch, ingest_cache):
    """Cache every corpus file, whatever its size; returns the cache directory."""
    monkeypatch.setattr(corpus, "_SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(corpus, "_CHUNK_LINES", 8)  # entries of several frames
    return ingest_cache


def entries(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir()) if directory.is_dir() else []


def no_parse(monkeypatch):
    """Make any parse or fork fail the test."""
    def fail(*args, **kwargs):
        raise AssertionError("parsed or forked")

    monkeypatch.setattr(corpus, "_parse_line", fail)
    monkeypatch.setattr(os, "fork", fail)


class TestIngestCache:
    """The cache of ingest's result for corpus files of at least _SPLIT_MIN_BYTES."""

    def test_a_hit_equals_a_miss_and_shares_values(self, tmp_path, cached):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(every_diagnostic_kind())
        miss = ingest_corpus(path)
        assert len(entries(cached)) == 1
        hit = ingest_corpus(path)
        assert hit == miss == serial_ingest(path)
        records, diagnostics = hit
        assert {d.severity for d in diagnostics} == {"error", "warning"}
        assert len(diagnostics) == 20 and max(d.line for d in diagnostics) == 22
        assert_values_shared(records)
        assert_values_shared(miss[0])

    def test_a_hit_gives_the_first_parts_chunks_first(self, tmp_path, cached, split_calls):
        """A split parse gives its second part's first chunk first; a hit
        gives every chunk of part 0 before part 1's, in file order."""
        path = write_lines(tmp_path / "corpus.jsonl", jsonl([record(f"r{i:02d}") for i in range(40)]))
        miss, hit = ([(chunk[0], [r.item_id for r in chunk[1]]) for chunk in corpus.ingest_chunks(path)
                      if chunk is not None] for _ in range(2))  # no entry yet: a None, then the parse
        assert miss[0][0] == 1 and len(split_calls) == 1
        assert hit == sorted(miss, key=lambda chunk: chunk[0]) and len(hit) > 4
        assert [i for _, ids in hit for i in ids] == [f"r{i:02d}" for i in range(40)]

    def test_a_hit_neither_forks_nor_parses(self, tmp_path, cached, monkeypatch):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(every_diagnostic_kind())
        miss = ingest_corpus(path)
        no_parse(monkeypatch)
        assert ingest_corpus(path) == miss
        assert ingest_corpus(path) == miss

    def test_small_files_and_lists_are_not_cached(self, tmp_path, ingest_cache):
        path = write_lines(tmp_path / "corpus.jsonl", jsonl([record(f"r{i}") for i in range(20)]))
        assert path.stat().st_size < corpus._SPLIT_MIN_BYTES
        ingest_corpus(path)
        ingest_corpus(jsonl([record(f"r{i}") for i in range(20)]))
        assert not ingest_cache.exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_fifo_is_read_once_serially_and_not_cached(self, tmp_path, cached, monkeypatch):
        lines = jsonl([record(f"r{i}") for i in range(20)])
        fifo = tmp_path / "corpus.jsonl"
        os.mkfifo(fifo)
        done = threading.Event()

        def feed():
            with open(fifo, "w", encoding="utf-8") as fh:  # waits for the first reader
                fh.write("".join(line + "\n" for line in lines))
            while not done.wait(timeout=5):  # another reader waits: end its read
                open(fifo, "w").close()

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        splits = []
        monkeypatch.setattr(corpus, "_ingest_split", lambda *args: splits.append(args))
        try:
            result = ingest_corpus(fifo)
        finally:
            done.set()
            release = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # for a writer waiting to open
            writer.join(timeout=10)
            os.close(release)
        assert not writer.is_alive()
        assert result == ingest_corpus(lines) and len(result[0]) == 20
        assert splits == [] and entries(cached) == []

    @pytest.mark.parametrize("damage", ["flipped byte", "truncated", "foreign file", "file as directory"])
    def test_a_damaged_cache_gives_the_parse_result(self, tmp_path, cached, damage, capsys):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(every_diagnostic_kind())
        argv = ["validate", "--corpus", str(path)]

        def damage_cache():
            if damage == "file as directory":
                cached.parent.mkdir(parents=True, exist_ok=True)
                cached.write_bytes(b"not a directory")
                return
            (entry,) = cached.iterdir()
            body = entry.read_bytes()
            if damage == "flipped byte":  # in a book's id, which still decodes
                at = body.rindex(b"b11")
                entry.write_bytes(body[:at] + bytes([body[at] ^ 1]) + body[at + 1:])
            elif damage == "truncated":
                entry.write_bytes(body[: len(body) // 2])
            else:
                entry.write_bytes(b"not a cache entry\n" * 100)

        if damage == "file as directory":
            damage_cache()
        assert run_cli(argv) == 1
        first = capsys.readouterr()
        assert first.err == "" and "line 1: invalid JSON" in first.out
        damage_cache()
        assert run_cli(argv) == 1
        assert capsys.readouterr() == first
        damage_cache()
        assert ingest_corpus(path) == serial_ingest(path)

    def test_a_changed_corpus_byte_misses(self, tmp_path, cached):
        path = write_lines(tmp_path / "corpus.jsonl", jsonl([record(f"r{i}") for i in range(20)]))
        before, _ = ingest_corpus(path)
        path.write_bytes(path.read_bytes().replace(b'"citations": 0', b'"citations": 1', 1))
        after, _ = ingest_corpus(path)
        assert (before[0].citations, after[0].citations) == (0, 1)
        assert after[1:] == before[1:] and len(entries(cached)) == 2

    def test_a_changed_code_tag_misses(self, tmp_path, cached, monkeypatch):
        path = write_lines(tmp_path / "corpus.jsonl", jsonl([record(f"r{i}") for i in range(20)]))
        result = ingest_corpus(path)
        monkeypatch.setattr(corpus, "_code_tag", lambda: b"other code")
        parsed = []
        parse_line = corpus._parse_line
        monkeypatch.setattr(corpus, "_parse_line", lambda *args: parsed.append(1) or parse_line(*args))
        monkeypatch.setattr(corpus, "_split_at", lambda source, size: None)
        assert ingest_corpus(path) == result
        assert len(parsed) == 20 and len(entries(cached)) == 2

    def test_a_file_changed_during_the_parse_writes_nothing(self, tmp_path, cached, monkeypatch):
        path = write_lines(tmp_path / "corpus.jsonl", jsonl([record(f"r{i}") for i in range(20)]))
        parse = corpus._parse

        def rewrite():
            path.write_bytes(path.read_bytes().replace(b"r1", b"x1"))

        for change in (rewrite, path.unlink):  # a removed file has no status to compare

            def changed(*args):
                yield from parse(*args)
                change()

            monkeypatch.setattr(corpus, "_parse", changed)
            ingest_corpus(path)
            assert entries(cached) == []

    def test_a_failing_run_writes_nothing(self, tmp_path, cached):
        duplicate = write_lines(tmp_path / "duplicate.jsonl", jsonl([record("a"), record("a")]))
        with pytest.raises(DuplicateItemError):
            ingest_corpus(duplicate)
        latin1 = tmp_path / "latin1.jsonl"
        latin1.write_bytes(json.dumps(record("a", publisher="Université"),
                                      ensure_ascii=False).encode("latin-1"))
        with pytest.raises(CorpusError, match="not UTF-8"):
            ingest_corpus(latin1)
        assert entries(cached) == []

    def test_a_failed_split_writes_nothing(self, tmp_path, split_calls, ingest_cache, monkeypatch):
        send = corpus._send_chunks

        def send_then_fail(path, end, out):
            send(path, end, out)  # whole frames, which this process passes on
            out.flush()
            os._exit(1)

        monkeypatch.setattr(corpus, "_send_chunks", send_then_fail)
        path = write_lines(tmp_path / "corpus.jsonl", jsonl([record(f"r{i}") for i in range(20)]))
        assert ingest_corpus(path) == serial_ingest(path)
        assert split_calls == [None] and entries(ingest_cache) == []

    def test_the_most_recently_used_entries_are_kept(self, tmp_path, cached):
        def corpus_file(n):
            return write_lines(tmp_path / f"c{n}.jsonl", jsonl([record(f"r{n}")]))

        ingest_corpus(corpus_file(0))
        (first,) = entries(cached)
        for n in range(1, corpus._CACHE_ENTRIES):
            ingest_corpus(corpus_file(n))
        second = set(entries(cached)) - {first}
        ingest_corpus(corpus_file(0))  # a hit makes it the most recently used
        ingest_corpus(corpus_file(corpus._CACHE_ENTRIES))
        kept = entries(cached)
        assert len(kept) == corpus._CACHE_ENTRIES and first in kept
        assert len(second - set(kept)) == 1  # the entry of c1.jsonl, the least recently used

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    def test_a_full_disk_leaves_no_entry_and_no_temporary_file(self, tmp_path, cached):
        # 20 records fit the file's write buffer, so the disk is found full
        # only at commit; 3,000 overflow it, so the frames' write fails
        for size in (20, 3000):
            path = write_lines(tmp_path / f"corpus{size}.jsonl",
                               jsonl([record(f"r{i}") for i in range(size)]))
            entry = corpus._cache_key(path)
            # the temporary file's name, as a link to a device that is always full
            (cached / f".{entry.name}.{os.getpid()}").symlink_to("/dev/full")
            assert ingest_corpus(path) == serial_ingest(path)
            assert entries(cached) == []  # the link went with the temporary file

    @pytest.mark.parametrize("mode", [0o770, 0o705], ids=["group-writable", "other-readable"])
    def test_a_directory_others_may_use_is_not_trusted(self, tmp_path, cached, mode):
        ours = write_lines(tmp_path / "ours.jsonl", jsonl([record(f"r{i}") for i in range(20)]))
        planted = write_lines(tmp_path / "planted.jsonl", jsonl([record("planted")]))
        ingest_corpus(planted)
        (entry,) = cached.iterdir()
        entry.rename(corpus._cache_key(ours))  # a valid entry, under our file's key
        cached.chmod(mode)
        assert ingest_corpus(ours) == serial_ingest(ours)
        assert len(entries(cached)) == 1  # and nothing written there
        cached.chmod(0o700)
        assert [r.item_id for r in ingest_corpus(ours)[0]] == ["planted"]

    def test_chapters_share_their_book_id_across_frames(self, tmp_path, split_calls, monkeypatch):
        monkeypatch.setattr(corpus, "_CHUNK_LINES", 2)
        recs = [record(f"r{i:02d}") for i in range(20)]
        recs[7] = record("r07", doc_type="chapter", parent_book_id="r02")
        path = write_lines(tmp_path / "corpus.jsonl", jsonl(recs))
        records, _ = ingest_corpus(path)
        assert split_calls[0] is not None
        assert records[7].parent_book_id == records[2].item_id  # the worker's half, two frames on


def validate_corpus(kind: str, bundle, directory: Path) -> Path:
    """A corpus of the given kind, built from a generated bundle's lines."""
    lines = bundle.corpus_path.read_text(encoding="utf-8").splitlines()
    path = directory / f"{kind}.jsonl"
    if kind == "dirty":  # the benchmark's seeded faults
        workloads = importlib.import_module("workloads")
        log = directory / "log.json"
        expected = workloads.inject_faults(bundle.corpus_path, path, log, 3, bundle.ledger)
        assert expected["malformed"] > 0
        return path
    if kind == "empty":
        lines = []

    elif kind.startswith("duplicate"):  # a first-half id again, in the second half or right after
        across = kind != "duplicate in a half"
        again = json.loads(lines[len(lines) - 10 if across else 4])
        again["id"] = json.loads(lines[3])["id"]
        lines.insert(len(lines) - 5 if across else 5, json.dumps(again))
    if kind in ("unresolved in both halves", "duplicate and unresolved"):
        if kind == "unresolved in both halves":
            lines.insert(len(lines) - 5, json.dumps(record("x-late", publisher="Nowhere Press B")))
        lines.insert(5, json.dumps(record("x-early", publisher="Nowhere Press A")))
    return write_lines(path, lines)


class TestValidatePaths:
    """`validate` prints the same bytes, and exits with the same code, on
    every ingest path: the serial loop, the split, a split that writes the
    cache, and a cache hit. Chunks of 8 lines make each fold span many."""

    @pytest.fixture
    def bundle(self, tmp_path):
        return generate_corpus(
            SynthParams(seed=3, publisher_count=8, items_per_publisher=(25, 45)),
            load_taxonomy(sample_taxonomy_path()),
            tmp_path / "bundle",
        )

    @pytest.mark.parametrize("kind", ["clean", "dirty", "empty", "duplicate across halves",
                                      "duplicate in a half", "unresolved in both halves",
                                      "a failing worker"])
    def test_every_path_prints_the_serial_report(self, kind, bundle, tmp_path, split_calls,
                                                  ingest_cache, monkeypatch, capsys):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        path = validate_corpus(kind, bundle, tmp_path)
        argv = ["validate", "--corpus", str(path), "--registry-dir", str(bundle.registry_dir),
                "--taxonomy", str(bundle.taxonomy_path)]
        if kind == "unresolved in both halves":
            argv.append("--strict")
        if kind == "a failing worker":  # a clean corpus; the worker sends its frames, then exits 1
            send = corpus._send_chunks

            def send_then_fail(path, end, out):
                send(path, end, out)
                out.flush()
                os._exit(1)

            monkeypatch.setattr(corpus, "_send_chunks", send_then_fail)
        monkeypatch.setattr(corpus, "_CHUNK_LINES", 8)

        def validate():
            code = run_cli(argv)
            return (code, *capsys.readouterr())

        outputs = every_path(validate, monkeypatch, ingest_cache)
        serial = outputs[0]
        assert outputs == [serial] * 4
        code, out, err = serial
        if kind.startswith("duplicate"):
            assert code == 2 and out == "" and err.startswith("error: duplicate item_id ")
            assert " on lines 4 and " in err  # the first copy's line, whatever the path
            assert split_calls == [None] * 3 and entries(ingest_cache) == []  # no hit: a parse each time
        elif kind == "a failing worker":
            assert code == 0 and err == "" and "validation ok" in out
            assert split_calls == [None] * 3 and entries(ingest_cache) == []
        elif kind == "unresolved in both halves":
            assert code == 2 and "nowhere press a" in err and "nowhere press b" not in err
            assert len(split_calls) == 2 and None not in split_calls
        else:
            assert code == (1 if kind == "dirty" else 0) and err == ""
            assert len(split_calls) == (0 if kind == "empty" else 2) and None not in split_calls
            assert len(entries(ingest_cache)) == 1


def every_path(run, monkeypatch, cache_dir: Path) -> list:
    """What `run()` gives on the serial loop, a split that writes no cache
    entry, a split that writes one, and a hit of that entry, if there is
    one; the split runs wherever the caller allows it."""
    outputs = []
    with mock.patch.object(corpus, "_SPLIT_MIN_BYTES", 1 << 62):
        outputs.append(run())  # serial, and never cached
    with mock.patch.object(corpus, "_cache_key", lambda source: None):
        outputs.append(run())  # split, and not cached
    outputs.append(run())  # split, and written to the cache
    if entries(cache_dir):
        no_parse(monkeypatch)
    outputs.append(run())  # a hit, when the parse wrote an entry
    return outputs


class TestRankPaths:
    """`rank` gives the serial result or error on every ingest path: a
    duplicate id's two serial line numbers, strict mode's first unresolved
    name in input order, the duplicate when a corpus holds both faults, and
    the serial tables after a failed split. Chunks of 8 lines make each
    pass span many."""

    @pytest.mark.parametrize("kind", ["duplicate across halves", "duplicate in a half",
                                      "unresolved in both halves", "duplicate and unresolved"])
    def test_every_path_gives_the_serial_error(self, kind, tmp_path, split_calls, ingest_cache,
                                               monkeypatch, capsys):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        bundle = generate_corpus(SynthParams(seed=3, publisher_count=8, items_per_publisher=(25, 45)),
                                 load_taxonomy(sample_taxonomy_path()), tmp_path / "bundle")
        path = validate_corpus(kind, bundle, tmp_path)
        argv = ["rank", "--corpus", str(path), "--registry-dir", str(bundle.registry_dir),
                "--taxonomy", str(bundle.taxonomy_path), "--out", str(tmp_path / "out"),
                "--format", "csv,json,html", "--strict"]
        monkeypatch.setattr(corpus, "_CHUNK_LINES", 8)

        def rank():
            code = run_cli(argv)
            return (code, *capsys.readouterr())

        outputs = every_path(rank, monkeypatch, ingest_cache)
        lines = path.read_text(encoding="utf-8").splitlines()
        if kind.startswith("duplicate"):
            item_id = json.loads(lines[3])["id"]
            second = 1 + next(n for n in range(4, len(lines)) if json.loads(lines[n])["id"] == item_id)
            expected = f"error: duplicate item_id {item_id!r} on lines 4 and {second}\n"
        else:
            expected = "error: unresolved publisher string 'nowhere press a'\n"
        assert outputs == [(2, "", expected)] * 4
        assert not (tmp_path / "out").exists()

    def test_a_failed_split_is_walked_afresh(self, tmp_path, split_calls, monkeypatch):
        """The worker sends its frames, which the walk and the fingerprint
        take, then exits 1: the serial loop's chunks are walked and hashed
        afresh, and the tree is the serial one."""
        bundle = generate_corpus(SynthParams(seed=3, publisher_count=8, items_per_publisher=(25, 45)),
                                 load_taxonomy(sample_taxonomy_path()), tmp_path / "bundle")
        monkeypatch.setattr(corpus, "_CHUNK_LINES", 8)

        def rank(name):
            out = tmp_path / name
            config = RunConfig(corpus=bundle.corpus_path, registry_dir=bundle.registry_dir,
                               taxonomy=bundle.taxonomy_path, out=out, formats=("csv", "json"))
            result, _ = run_rank(config)
            return (result.ingested, result.filtered, result.resolved, len(result.diagnostics),
                    {p.name: p.read_bytes() for p in out.iterdir()})

        with mock.patch.object(corpus, "_SPLIT_MIN_BYTES", 1 << 62):
            serial = rank("serial")
        send = corpus._send_chunks

        def send_then_fail(path, end, out):
            send(path, end, out)
            out.flush()
            os._exit(1)

        monkeypatch.setattr(corpus, "_send_chunks", send_then_fail)
        assert rank("failed split") == serial
        assert split_calls == [None] and serial[0] > 0  # and hashed in order: no second read


def fingerprint_corpus(ids) -> list[dict]:
    """Records of the given ids, in their order: books, edited or not, and
    chapters of the books before them, over two publishers."""
    records = []
    for n, item_id in enumerate(ids):
        fields = {"publisher": ("Springer", "Routledge")[n % 2], "year": 2009 + n % 5,
                  "citations": n % 4, "categories": [("History", "Law")[n % 2]]}
        if n % 3 == 2:
            records.append(record(item_id, doc_type="chapter", parent_book_id=ids[n - 1], **fields))
        else:
            records.append(record(item_id, edited=n % 2 == 0, **fields))
    return records


class TestStreamedFingerprint:
    """`rank` writes the fingerprint of the joined resolved list, as
    corpus_fingerprint and the sorted-key reference give it, on every
    ingest path and whatever the order of the ids: hashed as the chunks
    pass, held for the split's second part until the first part ends, or
    read again when a key comes out of order. Chunks of 3 lines put keys
    on each side of every chunk boundary and of the split."""

    @pytest.mark.parametrize("ids", [
        [f"r{n:02d}" for n in range(40)],
        random.Random(11).sample([f"r{n:02d}" for n in range(40)], 40),
        sorted(f"a{'0' * (n % 4)}{n // 4 or ''}" for n in range(40)),  # many ids prefix others
        [f"r{n:02d}" + ("\x01" if n == 30 else "") for n in range(40)],
    ], ids=["in id order", "shuffled", "prefixes", "a control character"])
    def test_every_path_writes_the_joined_lists_digest(self, ids, tmp_path, registry, split_calls,
                                                        ingest_cache, monkeypatch):
        records = fingerprint_corpus(ids)
        joined, _, _ = ingest_and_resolve(records, registry)
        expected = reference_fingerprint(joined.items, joined.publisher_ids)
        assert corpus_fingerprint(joined) == expected
        path = write_lines(tmp_path / "corpus.jsonl", jsonl(records))
        monkeypatch.setattr(corpus, "_CHUNK_LINES", 3)
        config = RunConfig(corpus=path, registry_dir=sample_registry_dir(), taxonomy=sample_taxonomy_path(),
                           out=tmp_path / "out", formats=("json",))

        def rank():
            run_rank(config)
            written = {json.loads(p.read_text(encoding="utf-8"))["corpus_fingerprint"]
                       for p in config.out.glob("*.json")}
            return written

        assert every_path(rank, monkeypatch, ingest_cache) == [{expected}] * 4
        # keys out of order are read again: a second split where nothing is cached
        assert len(split_calls) == (2 if corpus._keys_in_order(joined.items) else 3)
        assert None not in split_calls


class TestFilter:
    def test_empty_window_fatal(self, registry):
        with pytest.raises(CorpusError):
            filter_corpus([], registry, window=(2013, 2009))

    def test_serial_flag_removed(self, registry):
        records, _ = ingest_corpus(jsonl([record("a", serial=True), record("b")]))
        kept = filter_corpus(records, registry)
        assert [i.item_id for i in kept] == ["b"]

    def test_excluded_publisher_removed_through_resolution(self, registry):
        records, _ = ingest_corpus(
            jsonl(
                [
                    record("a", publisher="Annual Reviews"),
                    record("b", publisher="ANNUAL  reviews"),
                    record("c", publisher="Annual Reviews Inc"),
                    record("d", publisher="Springer"),
                ]
            )
        )
        kept = filter_corpus(records, registry)
        assert [i.item_id for i in kept] == ["d"]

    def test_excluded_publishers_given_by_registry_id(self, registry, monkeypatch):
        records, _ = ingest_corpus(
            jsonl(
                [
                    record("a", publisher="Springer-Verlag"),
                    record("b", publisher="Routledge"),
                    record("c", publisher="CRC Press"),
                    record("d", publisher="AK Peters"),
                ]
            )
        )
        monkeypatch.setattr(corpus, "DEFAULT_EXCLUDED_PUBLISHERS", ("springer", "no-such-house"))
        kept = filter_corpus(records, registry)
        assert [i.item_id for i in kept] == ["b", "c", "d"]
        # "ak-peters" is an id and no name form; it excludes its terminal owner
        monkeypatch.setattr(corpus, "DEFAULT_EXCLUDED_PUBLISHERS", ("ak-peters",))
        kept = filter_corpus(records, registry)
        assert [i.item_id for i in kept] == ["a", "b"]

    def test_window_boundaries(self, registry):
        records, _ = ingest_corpus(
            jsonl([record(str(y), year=y) for y in (2008, 2009, 2013, 2014)])
        )
        kept = filter_corpus(records, registry, window=(2009, 2013))
        assert [i.item_id for i in kept] == ["2009", "2013"]

    def test_other_doc_types_removed(self, registry):
        records, _ = ingest_corpus(
            jsonl(
                [
                    record("a", doc_type="journal article"),
                    record("b", doc_type="chapter", parent_book_id="x"),
                    record("c"),
                ]
            )
        )
        kept = filter_corpus(records, registry)
        assert [i.item_id for i in kept] == ["b", "c"]

    def test_filter_is_idempotent_and_order_preserving(self, registry):
        records, _ = ingest_corpus(
            jsonl(
                [record(f"r{i}", year=2008 + (i % 7), serial=(i % 5 == 0)) for i in range(40)]
            )
        )
        once = filter_corpus(records, registry)
        twice = filter_corpus(once, registry)
        assert once == twice
        positions = [records.index(i) for i in once]
        assert positions == sorted(positions)


class TestResolve:
    def test_strict_unresolved_is_fatal(self, registry):
        records, _ = ingest_corpus(jsonl([record("a", publisher="Mystery House")]))
        with pytest.raises(UnresolvedPublisherError) as err:
            resolve_corpus(records, registry, strict=True)
        assert err.value.folded == "mystery house"

    def test_strict_names_the_first_unresolved_string_in_input_order(self, registry):
        records, _ = ingest_corpus(
            jsonl([record("z", publisher="Mystery House"), record("a", publisher="Other Press")])
        )
        with pytest.raises(UnresolvedPublisherError) as err:
            resolve_corpus(records, registry, strict=True)
        assert err.value.folded == "mystery house"

    def test_items_keep_input_order(self, registry):
        records, _ = ingest_corpus(
            jsonl([record("c", publisher="Pergamon"), record("a", publisher="Nowhere Books"),
                   record("b", publisher="Willan Publ"), record("a2", publisher="AK Peters")])
        )
        corpus, _ = resolve_corpus(records, registry, strict=False)
        assert [i.item_id for i in corpus.items] == ["c", "b", "a2"]
        assert corpus.publisher_ids == ("elsevier", "taylor-francis", "crc-press")

    def test_lenient_reports_exact_folded_set(self, registry):
        records, _ = ingest_corpus(
            jsonl(
                [
                    record("a", publisher="Mystery  House"),
                    record("b", publisher="MYSTERY HOUSE"),
                    record("c", publisher="Other Unknown"),
                    record("d", publisher="Springer"),
                ]
            )
        )
        corpus, unresolved = resolve_corpus(records, registry, strict=False)
        assert unresolved == {"mystery house", "other unknown"}
        assert [i.item_id for i in corpus.items] == ["d"]

    def test_acquired_and_variant_raws_map_to_terminal_ids(self, registry):
        records, _ = ingest_corpus(
            jsonl(
                [
                    record("a", publisher="Pergamon"),
                    record("b", publisher="AK Peters", year=2009),
                    record("c", publisher="Willan Publ"),
                ]
            )
        )
        corpus, _ = resolve_corpus(records, registry)
        assert corpus.publisher_ids == ("elsevier", "crc-press", "taylor-francis")

    def test_fingerprint_is_order_insensitive(self, registry):
        records, _ = ingest_corpus(jsonl([record(f"r{i}", citations=i) for i in range(20)]))
        shuffled = records[:]
        random.Random(3).shuffle(shuffled)
        a, _ = resolve_corpus(records, registry)
        b, _ = resolve_corpus(shuffled, registry)
        assert corpus_fingerprint(a) == corpus_fingerprint(b)

    def test_fingerprint_sees_content_changes(self, registry):
        base = [record("r1", citations=1), record("r2", citations=2)]
        changed = [record("r1", citations=1), record("r2", citations=3)]
        a, _, _ = ingest_and_resolve(base, registry)
        b, _, _ = ingest_and_resolve(changed, registry)
        assert corpus_fingerprint(a) != corpus_fingerprint(b)

    def test_fingerprint_function_matches_resolve(self, registry):
        records, _ = ingest_corpus(jsonl([record("r1"), record("r2")]))
        corpus, _ = resolve_corpus(records, registry)
        assert corpus_fingerprint(corpus) == reference_fingerprint(
            corpus.items, corpus.publisher_ids
        )


_DIGEST_BATCH = 4096  # the reference's own batch, which does not change the digest


def reference_fingerprint(items, publisher_ids) -> str:
    """The fingerprint by its definition: every record key built into one
    list, sorted and hashed."""
    keys = sorted(
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
    digest = hashlib.sha256()
    for start in range(0, len(keys), _DIGEST_BATCH):
        digest.update(("\n".join(keys[start : start + _DIGEST_BATCH]) + "\n").encode("utf-8"))
    return digest.hexdigest()


def fingerprint_item(item_id, edited=None, parent=None, citations=0):
    doc_type = "book" if parent is None else "chapter"
    return ItemRecord(item_id, doc_type, "Springer", 2010, ("History", "Law"), citations,
                      parent_book_id=parent, book_is_edited=edited)


def fingerprints(items):
    pids = tuple(f"p{i % 3}" for i in range(len(items)))
    return corpus_fingerprint(ResolvedCorpus(items, pids)), reference_fingerprint(items, pids)


class TestFingerprint:
    """The streamed fingerprint against the sorted-key reference."""

    @pytest.mark.parametrize("ids", [
        ["a", "a\x1f", "a\x1fb", "b"],  # in order, with the key separator
        ["a", "a\x01b"],  # a prefix, then the prefix and a control character
        ["\x01", "a", "a\x01", "b\n"],
        ["", "a"],
        ["a", "b", "b"],  # equal ids sort by the rest of the key
    ])
    def test_control_characters_and_prefixes(self, ids):
        items = tuple(fingerprint_item(i, edited=n % 2 == 0, citations=n) for n, i in enumerate(ids))
        new, reference = fingerprints(items)
        assert new == reference

    def test_items_out_of_id_order(self):
        items = tuple(fingerprint_item(f"i{n:03d}", citations=n) for n in range(50))[::-1]
        corpus = ResolvedCorpus(items, tuple(f"p{n % 3}" for n in range(50)))
        digest = corpus_fingerprint(corpus)
        assert digest == reference_fingerprint(corpus.items, corpus.publisher_ids)
        assert digest == corpus_fingerprint(ResolvedCorpus(items[::-1], corpus.publisher_ids[::-1]))

    @settings(max_examples=200, deadline=None)
    @given(
        ids=st.lists(st.text(st.sampled_from("ab\x00\x01\x1f\x20,\n\u00e9\U0001f600"), max_size=4),
                     max_size=12),
        order=st.sampled_from(["sorted", "as drawn"]),
    )
    def test_equals_the_reference_on_any_ids(self, ids, order):
        if order == "sorted":
            ids = sorted(set(ids))
        items = tuple(
            fingerprint_item(i, parent=None if n % 3 else "a", edited=(None, True, False)[n % 3],
                             citations=n)
            for n, i in enumerate(ids)
        )
        new, reference = fingerprints(items)
        assert new == reference

    def test_streams_without_a_key_list(self):
        items = tuple(
            fingerprint_item(f"itm-{n:06d}", edited=n % 2 == 1, citations=n % 7) for n in range(20_000)
        )
        peaks = []
        for fingerprint in (lambda *corpus: corpus_fingerprint(ResolvedCorpus(*corpus)),
                            reference_fingerprint):
            tracemalloc.start()
            try:
                fingerprint(items, ("publisher",) * len(items))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        streamed, sorted_keys = peaks
        assert streamed < sorted_keys / 3, peaks


class TestKeyDigest:
    """The streamed fingerprint of chunks fed as a pass gives them."""

    ITEMS = tuple(fingerprint_item(f"i{n:02d}", edited=n % 2 == 0, citations=n) for n in range(12))
    PIDS = tuple(f"p{n % 3}" for n in range(12))

    def fed(self, *chunks) -> str | None:
        """The digest of (part, start, end) slices of ITEMS, fed in turn."""
        keys = corpus.KeyDigest()
        for part, start, end in chunks:
            keys.add(part, self.ITEMS[start:end], self.PIDS[start:end])
        return keys.hexdigest()

    def test_part_order_and_a_split_parses_order_give_the_digest(self):
        expected = corpus_fingerprint(ResolvedCorpus(self.ITEMS, self.PIDS))
        assert expected == reference_fingerprint(self.ITEMS, self.PIDS)
        assert self.fed((0, 0, 4), (0, 4, 7), (1, 7, 12)) == expected  # serial, or a hit
        assert self.fed((1, 7, 9), (0, 0, 4), (1, 9, 12), (0, 4, 7)) == expected  # a split parse
        assert self.fed((1, 0, 0), (0, 0, 0), (0, 0, 12)) == expected  # empty chunks add nothing

    def test_keys_out_of_order_give_no_digest(self):
        assert self.fed((0, 0, 4), (0, 3, 6)) is None  # a repeated id, across chunks
        assert self.fed((0, 6, 12), (0, 0, 6)) is None  # sorted chunks, out of order
        assert self.fed((1, 0, 6), (0, 6, 9), (1, 6, 9)) is None  # part 1 behind itself
        assert self.fed((1, 0, 3), (0, 6, 9), (1, 3, 6), (0, 9, 12)) is None  # part 1 below part 0

    def test_digest_of_a_shuffled_chunk_is_none(self):
        shuffled = self.ITEMS[::-1]
        keys = corpus.KeyDigest()
        keys.add(0, shuffled, self.PIDS)
        assert keys.hexdigest() is None


def test_orphan_chapters(tmp_path, monkeypatch):
    """A chapter whose book is not in the corpus is an orphan; one that
    comes before its book, in an earlier chunk, is not."""
    monkeypatch.setattr(corpus, "_CHUNK_LINES", 2)
    records = [
        record("c0", doc_type="chapter", parent_book_id="b3"),
        record("b1", edited=True),
        record("b2", edited=False),
        record("b3"),
        record("c1", doc_type="chapter", parent_book_id="b1"),
        record("c2", doc_type="chapter", parent_book_id="gone"),
    ]
    orphans = []
    for kept in (records, records[:-1]):  # and without c2, none
        config = RunConfig(corpus=write_lines(tmp_path / "corpus.jsonl", jsonl(kept)),
                           registry_dir=sample_registry_dir(), taxonomy=sample_taxonomy_path())
        orphans.append(run_validate(config).orphan_chapters)
    assert orphans == [1, 0]


class TestStats:
    def test_book_citation_average(self, registry, taxonomy):
        corpus, _, _ = ingest_and_resolve(
            [record("b1", citations=4), record("b2", citations=2)], registry
        )
        stats = corpus_stats(compute_baselines(corpus, taxonomy), registry, taxonomy)
        assert stats.total.books == 2
        assert stats.total.book_citation_avg == 3.0
        assert stats.total.chapter_citation_avg is None

    def test_publisher_type_split(self, registry, taxonomy):
        corpus, _, _ = ingest_and_resolve(
            [
                record("b1", publisher="Springer"),
                record("b2", publisher="Cambridge University Press"),
            ],
            registry,
        )
        stats = corpus_stats(compute_baselines(corpus, taxonomy), registry, taxonomy)
        fs = stats.per_field["Humanities & Arts"]
        assert fs.commercial_publishers == 1
        assert fs.university_publishers == 1
        assert fs.publishers == 2

    def test_unresolved_is_fatal_for_stats(self, registry, taxonomy):
        # stats take a resolved corpus; in strict mode resolution refuses
        # the unresolvable name before any stats exist
        with pytest.raises(UnresolvedPublisherError) as err:
            ingest_and_resolve([record("b1", publisher="Mystery House")], registry, strict=True)
        assert err.value.folded == "mystery house"

    def test_stats_deterministic(self, registry, taxonomy):
        recs = [record(f"r{i}", citations=i % 4) for i in range(25)]
        corpus, _, _ = ingest_and_resolve(recs, registry)
        again, _, _ = ingest_and_resolve(recs, registry)
        assert corpus_stats(compute_baselines(corpus, taxonomy), registry, taxonomy) == corpus_stats(
            compute_baselines(again, taxonomy), registry, taxonomy
        )

    def test_unknown_categories_surface(self, registry, taxonomy):
        corpus, _, _ = ingest_and_resolve([record("b1", categories=["Phrenology"])], registry)
        stats = corpus_stats(compute_baselines(corpus, taxonomy), registry, taxonomy)
        assert stats.unknown_categories == ("Phrenology",)
