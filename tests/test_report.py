import csv
import dataclasses
import io
import json
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from pubrank import corpus as corpus_module, ranking as ranking_module, report as report_module
from pubrank.corpus import ingest_chunks, ingest_corpus, resolve_corpus
from pubrank.errors import ConfigError, CorpusError, ExportError, UnresolvedPublisherError
from pubrank.indicators import IndicatorRow, Scope, compute_baselines
from pubrank.ranking import (
    PublisherProfile,
    RankingTable,
    RunMeta,
    ThresholdPolicy,
    build_all_rankings,
)
from pubrank.report import (
    CSV_HEADER,
    FORMATS,
    RANKING_COLUMNS,
    RunConfig,
    _indicator_cells,
    _ranking_json,
    export_all_rankings,
    export_profile,
    export_ranking,
    run_pipeline,
    run_profile,
    run_rank,
    run_stats,
    run_validate,
    scope_slug,
    table_filename,
)
from pubrank.samples import sample_registry_dir, sample_taxonomy_path
from pubrank.registry import CanonicalPublisher, NameVariant, load_registry_dir
from pubrank.taxonomy import load_taxonomy
from pubrank.testkit import SynthParams, generate_corpus
from util import jsonl, pipeline_artifacts, ranking_table, record, write_jsonl, write_registry

HIST = Scope("discipline", "History")
OPEN = ThresholdPolicy(min_books=1, min_chapters=1)


@pytest.fixture
def history_table(registry, taxonomy):
    """Two single-book publishers in one baseline cell (History, book, 2010):
    citations 4 and 2, cell mean 3, so fncs are 4/3 and 2/3."""
    corpus, baselines = pipeline_artifacts(
        [
            record("s1", publisher="Springer", citations=4),
            record("r1", publisher="Routledge", citations=2),
        ],
        registry,
        taxonomy,
    )
    return ranking_table(HIST, registry, taxonomy, baselines, OPEN)


class TestSlugs:
    @pytest.mark.parametrize(
        "name,slug",
        [
            ("History", "history"),
            ("Humanities & Arts", "humanities---arts"),
            (
                "Information Science & Library Science",
                "information-science---library-science",
            ),
            ("Business, Finance", "business--finance"),
        ],
    )
    def test_scope_slug(self, name, slug):
        assert scope_slug(name) == slug

    def test_table_filename(self, history_table):
        assert table_filename(history_table, "csv") == "discipline_history.csv"
        assert table_filename(history_table, "html") == "discipline_history.html"


class TestCsvExport:
    def test_rows_ranked_and_formatted(self, history_table, tmp_path):
        path = export_ranking(history_table, "csv", tmp_path)
        assert path.name == "discipline_history.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        # Tie on pbk=1: alphabetical, Routledge first.
        assert lines == [
            CSV_HEADER,
            "1,Routledge,commercial,1,0,2,0.67,1.00,0",
            "2,Springer,commercial,1,0,4,1.33,1.00,0",
        ]

    def test_empty_table_is_header_only(self, registry, taxonomy, tmp_path):
        corpus, baselines = pipeline_artifacts([record("b1")], registry, taxonomy)
        table = ranking_table(
            Scope("discipline", "Law"), registry, taxonomy, baselines, OPEN
        )
        path = export_ranking(table, "csv", tmp_path)
        assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"

    def test_comma_in_name_is_quoted(self, tmp_path, taxonomy):
        registry = load_registry_dir(
            write_registry(
                tmp_path / "reg",
                publishers=[("smith-jones", "Smith, Jones & Co", "commercial")],
            )
        )
        corpus, baselines = pipeline_artifacts(
            [record("b1", publisher="Smith, Jones & Co")], registry, taxonomy
        )
        table = ranking_table(HIST, registry, taxonomy, baselines, OPEN)
        text = export_ranking(table, "csv", tmp_path).read_text(encoding="utf-8")
        assert '1,"Smith, Jones & Co",commercial' in text
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == CSV_HEADER.split(",")
        assert parsed[1][1] == "Smith, Jones & Co"


    def test_line_breaks_in_names_are_quoted(self, tmp_path, taxonomy):
        names = ["Line\nBreak Press", "Carriage\rReturn House", "Plain Press"]
        registry_dir = write_registry(tmp_path / "reg", publishers=[])
        # written by hand: csv.writer(lineterminator="\n") leaves a CR unquoted
        (registry_dir / "publishers.csv").write_text(
            "id,name,type,website\n"
            + "".join(f'p{i},"{name}",commercial,\n' for i, name in enumerate(names)),
            encoding="utf-8",
            newline="",
        )
        registry = load_registry_dir(registry_dir)
        records = [
            record(f"b{i}", publisher=" ".join(name.split())) for i, name in enumerate(names)
        ]
        corpus, baselines = pipeline_artifacts(records, registry, taxonomy)
        table = ranking_table(HIST, registry, taxonomy, baselines, OPEN)
        with export_ranking(table, "csv", tmp_path).open(newline="", encoding="utf-8") as fh:
            parsed = list(csv.reader(fh))
        assert len(parsed) == 1 + len(names)
        assert sorted(row[1] for row in parsed[1:]) == sorted(names)


class TestJsonExport:
    def test_payload_round_trips_full_precision(self, history_table, tmp_path):
        path = export_ranking(history_table, "json", tmp_path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["scope"] == {"kind": "discipline", "name": "History"}
        assert payload["corpus_fingerprint"] == history_table.meta.corpus_fingerprint
        assert payload["policy"] == {"min_books": 1, "min_chapters": 1, "basis": "scope"}
        assert payload["sort_key"] == "pbk"
        assert payload["type_filter"] is None
        assert [row["rank"] for row in payload["rows"]] == [1, 2]
        for row, entry in zip(payload["rows"], history_table.entries):
            assert row["publisher_id"] == entry.publisher_id
            assert row["pbk"] == entry.pbk
            assert row["pch"] == entry.pch
            assert row["cit"] == entry.cit
            # bit-exact: JSON carries full float precision, not the 2dp display
            assert row["fncs"] == entry.fncs
            assert row["ai"] == entry.ai
            assert row["ed"] == entry.ed


# names that exercise every escape json.dumps makes: non-ASCII, quotes,
# backslashes, control characters, astral-plane characters
_TRICKY_TEXT = st.sampled_from(
    ["", "Presses de l'Universit\u00e9", 'say "hi"', "back\\slash", "tab\tnul\x00\x1f\x7f",
     "line\nbreak\r", "\U0001f4da Books", "\u2028\u2029", "\ud800"]
)
_TEXT = _TRICKY_TEXT | st.text(max_size=12)
_FLOATS = st.sampled_from([0.0, 5e-324, 1e16, 0.1, 1 / 3, 1e-7, 1.5e300]) | st.floats(
    allow_nan=False, allow_infinity=False
)
_COUNTS = st.integers(min_value=0, max_value=10**20)


@st.composite
def ranking_tables(draw):
    scope = Scope(draw(st.sampled_from(["field", "discipline"])), draw(_TEXT))
    entries = []
    publishers = {}
    for pid in draw(st.lists(_TEXT, max_size=4, unique=True)):  # a registry's ids are unique
        publishers[pid] = CanonicalPublisher(pid, draw(_TEXT), draw(_TEXT))
        entries.append(IndicatorRow(pid, scope, draw(_COUNTS), draw(_COUNTS), draw(_COUNTS),
                                    draw(_FLOATS), draw(_FLOATS), draw(_FLOATS)))
    basis = draw(st.sampled_from(["scope", "global"]))
    policy = ThresholdPolicy(draw(_COUNTS), draw(_COUNTS), basis)
    window = (draw(st.integers(1900, 2100)), draw(st.integers(1900, 2100)))
    meta = RunMeta(draw(_TEXT), window, policy, type_filter=draw(st.none() | _TEXT))
    return RankingTable(scope=scope, entries=tuple(entries), meta=meta, publishers=publishers)


def _json_payload(table: RankingTable) -> dict:
    """The ranking JSON document as plain data, stated apart from the
    writer: `_ranking_json`'s parts must join to exactly
    `json.dumps(_json_payload(table), indent=2) + "\\n"`."""
    meta = table.meta
    rows = []
    for rank, row in enumerate(table.entries, start=1):
        pub = table.publishers[row.publisher_id]
        rows.append({"rank": rank, "publisher_id": row.publisher_id, "publisher": pub.name,
                     "type": pub.publisher_type, "pbk": row.pbk, "pch": row.pch, "cit": row.cit,
                     "fncs": row.fncs, "ai": row.ai, "ed": row.ed})
    return {
        "scope": {"kind": table.scope.kind, "name": table.scope.name},
        "corpus_fingerprint": meta.corpus_fingerprint,
        "window": list(meta.window),
        "policy": {"min_books": meta.policy.min_books, "min_chapters": meta.policy.min_chapters,
                   "basis": meta.policy.basis},
        "sort_key": "pbk",
        "type_filter": meta.type_filter,
        "rows": rows,
    }


class TestJsonWriter:
    """The ranking JSON writer renders rows from a template; it must give
    exactly what json.dumps gives for the same document."""

    @settings(max_examples=300, deadline=None)
    @given(table=ranking_tables())
    def test_matches_json_dumps(self, table):
        assert "".join(_ranking_json(table)) == json.dumps(_json_payload(table), indent=2) + "\n"

    @pytest.mark.parametrize("type_filter", [None, "university_press"])
    def test_empty_table(self, type_filter):
        meta = RunMeta("f" * 64, (2009, 2013), OPEN, type_filter=type_filter)
        table = RankingTable(scope=HIST, entries=(), meta=meta, publishers={})
        text = "".join(_ranking_json(table))
        assert text == json.dumps(_json_payload(table), indent=2) + "\n"
        assert text.endswith('  "rows": []\n}\n')


class TestHtmlExport:
    def test_table_cells_match_csv_formatting(self, history_table, tmp_path):
        text = export_ranking(history_table, "html", tmp_path).read_text(encoding="utf-8")
        assert "<title>Discipline: History</title>" in text
        assert "<td>Routledge</td>" in text
        assert "<td>1.33</td>" in text
        assert "<td>0.67</td>" in text
        assert "<td>0%</td>" in text

    def test_names_are_escaped(self, tmp_path, taxonomy):
        registry = load_registry_dir(
            write_registry(
                tmp_path / "reg",
                publishers=[("tag", "Angle <Bracket> & Sons", "commercial")],
            )
        )
        corpus, baselines = pipeline_artifacts(
            [record("b1", publisher="Angle <Bracket> & Sons")], registry, taxonomy
        )
        table = ranking_table(HIST, registry, taxonomy, baselines, OPEN)
        text = export_ranking(table, "html", tmp_path).read_text(encoding="utf-8")
        assert "<td>Angle &lt;Bracket&gt; &amp; Sons</td>" in text
        assert "<td>Angle <Bracket>" not in text


_HTML_HEAD = (
    '<!DOCTYPE html>\n<html lang="en">\n'
    '<head><meta charset="utf-8"><title>{0}</title></head>\n<body>\n<h1>{0}</h1>\n'
)
_HTML_FOOT = "</body>\n</html>\n"
_RANKING_TH = (
    "<tr><th>rank</th><th>publisher</th><th>type</th><th>pbk</th><th>pch</th>"
    "<th>cit</th><th>fncs</th><th>ai</th><th>ed</th></tr>\n"
)


def _json_head(kind, name):
    return (
        f'{{\n  "scope": {{\n    "kind": "{kind}",\n    "name": "{name}"\n  }},\n'
        f'  "corpus_fingerprint": "{"f" * 64}",\n'
        '  "window": [\n    2009,\n    2013\n  ],\n'
        '  "policy": {\n    "min_books": 1,\n    "min_chapters": 1,\n    "basis": "scope"\n  },\n'
        '  "sort_key": "pbk",\n  "type_filter": null,\n'
    )


class TestWriterBytes:
    """The exact bytes every writer gives for small hand-built inputs."""

    META = RunMeta("f" * 64, (2009, 2013), OPEN)

    def written(self, obj, fmt, tmp_path):
        export = export_profile if isinstance(obj, PublisherProfile) else export_ranking
        return export(obj, fmt, tmp_path).read_text(encoding="utf-8")

    def test_empty_ranking_table(self, tmp_path):
        table = RankingTable(Scope("discipline", "Law"), (), self.META, {})
        assert self.written(table, "csv", tmp_path) == CSV_HEADER + "\n"
        # the empty row block leaves a blank line before </table>
        assert self.written(table, "html", tmp_path) == (
            _HTML_HEAD.format("Discipline: Law")
            + '<table border="1">\n' + _RANKING_TH + "\n</table>\n" + _HTML_FOOT
        )
        assert self.written(table, "json", tmp_path) == (
            _json_head("discipline", "Law") + '  "rows": []\n}\n'
        )

    def test_ranking_row_with_special_characters(self, tmp_path):
        scope = Scope("field", "Humanities & Arts")
        publisher = CanonicalPublisher("odd", 'Smith, "Jones" <&> Co', "commercial")
        row = IndicatorRow("odd", scope, 3, 7, 12, 1.23456, 0.5, 42.857142857142854)
        table = RankingTable(scope, (row,), self.META, {"odd": publisher})
        assert self.written(table, "csv", tmp_path) == (
            CSV_HEADER + '\n1,"Smith, ""Jones"" <&> Co",commercial,3,7,12,1.23,0.50,43\n'
        )
        assert self.written(table, "html", tmp_path) == (
            _HTML_HEAD.format("Field: Humanities &amp; Arts")
            + '<table border="1">\n' + _RANKING_TH
            + "<tr><td>1</td><td>Smith, &quot;Jones&quot; &lt;&amp;&gt; Co</td>"
            "<td>commercial</td><td>3</td><td>7</td><td>12</td><td>1.23</td><td>0.50</td>"
            "<td>43%</td></tr>\n</table>\n" + _HTML_FOOT
        )
        assert self.written(table, "json", tmp_path) == (
            _json_head("field", "Humanities & Arts")
            + '  "rows": [\n    {\n      "rank": 1,\n      "publisher_id": "odd",\n'
            '      "publisher": "Smith, \\"Jones\\" <&> Co",\n      "type": "commercial",\n'
            '      "pbk": 3,\n      "pch": 7,\n      "cit": 12,\n      "fncs": 1.23456,\n'
            '      "ai": 0.5,\n      "ed": 42.857142857142854\n    }\n  ]\n}\n'
        )

    def test_profile(self, tmp_path):
        publisher = CanonicalPublisher(
            "brook", "Brook & Sons", "university_press", "https://brook.example/?a=1&b=2"
        )
        variants = (
            NameVariant("Brook <Press>", "brook", None, "1 High St, Oxford"),
            NameVariant("Brook & Sons Ltd", "brook", "London", None),
        )
        rows = (
            IndicatorRow("brook", Scope("discipline", 'Law, "Civil"'), 2, 10, 5, 0.75, 1.5, 30.0),
            IndicatorRow("brook", Scope("field", "Social Sciences"), 2, 10, 5, 0.8, 1.125, 100.0),
        )
        profile = PublisherProfile(publisher, variants, rows)
        assert self.written(profile, "csv", tmp_path) == (
            "scope_kind,scope,pbk,pch,cit,fncs,ai,ed\n"
            'discipline,"Law, ""Civil""",2,10,5,0.75,1.50,30\n'
            "field,Social Sciences,2,10,5,0.80,1.12,100\n"
        )
        assert self.written(profile, "html", tmp_path) == (
            _HTML_HEAD.format("Brook &amp; Sons")
            + "<p>type: university_press | website: https://brook.example/?a=1&amp;b=2</p>\n"
            "<h2>Name variants</h2>\n"
            '<table border="1">\n<tr><th>raw</th><th>city</th><th>address</th></tr>\n'
            "<tr><td>Brook &lt;Press&gt;</td><td></td><td>1 High St, Oxford</td></tr>\n"
            "<tr><td>Brook &amp; Sons Ltd</td><td>London</td><td></td></tr>\n</table>\n"
            "<h2>Indicators by scope</h2>\n"
            '<table border="1">\n<tr><th>kind</th><th>scope</th><th>pbk</th><th>pch</th>'
            "<th>cit</th><th>fncs</th><th>ai</th><th>ed</th></tr>\n"
            "<tr><td>discipline</td><td>Law, &quot;Civil&quot;</td><td>2</td><td>10</td>"
            "<td>5</td><td>0.75</td><td>1.50</td><td>30%</td></tr>\n"
            "<tr><td>field</td><td>Social Sciences</td><td>2</td><td>10</td>"
            "<td>5</td><td>0.80</td><td>1.12</td><td>100%</td></tr>\n</table>\n"
            + _HTML_FOOT
        )


class TestExportAll:
    def test_every_scope_in_every_format(self, registry, taxonomy, tmp_path):
        corpus, baselines = pipeline_artifacts(
            [record("b1"), record("b2", categories=["Law"])], registry, taxonomy
        )
        tables = build_all_rankings(registry, taxonomy, baselines, OPEN)
        written = export_all_rankings(tables, ("csv", "json", "html"), tmp_path)
        assert len(written) == 42 * 3
        assert len(set(written)) == len(written)
        for path in written:
            assert path.exists()
        names = {p.name for p in tmp_path.iterdir()}
        assert "field_humanities---arts.csv" in names
        assert "discipline_law.json" in names
        assert "discipline_history.html" in names

    def test_csv_and_html_format_each_row_once(self, registry, taxonomy, tmp_path, monkeypatch):
        corpus, baselines = pipeline_artifacts(
            [record("b1"), record("b2", categories=["Law"])], registry, taxonomy
        )
        tables = build_all_rankings(registry, taxonomy, baselines, OPEN)
        formatted = []
        monkeypatch.setattr("pubrank.report._indicator_cells",
                            lambda row, *args: formatted.append(row) or _indicator_cells(row, *args))
        export_all_rankings(tables, ("csv", "json", "html"), tmp_path)
        assert len(formatted) == sum(len(t.entries) for t in tables) > 0

    def test_colliding_slugs_are_fatal(self, tmp_path):
        meta = RunMeta("f" * 64, (2009, 2013), OPEN)
        tables = [
            RankingTable(Scope("discipline", "Law!"), (), meta, {}),
            RankingTable(Scope("discipline", "Law?"), (), meta, {}),
        ]
        with pytest.raises(ExportError, match="collide"):
            export_all_rankings(tables, ("csv",), tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_unknown_format_is_fatal(self, history_table, tmp_path):
        with pytest.raises(ExportError):
            export_ranking(history_table, "xlsx", tmp_path)


def _long_table(n: int) -> RankingTable:
    """A table of n hand-built entries whose names need quoting and escaping."""
    scope = Scope("field", "Humanities & Arts")
    entries = []
    publishers = {}
    for i in range(n):
        publishers[f"p{i}"] = CanonicalPublisher(f"p{i}", f'Press {i}, "<&>"', "commercial")
        entries.append(IndicatorRow(f"p{i}", scope, n - i, i, 3 * i, i / 7, i / 3, 100 * i / (i + 1)))
    return RankingTable(scope, tuple(entries), TestWriterBytes.META, publishers)


class TestWritingInParts:
    """Each file's text is rendered and written in parts of at most
    `_PART_ROWS` rows, and the parts make the text a whole render gives."""

    @pytest.mark.parametrize("part_rows", [1, 2, 3])
    def test_any_part_size_writes_the_same_bytes(self, tmp_path, monkeypatch, part_rows):
        table = _long_table(7)
        publisher = CanonicalPublisher("p0", "Press <0>", "commercial", "https://p0.example")
        variants = tuple(NameVariant(f"Press {i}", "p0", city=f"City {i}") for i in range(5))
        profile = PublisherProfile(publisher, variants, table.entries)
        empty = RankingTable(Scope("discipline", "Law"), (), TestWriterBytes.META, {})

        def write_all(directory):
            paths = [export_ranking(t, fmt, directory) for t in (table, empty) for fmt in FORMATS]
            paths += [export_profile(profile, fmt, directory) for fmt in FORMATS]
            return {p.name: p.read_bytes() for p in paths}

        whole = write_all(tmp_path / "whole")  # 7 rows: each text in one part
        monkeypatch.setattr(report_module, "_PART_ROWS", part_rows)
        assert write_all(tmp_path / "parts") == whole

    def test_no_part_holds_more_rows_than_the_bound(self, monkeypatch):
        monkeypatch.setattr(report_module, "_PART_ROWS", 2)
        table = _long_table(7)
        cells = report_module._table_cells(table)
        renders = {
            '"rank"': _ranking_json(table),
            "commercial,": report_module._csv_text(RANKING_COLUMNS, cells),
            "<tr><td>": report_module._html_table(
                RANKING_COLUMNS, report_module._html_cells(cells)
            ),
        }
        for marker, parts in renders.items():
            per_part = [part.count(marker) for part in parts]
            assert sum(per_part) == 7 and max(per_part) == 2, marker

    def test_export_holds_no_whole_text(self, tmp_path):
        table = _long_table(20_000)
        cells = report_module._table_cells(table)
        for fmt in FORMATS:
            tracemalloc.start()
            try:
                path = export_ranking(table, fmt, tmp_path, cells=cells)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < path.stat().st_size / 4, (fmt, peak, path.stat().st_size)


class TestAtomicWrites:
    def test_no_temp_files_left_behind(self, history_table, tmp_path):
        export_ranking(history_table, "csv", tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["discipline_history.csv"]

    def test_blocked_destination_raises_export_error(self, history_table, tmp_path):
        (tmp_path / "discipline_history.csv").mkdir()
        with pytest.raises(ExportError, match="cannot write"):
            export_ranking(history_table, "csv", tmp_path)
        assert not (tmp_path / "discipline_history.csv.tmp").exists()

    @pytest.mark.parametrize("error,raised", [(OSError, ExportError), (KeyError, KeyError)])
    def test_a_write_failing_midway_keeps_the_old_file(self, tmp_path, error, raised):
        path = tmp_path / "field_x.csv"
        path.write_text("old\n", encoding="utf-8")

        def parts():
            yield "a first part\n"
            raise error("a failure midway")

        with pytest.raises(raised):
            report_module._atomic_write(path, parts())
        assert [p.name for p in tmp_path.iterdir()] == ["field_x.csv"]
        assert path.read_text(encoding="utf-8") == "old\n"

    def test_a_directory_at_the_temp_path_stays(self, history_table, tmp_path):
        (tmp_path / "discipline_history.csv.tmp").mkdir()
        with pytest.raises(ExportError, match="cannot write"):
            export_ranking(history_table, "csv", tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["discipline_history.csv.tmp"]
        assert (tmp_path / "discipline_history.csv.tmp").is_dir()


class TestRunConfig:
    def base(self, **kwargs):
        defaults = dict(
            corpus="corpus.jsonl",
            registry_dir=sample_registry_dir(),
            taxonomy=sample_taxonomy_path(),
        )
        defaults.update(kwargs)
        return RunConfig(**defaults)

    def test_defaults(self):
        config = self.base()
        assert config.window == (2009, 2013)
        assert config.policy() == ThresholdPolicy(5, 50, "scope")
        assert config.formats == ("csv",)

    def test_reversed_window_rejected(self):
        with pytest.raises(ConfigError, match="window"):
            self.base(window=(2014, 2009))

    def test_empty_formats_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            self.base(formats=())

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError, match="xlsx"):
            self.base(formats=("csv", "xlsx"))

    def test_repeated_format_rejected(self):
        with pytest.raises(ConfigError, match="'csv' given twice"):
            self.base(formats=("csv", "json", "csv"))

    def test_bad_basis_surfaces_via_policy(self):
        with pytest.raises(ConfigError):
            self.base(basis="weekly").policy()

    def test_unknown_type_filter_rejected(self):
        assert self.base(type_filter="university_press").type_filter == "university_press"
        with pytest.raises(ConfigError, match="comercial"):
            self.base(type_filter="comercial")

    def test_empty_out_rejected(self, tmp_path, monkeypatch):
        # Path("") is ".": run_rank and run_profile would write into the current directory
        monkeypatch.chdir(tmp_path)
        assert self.base().out is None
        with pytest.raises(ConfigError) as raised:
            self.base(out="")
        assert str(raised.value) == "out path must be non-empty"
        assert list(tmp_path.iterdir()) == []

    def test_out_must_be_or_become_a_directory(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("mine\n", encoding="utf-8")
        assert self.base(out=tmp_path / "new" / "tables").out == tmp_path / "new" / "tables"
        with pytest.raises(ConfigError) as raised:
            self.base(out=taken)
        assert str(raised.value) == f"--out {taken} is not a directory"
        with pytest.raises(ConfigError) as raised:
            self.base(out=taken / "x")
        assert str(raised.value) == f"--out {taken / 'x'} is not a directory, since {taken} is not"
        assert taken.read_text(encoding="utf-8") == "mine\n"


@pytest.fixture
def run_inputs(tmp_path):
    """A small on-disk corpus against the bundled registry and taxonomy."""
    corpus = write_jsonl(
        tmp_path / "corpus.jsonl",
        [
            record("s1", publisher="Springer", citations=4),
            record("s2", publisher="Springer", citations=0, edited=True),
            record("sc1", doc_type="chapter", publisher="Springer", parent_book_id="s2"),
            record("e1", publisher="Pergamon", categories=["Law"], citations=2),
            record("x1", publisher="Annual Reviews"),  # excluded by default
        ],
    )
    return RunConfig(
        corpus=corpus,
        registry_dir=sample_registry_dir(),
        taxonomy=sample_taxonomy_path(),
        out=tmp_path / "out",
        min_books=1,
        min_chapters=1,
        formats=("csv", "json"),
    )


class TestRunPipeline:
    def test_counts_and_tables(self, run_inputs):
        result = run_pipeline(run_inputs)
        assert result.ingested == 5
        assert result.filtered == 4  # Annual Reviews dropped
        assert result.resolved == 4
        assert result.diagnostics == []
        assert result.unresolved == set()
        assert len(result.tables) == 42
        assert {"springer", "elsevier"} <= {
            pid for t in result.tables for pid in t.publisher_ids()
        }

    def test_corpus_is_released_before_the_tables(self, run_inputs, monkeypatch):
        passes = []  # each read of the corpus, the walk's and any the fingerprint makes

        def baselines(corpus, taxonomy):
            read = corpus.chunks

            def chunks():
                generator = read()
                passes.append(weakref.ref(generator))
                return generator

            corpus.chunks = chunks
            return compute_baselines(corpus, taxonomy)

        def rankings(*args, **kwargs):
            assert passes and all(p() is None for p in passes)
            return build_all_rankings(*args, **kwargs)

        monkeypatch.setattr(report_module, "compute_baselines", baselines)
        monkeypatch.setattr(report_module, "build_all_rankings", rankings)
        assert len(run_pipeline(run_inputs).tables) == 42

    def test_nothing_else_holds_the_walks_table_once_the_rows_are_made(self, run_inputs, monkeypatch):
        made, held = [], []
        ranked = ranking_module._ranked

        def baselines(corpus, taxonomy):
            made.append(compute_baselines(corpus, taxonomy))
            return made[0]

        def first_ranked(*args):  # the tables take their entries here, once the rows are made
            if not held:
                # the table cannot be weakly referenced; 2 counts `made` and the argument
                held.append(sys.getrefcount(made[0]))
            return ranked(*args)

        monkeypatch.setattr(report_module, "compute_baselines", baselines)
        monkeypatch.setattr(ranking_module, "_ranked", first_ranked)
        assert len(run_pipeline(run_inputs).tables) == 42
        assert held == [2]

    def test_the_records_filter_drops_go_before_resolve(self, run_inputs, monkeypatch):
        """A record that filter drops is gone by the time the next chunk is
        resolved: no list of the ingested records outlives its chunk."""
        lines = run_inputs.corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        run_inputs.corpus.write_text("".join(lines[-1:] + lines[:-1]), encoding="utf-8")  # x1 first
        monkeypatch.setattr(corpus_module, "_CHUNK_LINES", 1)
        dropped, held = [], []

        def note(chunk):
            if chunk is not None:
                dropped.extend(r for r in chunk[1] if r.item_id == "x1")  # an excluded publisher's
            return chunk

        def ingest(source):
            yield from map(note, ingest_chunks(source))  # holds no chunk of its own

        def resolve(records, registry, strict):
            if dropped:
                held.append(sys.getrefcount(dropped[0]))  # 2 counts `dropped` and the argument
            return resolve_corpus(records, registry, strict=strict)

        monkeypatch.setattr(report_module, "ingest_chunks", ingest)
        monkeypatch.setattr(report_module, "resolve_corpus", resolve)
        result = run_pipeline(dataclasses.replace(run_inputs, formats=("csv",)))  # one read
        assert (result.ingested, result.filtered, result.resolved) == (5, 4, 4)
        assert held[1:] == [2] * 4  # the first is x1's own chunk, whose list still holds it

    @pytest.mark.parametrize("chunk", [2, 4096])
    def test_the_walk_releases_the_records_it_has_passed(self, run_inputs, monkeypatch, chunk):
        # with chunks of 2 lines, the first record is in a chunk the walk has
        # left behind and the last in the one it ends on
        monkeypatch.setattr(corpus_module, "_CHUNK_LINES", chunk)
        held = []

        def baselines(corpus, taxonomy):
            ends = []  # the first record walked, then the last
            read = corpus.chunks

            def note(chunk):
                items = chunk[0]
                if items:
                    if not ends:
                        ends.append(items[0])
                    ends[1:] = [items[-1]]
                return chunk

            def chunks():
                yield from map(note, read())

            corpus.chunks = chunks
            table = compute_baselines(corpus, taxonomy)
            first, last = ends.pop(0), ends.pop()
            # getrefcount counts its argument: 2 means no one else holds it
            held.append((sys.getrefcount(first), sys.getrefcount(last)))
            return table

        monkeypatch.setattr(report_module, "compute_baselines", baselines)
        assert len(run_pipeline(run_inputs).tables) == 42
        assert held == [(2, 2)]

    def test_a_second_read_of_a_changed_corpus_fails(self, run_inputs, monkeypatch):
        """The run_inputs ids come out of order, so the fingerprint reads the
        corpus again, and a file changed after the walk is refused."""
        def baselines(corpus, taxonomy):
            table = compute_baselines(corpus, taxonomy)
            with run_inputs.corpus.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record("z9")) + "\n")
            return table

        monkeypatch.setattr(report_module, "compute_baselines", baselines)
        with pytest.raises(CorpusError, match="changed while it was read"):
            run_pipeline(run_inputs)

    def test_rank_requires_out(self, run_inputs):
        config = RunConfig(
            corpus=run_inputs.corpus,
            registry_dir=run_inputs.registry_dir,
            taxonomy=run_inputs.taxonomy,
        )
        with pytest.raises(ConfigError, match="output"):
            run_rank(config)

    def test_profile_requires_out(self, run_inputs):
        with pytest.raises(ConfigError, match="output"):
            run_profile(dataclasses.replace(run_inputs, out=None), "springer")

    def test_rank_writes_every_table(self, run_inputs):
        result, written = run_rank(run_inputs)
        assert len(written) == 42 * 2
        produced = sorted(p.name for p in run_inputs.out.iterdir())
        expected = sorted(
            table_filename(t, fmt) for t in result.tables for fmt in ("csv", "json")
        )
        assert produced == expected


class TestRunProfile:
    def test_by_id_and_by_mangled_variant(self, run_inputs):
        by_id, files = run_profile(run_inputs, "elsevier")
        assert by_id.publisher.publisher_id == "elsevier"
        assert sorted(p.name for p in files) == [
            "publisher_elsevier.csv",
            "publisher_elsevier.json",
        ]
        by_name, _ = run_profile(run_inputs, "  PERGAMON  press ")
        assert by_name.publisher.publisher_id == "elsevier"
        assert by_name.rows == by_id.rows

    def test_acquired_id_gives_the_acquirer_profile(self, run_inputs):
        # A K Peters was acquired by CRC Press; its items rank under CRC Press
        corpus = write_jsonl(
            run_inputs.corpus,
            [
                record("a1", publisher="AK Peters", citations=3),
                record("a2", publisher="A K Peters Ltd", categories=["Law"], citations=1),
                record("c1", publisher="CRC Press LLC", citations=5),
            ],
        )
        config = dataclasses.replace(run_inputs, corpus=corpus)
        by_id, _ = run_profile(config, "ak-peters")
        by_name, _ = run_profile(config, "A K Peters")
        by_acquirer, _ = run_profile(config, "crc-press")
        assert by_id.publisher.publisher_id == "crc-press"
        assert by_id == by_name == by_acquirer
        assert by_id.rows

    def test_profile_csv_lists_scopes(self, run_inputs):
        _, files = run_profile(run_inputs, "springer")
        text = next(p for p in files if p.suffix == ".csv").read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "scope_kind,scope,pbk,pch,cit,fncs,ai,ed"
        assert any(line.startswith("discipline,History,2,1,4,") for line in lines)

    def test_profile_json_carries_variants(self, run_inputs):
        _, files = run_profile(run_inputs, "elsevier")
        payload = json.loads(
            next(p for p in files if p.suffix == ".json").read_text(encoding="utf-8")
        )
        assert payload["publisher_id"] == "elsevier"
        assert len(payload["variants"]) == 15
        raws = {v["raw"] for v in payload["variants"]}
        assert "Pergamon" in raws

    @pytest.mark.parametrize("changes", [{}, {"basis": "global"}, {"type_filter": "university_press"}])
    def test_builds_no_ranking_table(self, run_inputs, monkeypatch, changes):
        def tree(name):
            config = dataclasses.replace(
                run_inputs, out=run_inputs.out.parent / name, formats=FORMATS, **changes
            )
            run_profile(config, "springer")
            return {p.name: p.read_bytes() for p in config.out.iterdir()}

        expected = tree("as_built")

        def refuse(*args, **kwargs):
            raise AssertionError("a ranking table was built")

        monkeypatch.setattr(report_module, "build_all_rankings", refuse)
        assert tree("without_tables") == expected
        assert len(expected) == 3

    def test_unknown_name_is_fatal(self, run_inputs, monkeypatch):
        with pytest.raises(UnresolvedPublisherError):
            run_profile(run_inputs, "No Such House")

        def unread(*args):
            raise AssertionError("the corpus was read")

        # the name is resolved once the registry is loaded, before any ingest
        monkeypatch.setattr(report_module, "ingest_chunks", unread)
        with pytest.raises(UnresolvedPublisherError):
            run_profile(run_inputs, "No Such House")

    def test_export_profile_rejects_unknown_format(self, run_inputs, tmp_path):
        profile, _ = run_profile(run_inputs, "springer")
        with pytest.raises(ExportError):
            export_profile(profile, "pdf", tmp_path)


class TestRunStats:
    def test_totals_cover_the_filtered_corpus(self, run_inputs):
        stats = run_stats(run_inputs)
        assert stats.total.books == 3
        assert stats.total.chapters == 1
        assert stats.total.book_citations == 6
        assert set(stats.per_field) == {
            "Humanities & Arts",
            "Social Sciences",
            "Engineering & Technology",
            "Science",
        }
        assert stats.per_field["Humanities & Arts"].books == 2
        assert stats.per_field["Social Sciences"].books == 1
        assert stats.unknown_categories == ()


class TestLazyFingerprint:
    """Only commands that write the fingerprint hash the corpus."""

    # the fingerprint of the run_inputs corpus; its bytes must never change
    DIGEST = "cbf4fa660258c7d2ef2965a384522a360fe786510142bb9ef1e977426d973283"

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = corpus_module.corpus_fingerprint

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(corpus_module, "corpus_fingerprint", counted)
        return calls

    def test_validate_and_stats_never_hash(self, run_inputs, calls):
        run_validate(run_inputs)
        run_stats(run_inputs)
        assert calls == []

    def test_outputs_without_a_digest_never_hash(self, run_inputs, monkeypatch):
        def tree(directory):
            return {p.name: p.read_bytes() for p in directory.iterdir()}

        def outputs(name):
            config = dataclasses.replace(run_inputs, out=run_inputs.out.parent / name)
            run_rank(dataclasses.replace(config, formats=("csv", "html")))
            run_profile(dataclasses.replace(config, formats=FORMATS), "springer")
            return tree(config.out)

        expected = outputs("with_hash")

        def refuse(*args):
            raise AssertionError("the corpus was hashed")

        monkeypatch.setattr(corpus_module, "corpus_fingerprint", refuse)
        assert outputs("without_hash") == expected
        assert len(expected) == 42 * 2 + 3

    def test_rank_hashes_once_and_writes_the_same_digest(self, run_inputs, calls):
        run_rank(run_inputs)
        assert len(calls) == 1
        written = {
            json.loads(path.read_text(encoding="utf-8"))["corpus_fingerprint"]
            for path in run_inputs.out.glob("*.json")
        }
        assert written == {self.DIGEST}


class TestRunValidate:
    def test_unknown_categories_need_no_scope_plan(self, tmp_path):
        corpus = write_jsonl(
            tmp_path / "corpus.jsonl",
            [record("b1", categories=["Phrenology", "History", "Alchemy"]),
             record("b2", categories=["Alchemy"]), record("b3")],
        )
        config = RunConfig(corpus=corpus, registry_dir=sample_registry_dir(), taxonomy=sample_taxonomy_path())
        report = run_validate(config)
        assert report.unknown_categories == ("Alchemy", "Phrenology")
        assert report.taxonomy.plans == {}

    def test_the_records_are_never_held_whole(self, tmp_path, monkeypatch):
        """validate folds a cached corpus a chunk at a time, so its traced
        peak stays well below that of ingest_corpus, which holds every
        record, on the same file: 0.58-0.70 of it on 4k-15k generated lines,
        against 1.12-1.14 when validate held the records."""
        bundle = generate_corpus(SynthParams(seed=4, publisher_count=120, items_per_publisher=(40, 60)),
                                 load_taxonomy(sample_taxonomy_path()), tmp_path / "bundle")
        monkeypatch.setattr(corpus_module, "_SPLIT_MIN_BYTES", 0)  # cache it, whatever its size
        monkeypatch.setattr(corpus_module, "_CHUNK_LINES", 64)  # in about 95 frames
        config = RunConfig(corpus=bundle.corpus_path, registry_dir=bundle.registry_dir,
                           taxonomy=bundle.taxonomy_path)
        ingest_corpus(bundle.corpus_path)  # writes the entry that both runs read
        peaks = []
        for run in (lambda: ingest_corpus(bundle.corpus_path), lambda: run_validate(config)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        ingested, validated = peaks
        assert validated < 0.8 * ingested, peaks

    def test_clean_inputs(self, run_inputs):
        report = run_validate(run_inputs)
        assert len(report.registry.publishers) == 16
        assert len(report.registry.variant_rows) == 40
        assert len(report.registry.acquisitions) == 2
        assert report.taxonomy.field_count == 4
        assert report.taxonomy.discipline_count == 38
        assert report.ingested == 5
        assert report.filtered == 4
        assert report.resolved == 4
        assert report.diagnostics == []
        assert report.unresolved == set()
        assert report.unknown_categories == ()
        assert report.orphan_chapters == 0

    def test_dirty_inputs_are_reported_not_fatal(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        lines = jsonl(
            [
                record("ok1", citations=1),
                record("ok2", publisher="Mystery House"),
                record(
                    "ok3",
                    doc_type="chapter",
                    parent_book_id="nowhere",
                    categories=["Phrenology"],
                ),
            ]
        )
        lines.insert(1, "not json at all")
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = run_validate(
            RunConfig(
                corpus=corpus,
                registry_dir=sample_registry_dir(),
                taxonomy=sample_taxonomy_path(),
            )
        )
        assert report.ingested == 3
        assert len(report.diagnostics) == 1
        assert report.unresolved == {"mystery house"}
        assert report.resolved == 2
        assert report.unknown_categories == ("Phrenology",)
        assert report.orphan_chapters == 1
