import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import pubrank.cli
from pubrank.cli import EXIT_DIRTY, EXIT_FATAL, EXIT_OK, _config_from, build_parser, run_cli
from pubrank.report import RunConfig
from pubrank.samples import sample_registry_dir, sample_taxonomy_path
from pubrank.taxonomy import load_taxonomy
from pubrank.testkit import SynthParams, generate_corpus
from util import csv_text, record, tree_hash, write_jsonl, write_registry

# SHA-256 over everything rank, profile, stats and validate write and print
# for one fixed synthetic bundle; any change to an output byte changes it.
PINNED_OUTPUT_SHA256 = "7cef3fda83f878b566ea976853dbd1cded078310b6e9de5db436acdc7ac67b17"


SRC = Path(__file__).resolve().parent.parent / "src"


def _pubrank(*argv) -> subprocess.CompletedProcess:
    """`python -m pubrank.cli` in a child process, so stderr shows whether a
    failure ends in a message or in a traceback."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "pubrank.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.fixture
def clean_corpus(tmp_path):
    return write_jsonl(
        tmp_path / "corpus.jsonl",
        [
            record("s1", publisher="Springer", citations=3),
            record("s2", publisher="Springer", edited=True),
            record("c1", doc_type="chapter", publisher="Springer", parent_book_id="s2"),
            record("u1", publisher="Cambridge University Press", categories=["Law"]),
        ],
    )


@pytest.fixture
def dirty_corpus(tmp_path):
    path = tmp_path / "dirty.jsonl"
    lines = [
        json.dumps(record("ok1")),
        '{"id": "broken"',
        json.dumps(record("ok2", publisher="Mystery House")),
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestParser:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2

    def test_unknown_flag(self, clean_corpus):
        assert run_cli(["validate", "--corpus", str(clean_corpus), "--frobnicate"]) == EXIT_FATAL

    def test_corpus_flag_is_required(self):
        assert run_cli(["validate"]) == EXIT_FATAL

    @pytest.mark.parametrize("window", ["2009", "abc:def", "2009-2013"])
    def test_malformed_window(self, clean_corpus, window, capsys):
        assert run_cli(["validate", "--corpus", str(clean_corpus), "--window", window]) == EXIT_FATAL
        assert f"argument --window: window must be YYYY:YYYY, got {window!r}" in capsys.readouterr().err

    def test_malformed_format(self, clean_corpus, tmp_path):
        code = run_cli(
            ["rank", "--corpus", str(clean_corpus), "--out", str(tmp_path / "o"), "--format", "xlsx"]
        )
        assert code == EXIT_FATAL

    def test_malformed_items_names_its_own_form(self, tmp_path, capsys):
        assert run_cli(["synth", "--out", str(tmp_path / "o"), "--items", "abc"]) == EXIT_FATAL
        assert "argument --items: items must be LO:HI, got 'abc'" in capsys.readouterr().err

    def test_option_like_profile_name_is_a_usage_error(self, clean_corpus, tmp_path, capsys):
        code = run_cli(["profile", "-x", "--corpus", str(clean_corpus), "--out", str(tmp_path / "o")])
        assert code == EXIT_FATAL
        assert "usage: pubrank profile" in capsys.readouterr().err

    def test_help_returns_zero(self, capsys):
        assert run_cli(["validate", "--help"]) == EXIT_OK
        assert "usage: pubrank validate" in capsys.readouterr().out

    def test_minimal_rank_argv_takes_the_run_config_defaults(self, tmp_path):
        args = build_parser().parse_args(
            ["rank", "--corpus", "corpus.jsonl", "--out", str(tmp_path)]
        )
        assert _config_from(args) == RunConfig(
            corpus=Path("corpus.jsonl"),
            registry_dir=sample_registry_dir(),
            taxonomy=sample_taxonomy_path(),
            out=tmp_path,
        )


class TestValidate:
    def test_clean_corpus_exits_zero(self, clean_corpus, capsys):
        code = run_cli(["validate", "--corpus", str(clean_corpus)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "registry: 16 publishers, 40 variants, 2 acquisitions" in out
        assert "taxonomy: 4 fields, 38 disciplines" in out
        assert "4 records ingested, 4 in scope, 4 resolved" in out
        assert "validation ok" in out

    def test_problems_exit_dirty(self, dirty_corpus, capsys):
        code = run_cli(["validate", "--corpus", str(dirty_corpus)])
        out = capsys.readouterr().out
        assert code == EXIT_DIRTY
        assert "line 2:" in out
        assert "unresolved publisher: 'mystery house'" in out
        assert "validation found problems: 1 malformed lines, 1 unresolved publishers" in out

    def test_strict_mode_makes_unresolved_fatal(self, dirty_corpus, capsys):
        code = run_cli(["validate", "--corpus", str(dirty_corpus), "--strict"])
        captured = capsys.readouterr()
        assert code == EXIT_FATAL
        assert captured.err.startswith("error:")
        assert "mystery house" in captured.err

    def test_int_digit_setting_does_not_change_diagnostics(self, tmp_path, monkeypatch):
        huge = json.dumps(record("h")).replace('"citations": 0', '"citations": 1' + "0" * 5000)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(huge + "\n" + json.dumps(record("ok")) + "\n", encoding="utf-8")
        monkeypatch.delenv("PYTHONINTMAXSTRDIGITS", raising=False)
        default = _pubrank("validate", "--corpus", corpus)
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "0")
        unlimited = _pubrank("validate", "--corpus", corpus)
        assert default.returncode == unlimited.returncode == EXIT_DIRTY
        assert default.stdout == unlimited.stdout
        assert "line 1: invalid JSON: Exceeds the limit (4300 digits)" in default.stdout

    def test_missing_corpus_file_is_fatal(self, tmp_path, capsys):
        code = run_cli(["validate", "--corpus", str(tmp_path / "absent.jsonl")])
        captured = capsys.readouterr()
        assert code == EXIT_FATAL
        assert captured.err.startswith("error:")

    def test_non_utf8_corpus_is_fatal(self, tmp_path, capsys):
        corpus = tmp_path / "latin1.jsonl"
        rec = record("a", publisher="Presses de l'Universit\u00e9")
        corpus.write_bytes(json.dumps(rec, ensure_ascii=False).encode("latin-1"))
        code = run_cli(["validate", "--corpus", str(corpus)])
        captured = capsys.readouterr()
        assert code == EXIT_FATAL
        assert "not UTF-8" in captured.err

    @pytest.mark.parametrize("faulty", ["registry", "taxonomy"])
    def test_non_utf8_csv_is_fatal(self, clean_corpus, tmp_path, faulty):
        registry_dir = shutil.copytree(sample_registry_dir(), tmp_path / "registry")
        taxonomy = shutil.copy(sample_taxonomy_path(), tmp_path / "taxonomy.csv")
        with open(registry_dir / "variants.csv" if faulty == "registry" else taxonomy, "ab") as fh:
            fh.write(b"\xe9")
        proc = _pubrank("validate", "--corpus", clean_corpus,
                        "--registry-dir", registry_dir, "--taxonomy", taxonomy)
        assert proc.returncode == EXIT_FATAL
        assert proc.stderr.startswith("error:") and "not UTF-8" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_broken_registry_is_fatal(self, clean_corpus, tmp_path, capsys):
        registry_dir = write_registry(
            tmp_path / "cyclic",
            publishers=[("a", "Alpha", "commercial"), ("b", "Beta", "commercial")],
            acquisitions=[("a", "b", "2001"), ("b", "a", "2002")],
        )
        code = run_cli(
            ["validate", "--corpus", str(clean_corpus), "--registry-dir", str(registry_dir)]
        )
        captured = capsys.readouterr()
        assert code == EXIT_FATAL
        assert "cycle" in captured.err

    def test_bad_threshold_is_rejected_before_any_input_is_read(self, tmp_path, capsys):
        code = run_cli(["validate", "--corpus", str(tmp_path / "absent.jsonl"),
                        "--min-chapters", "-1"])
        assert code == EXIT_FATAL
        assert capsys.readouterr().err == "error: thresholds must be >= 0\n"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("expected", [EXIT_OK, EXIT_DIRTY, EXIT_FATAL])
def test_gc_is_off_during_a_command_and_restored_after(
    clean_corpus, dirty_corpus, tmp_path, monkeypatch, enabled, expected
):
    corpus = {EXIT_OK: clean_corpus, EXIT_DIRTY: dirty_corpus,
              EXIT_FATAL: tmp_path / "absent.jsonl"}[expected]
    seen = []

    def run_validate(config):
        seen.append(gc.isenabled())
        return real_run_validate(config)

    real_run_validate = pubrank.cli.run_validate
    monkeypatch.setattr(pubrank.cli, "run_validate", run_validate)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        code = run_cli(["validate", "--corpus", str(corpus)])
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert code == expected
    assert seen == [False]


class TestRank:
    def test_writes_all_tables(self, clean_corpus, tmp_path, capsys):
        out = tmp_path / "tables"
        code = run_cli(
            ["rank", "--corpus", str(clean_corpus), "--out", str(out),
             "--min-books", "1", "--min-chapters", "1"]
        )
        assert code == EXIT_OK
        files = sorted(p.name for p in out.iterdir())
        assert len(files) == 42
        assert all(name.endswith(".csv") for name in files)
        assert "42 tables, 42 files" in capsys.readouterr().out

    def test_multiple_formats(self, clean_corpus, tmp_path):
        out = tmp_path / "tables"
        code = run_cli(
            ["rank", "--corpus", str(clean_corpus), "--out", str(out),
             "--min-books", "1", "--min-chapters", "1", "--format", "csv,json,html"]
        )
        assert code == EXIT_OK
        suffixes = {p.suffix for p in out.iterdir()}
        assert suffixes == {".csv", ".json", ".html"}
        assert len(list(out.iterdir())) == 42 * 3

    def test_repeated_format_is_fatal_before_any_input_is_read(self, tmp_path, capsys):
        out = tmp_path / "tables"
        code = run_cli(["rank", "--corpus", str(tmp_path / "absent.jsonl"), "--out", str(out),
                        "--format", "csv,csv,json"])
        assert code == EXIT_FATAL
        assert capsys.readouterr().err == "error: format 'csv' given twice\n"
        assert not out.exists()

    @pytest.mark.parametrize("formats,message", [
        ("xlsx", "unknown format 'xlsx', expected one of ('csv', 'json', 'html')"),
        (",", "at least one output format required"),
        ("csv,csv", "format 'csv' given twice"),
    ])
    def test_format_rule_has_one_message_each(self, tmp_path, capsys, formats, message):
        out = tmp_path / "tables"
        code = run_cli(["rank", "--corpus", str(tmp_path / "absent.jsonl"), "--out", str(out),
                        "--format", formats])
        assert code == EXIT_FATAL
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_type_filter(self, clean_corpus, tmp_path):
        def history_rows(type_flag):
            out = tmp_path / f"t-{type_flag}"
            assert run_cli(
                ["rank", "--corpus", str(clean_corpus), "--out", str(out),
                 "--min-books", "1", "--min-chapters", "1", "--type", type_flag]
            ) == EXIT_OK
            lines = (out / "discipline_history.csv").read_text().splitlines()
            return lines[1:]

        assert any("Springer" in row for row in history_rows("all"))
        assert all("Cambridge" not in row for row in history_rows("commercial"))
        assert history_rows("university_press") == []  # CUP has no History books

    def test_threshold_flags_respected(self, clean_corpus, tmp_path):
        out = tmp_path / "strict-thresholds"
        assert run_cli(
            ["rank", "--corpus", str(clean_corpus), "--out", str(out)]
        ) == EXIT_OK
        # Nobody meets the default 5-book/50-chapter bar.
        for path in out.iterdir():
            assert len(path.read_text().splitlines()) == 1


class TestProfile:
    def test_profile_by_variant_name(self, clean_corpus, tmp_path, capsys):
        out = tmp_path / "profiles"
        code = run_cli(
            ["profile", "SPRINGER", "--corpus", str(clean_corpus), "--out", str(out),
             "--min-books", "1", "--min-chapters", "1", "--format", "json"]
        )
        assert code == EXIT_OK
        assert "Springer:" in capsys.readouterr().out
        payload = json.loads((out / "publisher_springer.json").read_text())
        assert payload["publisher_id"] == "springer"
        assert payload["rows"]

    def test_unknown_publisher_is_fatal(self, clean_corpus, tmp_path, capsys):
        code = run_cli(
            ["profile", "Nobody Press", "--corpus", str(clean_corpus),
             "--out", str(tmp_path / "p")]
        )
        captured = capsys.readouterr()
        assert code == EXIT_FATAL
        assert captured.err.startswith("error:")


class TestStats:
    def test_field_and_total_lines(self, clean_corpus, capsys):
        code = run_cli(["stats", "--corpus", str(clean_corpus)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "TOTAL: 2 publishers, 3 books, 1 chapters" in out
        assert "Humanities & Arts:" in out
        assert "avg cites/book" in out

    def test_unscoped_items_count_in_the_total_only(self, tmp_path, capsys):
        # a Cambridge University Press book whose only category is unknown
        # counts in the total and in no field; an Elsevier book with one
        # unknown and one known category counts in its field
        corpus = write_jsonl(
            tmp_path / "edge.jsonl",
            [
                record("b1", publisher="Springer", citations=4),
                record("c1", doc_type="chapter", publisher="Springer", parent_book_id="b1",
                       categories=["History", "Law"], citations=2),
                record("u1", publisher="Cambridge University Press", categories=["Phrenology"],
                       citations=3),
                record("e1", publisher="Elsevier", categories=["Phrenology", "History"],
                       citations=2),
            ],
        )
        assert run_cli(["stats", "--corpus", str(corpus)]) == EXIT_OK
        assert capsys.readouterr().out == (
            "Engineering & Technology: 4 disciplines, 0 publishers (0 commercial / 0 university), "
            "0 books, 0 chapters, 0 citations, avg cites/book -, avg cites/chapter -\n"
            "Humanities & Arts: 11 disciplines, 2 publishers (2 commercial / 0 university), "
            "2 books, 1 chapters, 8 citations, avg cites/book 3.00, avg cites/chapter 2.00\n"
            "Science: 11 disciplines, 0 publishers (0 commercial / 0 university), "
            "0 books, 0 chapters, 0 citations, avg cites/book -, avg cites/chapter -\n"
            "Social Sciences: 12 disciplines, 1 publishers (1 commercial / 0 university), "
            "0 books, 1 chapters, 2 citations, avg cites/book -, avg cites/chapter 2.00\n"
            "TOTAL: 3 publishers, 3 books, 1 chapters, 11 citations, "
            "avg cites/book 3.00, avg cites/chapter 2.00\n"
            "unknown categories: Phrenology\n"
        )


class TestSynth:
    def args(self, out, seed=7):
        return [
            "synth", "--out", str(out), "--seed", str(seed),
            "--publishers", "4", "--items", "10:20",
        ]

    def test_generates_complete_bundle(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert run_cli(self.args(out)) == EXIT_OK
        printed = capsys.readouterr().out
        assert "wrote" in printed and "records" in printed
        assert (out / "corpus.jsonl").is_file()
        assert (out / "registry" / "publishers.csv").is_file()
        assert (out / "registry" / "variants.csv").is_file()
        assert (out / "registry" / "acquisitions.csv").is_file()
        assert (out / "taxonomy.csv").is_file()
        assert (out / "ledger.json").is_file()

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(self.args(a)) == EXIT_OK
        assert run_cli(self.args(b)) == EXIT_OK
        assert tree_hash(a) == tree_hash(b)

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(self.args(a, seed=7)) == EXIT_OK
        assert run_cli(self.args(b, seed=8)) == EXIT_OK
        assert tree_hash(a) != tree_hash(b)

    def test_synth_output_feeds_rank(self, tmp_path):
        synth_out = tmp_path / "synth"
        assert run_cli(self.args(synth_out)) == EXIT_OK
        tables = tmp_path / "tables"
        code = run_cli(
            ["rank",
             "--corpus", str(synth_out / "corpus.jsonl"),
             "--registry-dir", str(synth_out / "registry"),
             "--taxonomy", str(synth_out / "taxonomy.csv"),
             "--out", str(tables),
             "--min-books", "1", "--min-chapters", "1",
             "--strict"]
        )
        assert code == EXIT_OK
        assert len(list(tables.iterdir())) == 42


def test_cli_import_leaves_the_test_kit_unloaded():
    # only `synth` needs the generator and the oracle; it imports them itself
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pubrank.cli; print('pubrank.testkit' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_demo_script_runs(tmp_path):
    script = SRC.parent / "scripts" / "run_demo.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "counts match" in proc.stdout


def test_outputs_match_pinned_digest(tmp_path, capsys):
    bundle = generate_corpus(
        SynthParams(seed=3, publisher_count=8, items_per_publisher=(25, 45)),
        load_taxonomy(sample_taxonomy_path()),
        tmp_path / "bundle",
    )
    dirty = tmp_path / "dirty.jsonl"
    dirty.write_text(
        bundle.corpus_path.read_text(encoding="utf-8")
        + '{"id": "broken"\n'
        + json.dumps(record("x1", publisher="Mystery House")) + "\n"
        + json.dumps(record("x2", publisher="Granite Press", categories=["Phrenology"])) + "\n",
        encoding="utf-8",
    )
    inputs = ["--registry-dir", str(bundle.registry_dir), "--taxonomy", str(bundle.taxonomy_path)]
    clean = ["--corpus", str(bundle.corpus_path), *inputs]
    tables = ["--min-books", "2", "--min-chapters", "2", "--format", "csv,json,html"]
    runs = [
        (["rank", *clean, *tables, "--out", str(tmp_path / "tables")], EXIT_OK),
        (
            ["profile", "granite-press", *clean, *tables, "--out", str(tmp_path / "profile")],
            EXIT_OK,
        ),
        (["stats", *clean], EXIT_OK),
        (["validate", *clean], EXIT_OK),
        (["validate", "--corpus", str(dirty), *inputs], EXIT_DIRTY),
    ]
    digest = hashlib.sha256()
    for argv, code in runs:
        assert run_cli(argv) == code
        digest.update(capsys.readouterr().out.replace(str(tmp_path), "<tmp>").encode("utf-8"))
    digest.update(tree_hash(tmp_path / "tables").encode("ascii"))
    digest.update(tree_hash(tmp_path / "profile").encode("ascii"))
    assert digest.hexdigest() == PINNED_OUTPUT_SHA256


CELLS = st.one_of(
    st.sampled_from(["a", "b", "Alpha", "Beta", "commercial", "university_press", "2010", ""]),
    st.text(max_size=8),
)
CATEGORY_CELLS = st.one_of(st.sampled_from(["History", "Law", "Arts", "Field"]),
                           st.text(max_size=8))
# a small loadable bundle, which each example damages in a few places
VALID_CSV = {
    "registry/publishers.csv": [["id", "name", "type", "website"],
                                ["a", "Alpha", "commercial", ""],
                                ["b", "Beta", "university_press", "beta.example"]],
    "registry/variants.csv": [["raw", "canonical_id", "city", "address"],
                              ["Alpha Press", "a", "Oxford", ""]],
    "registry/acquisitions.csv": [["acquired_id", "acquirer_id", "year"]],
    "taxonomy.csv": [["category", "discipline", "field"], ["History", "History", "Humanities"],
                     ["Arts", "Arts", "Humanities"], ["Law", "Law", "Social Sciences"]],
}


@st.composite
def damaged_csv(draw, rows, cells, edits):
    """The CSV text of `rows` after `edits` random edits: a cell replaced,
    a row of about the right width added, or a row dropped."""
    rows = [list(row) for row in rows]
    for _ in range(edits):
        edit = draw(st.sampled_from(["cell", "add", "drop"]))
        if edit == "cell":
            row = draw(st.sampled_from(rows))
            row[draw(st.integers(0, len(row) - 1))] = draw(cells)
        elif edit == "add":
            width = len(rows[0])
            rows.append(draw(st.lists(cells, min_size=width - 1, max_size=width + 1)))
        else:
            del rows[draw(st.integers(0, len(rows) - 1))]
            if not rows:
                return ""
    return csv_text(rows)


@st.composite
def corpus_text(draw):
    lines = []
    for i in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.text(max_size=30)))
            continue
        rec = record(f"r{i}", doc_type=draw(st.sampled_from(["book", "chapter", "article"])),
                     publisher=draw(st.one_of(st.sampled_from(["Alpha", "alpha press", "Beta"]),
                                              CELLS)),
                     year=draw(st.integers(2008, 2014)),
                     categories=draw(st.lists(CATEGORY_CELLS, max_size=3)),
                     citations=draw(st.integers(-1, 5)))
        if rec["doc_type"] == "chapter":
            rec["parent_book_id"] = draw(st.sampled_from(["r0", "r1", "elsewhere"]))
        lines.append(json.dumps(rec, ensure_ascii=draw(st.booleans())))
    return "\n".join(lines)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_inputs_end_in_an_exit_code(capsys, data):
    """Whatever the corpus, registry and taxonomy files hold, a command
    returns 0, 1 or 2 and raises nothing. Each example damages the corpus
    and at most one CSV file, so that some examples get past loading and
    run the whole command."""
    damaged = data.draw(st.sampled_from([None, *VALID_CSV]))
    files = {
        name: damaged_csv(rows, CATEGORY_CELLS if name == "taxonomy.csv" else CELLS,
                       data.draw(st.integers(1, 3)) if name == damaged else 0)
        for name, rows in VALID_CSV.items()
    }
    files["corpus.jsonl"] = corpus_text()
    command = data.draw(st.sampled_from(["validate", "stats", "rank", "profile"]))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "registry").mkdir()
        for name, strategy in files.items():
            (root / name).write_text(data.draw(strategy), encoding="utf-8", newline="")
        argv = [command, "--corpus", str(root / "corpus.jsonl"),
                "--registry-dir", str(root / "registry"), "--taxonomy", str(root / "taxonomy.csv"),
                "--min-books", "0", "--min-chapters", "0"]
        if command == "profile":
            argv.insert(1, data.draw(CELLS))
        if command in ("rank", "profile"):
            argv += ["--out", str(root / "out"), "--format", "csv,json,html"]
        assert run_cli(argv) in (EXIT_OK, EXIT_DIRTY, EXIT_FATAL)
    capsys.readouterr()
