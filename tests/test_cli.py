import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pubrank.cli import EXIT_DIRTY, EXIT_FATAL, EXIT_OK, build_parser, run_cli
from pubrank.samples import sample_registry_dir, sample_taxonomy_path
from pubrank.taxonomy import load_taxonomy
from pubrank.testkit import SynthParams, generate_corpus
from util import record, tree_hash, write_jsonl, write_registry

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
        with pytest.raises(SystemExit) as exc:
            run_cli(["validate", "--corpus", str(clean_corpus), "--frobnicate"])
        assert exc.value.code == 2

    def test_corpus_flag_is_required(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["validate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("window", ["2009", "abc:def", "2009-2013"])
    def test_malformed_window(self, clean_corpus, window):
        with pytest.raises(SystemExit) as exc:
            run_cli(["validate", "--corpus", str(clean_corpus), "--window", window])
        assert exc.value.code == 2

    def test_malformed_format(self, clean_corpus, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                ["rank", "--corpus", str(clean_corpus), "--out", str(tmp_path / "o"),
                 "--format", "xlsx"]
            )
        assert exc.value.code == 2


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
