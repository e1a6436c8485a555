"""The benchmark's tracer still finds every stage it wraps by name.

`perfbench/traced.py` wraps pubrank functions by module and attribute; a
rename there would only show as a failed traced run of the benchmark.
This runs the tracer on a small bundle, as the benchmark does, so such a
rename fails here first.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pubrank.samples import sample_taxonomy_path
from pubrank.taxonomy import load_taxonomy
from pubrank.testkit import SynthParams, generate_corpus

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bundle(tmp_path):
    return generate_corpus(
        SynthParams(seed=3, publisher_count=8, items_per_publisher=(25, 45)),
        load_taxonomy(sample_taxonomy_path()),
        tmp_path / "bundle",
    )


def traced(tmp_path, bundle, command, corpus, *flags):
    """One traced CLI run on the bundle's registry and taxonomy: the
    tracer's document, and the indices of its spans by name."""
    spans_path = tmp_path / f"{command}_spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans_path), command,
         "--corpus", str(corpus), "--registry-dir", str(bundle.registry_dir),
         "--taxonomy", str(bundle.taxonomy_path), *flags],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans_path.read_text(encoding="utf-8"))
    by_name = {}
    for index, span in enumerate(doc["spans"]):
        by_name.setdefault(span["name"], []).append(index)
    return doc, by_name


def test_traced_rank_finds_every_stage(tmp_path, bundle):
    out = tmp_path / "tables"
    doc, by_name = traced(tmp_path, bundle, "rank", bundle.corpus_path,
                          "--out", str(out), "--min-books", "2", "--min-chapters", "2")
    assert doc["exit_code"] == 0
    assert doc["missing"] == []

    spans = doc["spans"]
    for name in ("indicators.baselines", "indicators.rows", "ranking.tables"):
        assert len(by_name.get(name, [])) == 1, name
    (baselines,), (rows,), (tables,) = (
        [spans[i] for i in by_name[name]]
        for name in ("indicators.baselines", "indicators.rows", "ranking.tables")
    )
    assert baselines["counts"]["cells"] > 0
    assert rows["counts"]["rows"] > 0
    # the rows are built inside the tables span, and every entry is one CSV line
    assert rows["parent"] == by_name["ranking.tables"][0]
    csv_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) - 1 for p in out.glob("*.csv"))
    assert tables["counts"]["entries"] == csv_lines > 0


def test_traced_json_rank_hashes_once_before_the_walk(tmp_path, bundle):
    """A rank that writes JSON, as the benchmark runs it, hashes the corpus
    once, in the pipeline and not in the walk."""
    doc, by_name = traced(tmp_path, bundle, "rank", bundle.corpus_path,
                          "--out", str(tmp_path / "tables"), "--format", "csv,json,html")
    assert doc["exit_code"] == 0
    assert doc["missing"] == []
    assert len(by_name.get("corpus.fingerprint", [])) == 1
    (fingerprint,), (pipeline,) = by_name["corpus.fingerprint"], by_name["report.run_pipeline"]
    assert doc["spans"][fingerprint]["parent"] == pipeline


def test_traced_validate_neither_hashes_nor_walks(tmp_path, bundle, monkeypatch):
    """`validate` on a corpus with the benchmark's seeded faults."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    dirty = tmp_path / "corpus_dirty.jsonl"
    expected = workloads.inject_faults(bundle.corpus_path, dirty, tmp_path / "log.json", 3, bundle.ledger)
    assert expected["malformed"] > 0

    doc, by_name = traced(tmp_path, bundle, "validate", dirty)
    assert doc["exit_code"] == 1
    assert doc["missing"] == []
    assert len(by_name.get("report.run_validate", [])) == 1
    assert "corpus.fingerprint" not in by_name
    assert "indicators.baselines" not in by_name


def test_traced_stats_walks_once_and_never_hashes(tmp_path, bundle):
    """`stats` folds the table of the walk that it runs itself."""
    doc, by_name = traced(tmp_path, bundle, "stats", bundle.corpus_path)
    assert doc["exit_code"] == 0
    assert doc["missing"] == []
    assert len(by_name.get("indicators.baselines", [])) == 1
    assert "corpus.fingerprint" not in by_name
