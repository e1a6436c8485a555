"""The benchmark's tracer still finds every stage it wraps by name.

`perfbench/traced.py` wraps pubrank functions by module and attribute; a
rename there would only show as a failed traced run of the benchmark.
This runs the tracer on a small bundle, as the benchmark does, so such a
rename fails here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from pubrank.samples import sample_taxonomy_path
from pubrank.taxonomy import load_taxonomy
from pubrank.testkit import SynthParams, generate_corpus

ROOT = Path(__file__).resolve().parent.parent


def test_traced_rank_finds_every_stage(tmp_path):
    bundle = generate_corpus(
        SynthParams(seed=3, publisher_count=8, items_per_publisher=(25, 45)),
        load_taxonomy(sample_taxonomy_path()),
        tmp_path / "bundle",
    )
    spans_path, out = tmp_path / "spans.json", tmp_path / "tables"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans_path), "rank",
         "--corpus", str(bundle.corpus_path), "--registry-dir", str(bundle.registry_dir),
         "--taxonomy", str(bundle.taxonomy_path), "--out", str(out),
         "--min-books", "2", "--min-chapters", "2"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans_path.read_text(encoding="utf-8"))
    assert doc["exit_code"] == 0
    assert doc["missing"] == []

    spans = doc["spans"]
    by_name = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span["name"], []).append(index)
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
