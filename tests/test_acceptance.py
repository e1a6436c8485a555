"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Every test prints `[PASS] criterion N: ...` on success (visible with
pytest -s / -rA) or `[FAIL] criterion N: ...` just before the assertion
error when it does not hold. Tolerances are pinned here and nowhere else:
integer indicators exact, fncs/ai/ed differential 1e-12, closure 1e-9,
wall-clock budgets 5 s / 2 min / 60 s, memory 2 GB.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pubrank.corpus import ResolvedCorpus
from pubrank.indicators import Scope, compute_all_rows, compute_baselines
from pubrank.ranking import ThresholdPolicy, check_eligibility
from pubrank.report import RunConfig, run_rank
from pubrank.testkit import SynthParams, generate_corpus, oracle_indicators
from util import keyed_rows, load_synth_bundle, pipeline_artifacts, ranking_table, record, tree_hash

REPO_ROOT = Path(__file__).resolve().parents[1]


def _verdict(criterion: int, label: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"[FAIL] criterion {criterion}: {label}")
        raise
    print(f"[PASS] criterion {criterion}: {label}")


def test_criterion_1_ranking_count_and_speed(taxonomy, tmp_path):
    def body():
        params = SynthParams(
            seed=101, publisher_count=50, items_per_publisher=(200, 210)
        )
        result = generate_corpus(params, taxonomy, tmp_path / "synth")
        assert result.item_count >= 10_000
        config = RunConfig(
            corpus=result.corpus_path,
            registry_dir=result.registry_dir,
            taxonomy=result.taxonomy_path,
            out=tmp_path / "tables",
        )
        start = time.perf_counter()
        pipeline, written = run_rank(config)
        elapsed = time.perf_counter() - start
        assert len(pipeline.tables) == 42
        assert len(written) == 42
        assert sorted(p.name for p in (tmp_path / "tables").iterdir()) == sorted(
            p.name for p in written
        )
        assert elapsed < 5.0, f"rank took {elapsed:.2f}s on {result.item_count} items"

    _verdict(1, "42 ranking tables from the sample taxonomy, <5s on 10k items", body)


def test_criterion_2_threshold_boundaries():
    def body():
        policy = ThresholdPolicy()  # 5 books OR 50 chapters
        assert check_eligibility(5, 0, policy)
        assert check_eligibility(4, 50, policy)
        assert not check_eligibility(4, 49, policy)
        for pbk in range(0, 11):
            for pch in range(0, 61):
                assert check_eligibility(pbk, pch, policy) is (pbk >= 5 or pch >= 50)

    _verdict(2, "eligibility == OR of thresholds on the full [0,10]x[0,60] grid", body)


def test_criterion_3_fncs_closure(taxonomy, tmp_path):
    def body():
        checked = 0
        for seed in range(1, 51):
            result = generate_corpus(
                SynthParams(seed=seed, publisher_count=6, items_per_publisher=(20, 40)),
                taxonomy,
                tmp_path / f"s{seed}",
            )
            _, tax, corpus = load_synth_bundle(result)
            pseudo = ResolvedCorpus(items=corpus.items, publisher_ids=("__all__",) * len(corpus))
            baselines = compute_baselines(pseudo, tax)
            for (pid, scope), row in keyed_rows(compute_all_rows(baselines)).items():
                if scope.kind != "discipline":
                    continue
                if row.cit:
                    assert abs(row.fncs - 1.0) <= 1e-9, (seed, scope.name, row.fncs)
                else:
                    assert row.fncs == 0.0, (seed, scope.name, row.fncs)
                checked += 1
        assert checked > 500  # the loop really exercised many disciplines

    _verdict(3, "whole-corpus pseudo-publisher FNCS = 1.0 +/- 1e-9 per discipline, 50 seeds", body)


def test_criterion_4_differential_oracle(taxonomy, tmp_path):
    def body():
        start = time.perf_counter()
        rows_checked = 0
        for seed in range(1, 201):
            result = generate_corpus(
                SynthParams(seed=seed, publisher_count=4, items_per_publisher=(12, 22)),
                taxonomy,
                tmp_path / f"s{seed}",
            )
            assert result.item_count <= 2000
            _, tax, corpus = load_synth_bundle(result)
            baselines = compute_baselines(corpus, tax)
            for (pid, scope), row in keyed_rows(compute_all_rows(baselines)).items():
                pbk, pch, cit, fncs, ai, ed = oracle_indicators(pid, scope, corpus, tax)
                assert (row.pbk, row.pch, row.cit) == (pbk, pch, cit), (seed, pid, scope)
                assert abs(row.fncs - fncs) <= 1e-12, (seed, pid, scope)
                assert abs(row.ai - ai) <= 1e-12, (seed, pid, scope)
                assert abs(row.ed - ed) <= 1e-12, (seed, pid, scope)
                rows_checked += 1
        elapsed = time.perf_counter() - start
        assert rows_checked > 5000
        assert elapsed < 120.0, f"differential run took {elapsed:.1f}s"

    _verdict(4, "engine == brute-force oracle on 200 corpora (ints exact, floats 1e-12)", body)


def test_criterion_5_humanities_ordering_fixture(registry, taxonomy):
    def body():
        column = [
            ("Palgrave Macmillan", "palgrave-macmillan", 2108),
            ("Cambridge University Press", "cambridge-university-press", 1004),
            ("Routledge", "routledge", 748),
            ("Springer", "springer", 383),
            ("Princeton University Press", "princeton-university-press", 339),
        ]
        records = []
        for name, _, count in column:
            for i in range(count):
                records.append(
                    record(
                        f"{name}-{i}",
                        publisher=name,
                        year=2009 + i % 5,
                        categories=["History"],
                    )
                )
        corpus, baselines = pipeline_artifacts(records, registry, taxonomy)
        table = ranking_table(
            Scope("field", "Humanities & Arts"),
            registry,
            taxonomy,
            baselines,
            ThresholdPolicy(),
        )
        assert table.publisher_ids() == tuple(pid for _, pid, _ in column)
        assert [row.pbk for row in table.entries] == [n for _, _, n in column]

    _verdict(5, "PBK column 2108/1004/748/383/339 yields the reference row order", body)


def test_criterion_6_normalization_rules(registry, taxonomy):
    def body():
        assert registry.resolve("Pergamon") == "elsevier"
        assert registry.resolve("WILLAN PUBL") == "taylor-francis"
        # acquisition attribution ignores publication dates: items published
        # before the 2010 acquisition still belong to the acquirer
        corpus, _ = pipeline_artifacts(
            [
                record("a1", publisher="AK Peters", year=2009),
                record("a2", publisher="A K Peters Ltd", year=2012),
                record("p1", publisher="Pergamon Press", year=2011),
            ],
            registry,
            taxonomy,
        )
        resolved = dict(
            (item.item_id, pid) for item, pid in corpus.pairs()
        )
        assert resolved == {"a1": "crc-press", "a2": "crc-press", "p1": "elsevier"}

    _verdict(6, "Pergamon->Elsevier, WILLAN PUBL->Taylor & Francis, AK Peters(2009)->CRC Press", body)


def test_criterion_7_determinism(taxonomy, tmp_path):
    def body():
        result = generate_corpus(
            SynthParams(seed=77, publisher_count=10, items_per_publisher=(40, 60)),
            taxonomy,
            tmp_path / "synth",
        )

        def run(corpus_path, out):
            config = RunConfig(
                corpus=corpus_path,
                registry_dir=result.registry_dir,
                taxonomy=result.taxonomy_path,
                out=out,
                min_books=1,
                min_chapters=1,
                formats=("csv", "json", "html"),
            )
            run_rank(config)
            return tree_hash(out)

        first = run(result.corpus_path, tmp_path / "a")
        second = run(result.corpus_path, tmp_path / "b")
        assert first == second, "same inputs must give byte-identical outputs"

        lines = result.corpus_path.read_text(encoding="utf-8").splitlines()
        random.Random(0).shuffle(lines)
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("\n".join(lines) + "\n", encoding="utf-8")
        third = run(shuffled, tmp_path / "c")
        assert third == first, "record order must not leak into outputs"

    _verdict(7, "byte-identical reruns; invariant under corpus reordering", body)


def test_criterion_8_scaling_and_ai_closure(taxonomy, tmp_path):
    def body():
        # citation scaling: x7 leaves fncs (and ai, ed) alone, scales cit
        result = generate_corpus(
            SynthParams(seed=88, publisher_count=8, items_per_publisher=(30, 50)),
            taxonomy,
            tmp_path / "base",
        )
        _, tax, corpus = load_synth_bundle(result)
        rows = keyed_rows(compute_all_rows(compute_baselines(corpus, tax)))

        scaled_records = []
        for line in result.corpus_path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            rec["citations"] = rec["citations"] * 7
            scaled_records.append(rec)
        scaled_path = tmp_path / "scaled.jsonl"
        scaled_path.write_text(
            "".join(json.dumps(r) + "\n" for r in scaled_records), encoding="utf-8"
        )
        scaled_result = result.__class__(
            corpus_path=scaled_path,
            registry_dir=result.registry_dir,
            taxonomy_path=result.taxonomy_path,
            ledger_path=result.ledger_path,
            ledger=result.ledger,
            item_count=result.item_count,
        )
        _, _, scaled_corpus = load_synth_bundle(scaled_result)
        scaled_rows = keyed_rows(compute_all_rows(compute_baselines(scaled_corpus, tax)))
        assert set(scaled_rows) == set(rows)
        for key, row in rows.items():
            srow = scaled_rows[key]
            assert srow.cit == 7 * row.cit
            assert (srow.pbk, srow.pch) == (row.pbk, row.pch)
            assert abs(srow.fncs - row.fncs) <= 1e-12, key
            assert srow.ai == row.ai
            assert srow.ed == row.ed

        # AI closure on single-assignment corpora: each book sits in exactly
        # one field, so sum_F ai(p, F) * (corpus books in F / corpus books)
        # telescopes back to 1 for every publisher with books
        closures = 0
        for seed in (11, 12, 13, 14, 15):
            result = generate_corpus(
                SynthParams(
                    seed=seed,
                    publisher_count=6,
                    items_per_publisher=(25, 40),
                    category_count_weights=(1.0,),
                ),
                taxonomy,
                tmp_path / f"ai{seed}",
            )
            _, tax, corpus = load_synth_bundle(result)
            rows = keyed_rows(compute_all_rows(compute_baselines(corpus, tax)))
            ledger = result.ledger
            for pid in sorted(ledger.all_publishers):
                own_books = sum(
                    ledger.scope_truth(pid, Scope("field", f)).pbk
                    for f in ledger.field_stats
                )
                if not own_books:
                    continue
                closure = 0.0
                for f, truth in ledger.field_stats.items():
                    row = rows.get((pid, Scope("field", f)))
                    ai = row.ai if row is not None else 0.0
                    closure += ai * truth.books / ledger.total_books
                assert abs(closure - 1.0) <= 1e-9, (seed, pid, closure)
                closures += 1
        assert closures >= 20

    _verdict(8, "fncs invariant under x7 citation scaling; AI closes to 1.0 per publisher", body)


def test_criterion_9_performance_envelope():
    def body():
        script = REPO_ROOT / "scripts" / "benchmark_scale.py"
        proc = subprocess.run(
            [sys.executable, str(script), "--records", "505000"],
            capture_output=True,
            text=True,
            timeout=600,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["records"] >= 500_000
        assert payload["tables"] == 42
        assert payload["elapsed"] < 60.0, payload
        assert payload["maxrss_mb"] < 2048.0, payload

    _verdict(9, "500k-record pipeline run under 60s and 2GB", body)
