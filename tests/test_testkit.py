import json
from fractions import Fraction

import pytest

from pubrank.errors import ConfigError
from pubrank.indicators import Scope, compute_all_rows, compute_baselines, corpus_stats
from pubrank.testkit import SynthParams, generate_corpus, load_ledger, oracle_indicators
from pubrank.registry import fold_name
from util import load_synth_bundle as load_bundle
from util import keyed_rows, pipeline_artifacts, record, tree_hash

SMALL = dict(publisher_count=6, items_per_publisher=(20, 40))


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chapter_fraction": 1.5},
            {"mangle_fraction": -0.1},
            {"orphan_chapter_fraction": 2.0},
            {"publisher_count": 0},
            {"items_per_publisher": (0, 5)},
            {"items_per_publisher": (10, 5)},
            {"year_range": (2013, 2009)},
            {"category_count_weights": ()},
            {"category_count_weights": (0.0, 0.0)},
            {"category_count_weights": (0.5, -0.5)},
            {"book_citation_mean": -1.0},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SynthParams(**kwargs)

    def test_defaults_are_valid(self):
        assert SynthParams().seed == 1


class TestDeterminism:
    def test_same_seed_is_byte_identical(self, taxonomy, tmp_path):
        params = SynthParams(seed=5, **SMALL)
        generate_corpus(params, taxonomy, tmp_path / "a")
        generate_corpus(params, taxonomy, tmp_path / "b")
        assert tree_hash(tmp_path / "a") == tree_hash(tmp_path / "b")

    def test_different_seeds_differ(self, taxonomy, tmp_path):
        generate_corpus(SynthParams(seed=5, **SMALL), taxonomy, tmp_path / "a")
        generate_corpus(SynthParams(seed=6, **SMALL), taxonomy, tmp_path / "b")
        assert tree_hash(tmp_path / "a") != tree_hash(tmp_path / "b")

    def test_ledger_round_trips_through_json(self, taxonomy, tmp_path):
        result = generate_corpus(SynthParams(seed=9, **SMALL), taxonomy, tmp_path)
        assert load_ledger(result.ledger_path) == result.ledger


class TestCorpusShape:
    def test_books_only_when_other_kinds_disabled(self, taxonomy, tmp_path):
        params = SynthParams(
            seed=2,
            publisher_count=4,
            items_per_publisher=(10, 15),
            chapter_fraction=0.0,
            other_doctype_fraction=0.0,
            serial_fraction=0.0,
            out_of_window_fraction=0.0,
            include_excluded_publisher=False,
        )
        result = generate_corpus(params, taxonomy, tmp_path)
        records = [
            json.loads(line)
            for line in result.corpus_path.read_text(encoding="utf-8").splitlines()
        ]
        assert len(records) == result.item_count
        assert all(r["doc_type"] == "book" for r in records)
        assert all(2009 <= r["year"] <= 2013 for r in records)
        assert result.ledger.total_chapters == 0
        assert result.ledger.total_items == len(records)

    def test_excluded_publisher_emitted_but_never_ledgered(self, taxonomy, tmp_path):
        result = generate_corpus(SynthParams(seed=3, **SMALL), taxonomy, tmp_path)
        records = [
            json.loads(line)
            for line in result.corpus_path.read_text(encoding="utf-8").splitlines()
        ]
        excluded = [r for r in records if fold_name(r["publisher"]) == "annual reviews"]
        assert excluded  # present in the raw corpus
        assert "annual-reviews" not in result.ledger.all_publishers
        _, _, corpus = load_bundle(result)
        assert "annual-reviews" not in set(corpus.publisher_ids)

    def test_every_raw_name_resolves_strictly(self, taxonomy, tmp_path):
        params = SynthParams(seed=4, mangle_fraction=1.0, **SMALL)
        result = generate_corpus(params, taxonomy, tmp_path)
        _, _, corpus = load_bundle(result)  # strict resolve inside
        assert set(corpus.publisher_ids) == result.ledger.all_publishers

    def test_filter_keeps_exactly_the_ledgered_records(self, taxonomy, tmp_path):
        result = generate_corpus(SynthParams(seed=7, **SMALL), taxonomy, tmp_path)
        _, _, corpus = load_bundle(result)
        assert len(corpus) == result.ledger.total_items


class TestLedgerAgainstEngine:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_scope_counts_match(self, taxonomy, tmp_path, seed):
        result = generate_corpus(SynthParams(seed=seed, **SMALL), taxonomy, tmp_path)
        _, tax, corpus = load_bundle(result)
        baselines = compute_baselines(corpus, tax)
        rows = keyed_rows(compute_all_rows(baselines))
        assert {(pid, s.kind, s.name) for pid, s in rows} == set(result.ledger.scopes)
        for (pid, scope), row in rows.items():
            truth = result.ledger.scope_truth(pid, scope)
            assert (row.pbk, row.pch, row.cit) == (truth.pbk, truth.pch, truth.cit)

    def test_scope_books_match(self, taxonomy, tmp_path):
        """The walk's books by scope are the ledger's PBK summed over publishers."""
        result = generate_corpus(SynthParams(seed=5, **SMALL), taxonomy, tmp_path)
        _, tax, corpus = load_bundle(result)
        baselines = compute_baselines(corpus, tax)
        expected = dict.fromkeys(baselines.scopes, 0)
        for (_, kind, name), truth in result.ledger.scopes.items():
            expected[Scope(kind, name)] += truth.pbk
        assert dict(zip(baselines.scopes, baselines.scope_books)) == expected
        assert any(baselines.scope_books)

    def test_citation_cells_match_baselines(self, taxonomy, tmp_path):
        result = generate_corpus(SynthParams(seed=8, **SMALL), taxonomy, tmp_path)
        _, tax, corpus = load_bundle(result)
        baselines = compute_baselines(corpus, tax)
        assert set(baselines.cells) == set(result.ledger.cells)
        for key, cell in baselines.cells.items():
            truth = result.ledger.cells[key]
            assert (cell.item_count, cell.citation_sum) == (truth.items, truth.citations)

    def test_field_rollups_match_corpus_stats(self, taxonomy, tmp_path):
        result = generate_corpus(SynthParams(seed=12, **SMALL), taxonomy, tmp_path)
        registry, tax, corpus = load_bundle(result)
        stats = corpus_stats(compute_baselines(corpus, tax), registry, tax)
        ledger = result.ledger
        assert stats.total.books == ledger.total_books
        assert stats.total.chapters == ledger.total_chapters
        assert stats.total.book_citations == ledger.total_book_citations
        assert stats.total.chapter_citations == ledger.total_chapter_citations
        for fieldname, truth in ledger.field_stats.items():
            fs = stats.per_field[fieldname]
            assert fs.books == truth.books
            assert fs.chapters == truth.chapters
            assert fs.book_citations == truth.book_citations
            assert fs.chapter_citations == truth.chapter_citations
            assert fs.publishers == len(truth.publishers)

    @pytest.mark.parametrize("seed", [3, 12, 40])
    def test_publisher_counts_match_corpus_stats(self, taxonomy, tmp_path, seed):
        result = generate_corpus(SynthParams(seed=seed, **SMALL), taxonomy, tmp_path)
        registry, tax, corpus = load_bundle(result)
        stats = corpus_stats(compute_baselines(corpus, tax), registry, tax)
        ledger = result.ledger
        assert stats.total.publishers == len(ledger.all_publishers)
        for fieldname, truth in ledger.field_stats.items():
            types = [registry.publishers[pid].publisher_type for pid in truth.publishers]
            fs = stats.per_field[fieldname]
            assert fs.university_publishers == types.count("university_press")
            assert fs.commercial_publishers == len(types) - types.count("university_press")

    def test_configured_citation_means_are_recovered(self, taxonomy, tmp_path):
        # ~5000 items: sample averages should sit near the configured means
        params = SynthParams(seed=21, publisher_count=25, items_per_publisher=(190, 210))
        result = generate_corpus(params, taxonomy, tmp_path)
        ledger = result.ledger
        book_avg = ledger.total_book_citations / ledger.total_books
        chapter_avg = ledger.total_chapter_citations / ledger.total_chapters
        assert book_avg == pytest.approx(params.book_citation_mean, rel=0.2)
        assert chapter_avg == pytest.approx(params.chapter_citation_mean, rel=0.2)


class TestOracle:
    def test_oracle_agrees_with_hand_computation(self, registry, taxonomy):
        # One cell (History, book, 2010) with citations 4 and 2: mean 3,
        # so the 4-citation publisher scores exactly 4/3.
        corpus, _ = pipeline_artifacts(
            [
                record("s1", publisher="Springer", citations=4),
                record("r1", publisher="Routledge", citations=2),
            ],
            registry,
            taxonomy,
        )
        scope = Scope("discipline", "History")
        assert oracle_indicators("springer", scope, corpus, taxonomy) == (
            1,
            0,
            4,
            float(Fraction(4, 3)),
            1.0,
            0.0,
        )
        assert oracle_indicators("routledge", scope, corpus, taxonomy) == (
            1,
            0,
            2,
            float(Fraction(2, 3)),
            1.0,
            0.0,
        )

    def test_oracle_edited_share(self, registry, taxonomy):
        corpus, _ = pipeline_artifacts(
            [
                record("b1", edited=True),
                record("b2", edited=False),
                record("c1", doc_type="chapter", parent_book_id="b1"),
                record("c2", doc_type="chapter", parent_book_id="b2"),
                record("c3", doc_type="chapter", parent_book_id="gone"),
            ],
            registry,
            taxonomy,
        )
        scope = Scope("discipline", "History")
        pbk, pch, _, _, _, ed = oracle_indicators("springer", scope, corpus, taxonomy)
        assert (pbk, pch) == (2, 3)
        # one edited parent out of three chapters; the unknown parent only
        # widens the denominator
        assert ed == pytest.approx(100 / 3, abs=1e-12)

    @pytest.mark.parametrize("seed", [31, 32])
    def test_oracle_matches_engine_on_synthetic_corpora(self, taxonomy, tmp_path, seed):
        params = SynthParams(seed=seed, publisher_count=5, items_per_publisher=(15, 25))
        result = generate_corpus(params, taxonomy, tmp_path)
        _, tax, corpus = load_bundle(result)
        baselines = compute_baselines(corpus, tax)
        rows = keyed_rows(compute_all_rows(baselines))
        assert rows
        for (pid, scope), row in rows.items():
            assert oracle_indicators(pid, scope, corpus, tax) == (
                row.pbk,
                row.pch,
                row.cit,
                row.fncs,
                row.ai,
                row.ed,
            )
