import random

import pytest
from hypothesis import given, settings, strategies as st

from pubrank import indicators as indicators_module, ranking as ranking_module
from pubrank.errors import ConfigError, UnknownPublisherError
from pubrank.indicators import Scope, compute_all_rows
from pubrank.ranking import (
    BASIS_GLOBAL,
    BASIS_SCOPE,
    ThresholdPolicy,
    build_all_rankings,
    build_profile,
    check_eligibility,
)
from pubrank.registry import load_registry_dir
from pubrank.taxonomy import load_taxonomy
from pubrank.testkit import oracle_indicators
from util import keyed_rows, pipeline_artifacts, random_records, ranking_table, record, write_registry

HIST = Scope("discipline", "History")
DEFAULT = ThresholdPolicy()
OPEN = ThresholdPolicy(min_books=1, min_chapters=1)


def chapters(publisher, n, start=0):
    """n orphan chapters; eligibility only needs the count."""
    return [
        record(
            f"{publisher.lower()}-ch{start + i}",
            doc_type="chapter",
            publisher=publisher,
            parent_book_id="missing-parent",
        )
        for i in range(n)
    ]


def books(publisher, n, start=0, **extra):
    return [
        record(f"{publisher.lower()}-b{start + i}", publisher=publisher, **extra)
        for i in range(n)
    ]


class TestThresholds:
    @pytest.mark.parametrize(
        "pbk,pch,eligible",
        [
            (5, 0, True),  # books threshold alone
            (4, 50, True),  # chapters threshold alone
            (4, 49, False),  # just under both
            (0, 0, False),
            (5, 50, True),
            (0, 50, True),
        ],
    )
    def test_default_policy_is_or_of_thresholds(self, pbk, pch, eligible):
        assert check_eligibility(pbk, pch, DEFAULT) is eligible

    def test_zero_thresholds_admit_everyone(self):
        assert check_eligibility(0, 0, ThresholdPolicy(min_books=0, min_chapters=0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_books": -1},
            {"min_chapters": -3},
            {"basis": "per-country"},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ThresholdPolicy(**kwargs)


class TestTableMembership:
    def test_threshold_examples_in_a_real_table(self, registry, taxonomy):
        records = (
            books("Springer", 5)
            + books("Routledge", 4)
            + chapters("Routledge", 50)
            + books("CRC Press", 4)
            + chapters("CRC Press", 49)
        )
        corpus, baselines = pipeline_artifacts(records, registry, taxonomy)
        table = ranking_table(HIST, registry, taxonomy, baselines, DEFAULT)
        assert table.publisher_ids() == ("springer", "routledge")

    def test_no_eligible_publishers_is_an_empty_table(self, registry, taxonomy):
        corpus, baselines = pipeline_artifacts(books("Springer", 2), registry, taxonomy)
        table = ranking_table(HIST, registry, taxonomy, baselines, DEFAULT)
        assert table.entries == ()
        assert table.scope == HIST

    def test_entries_carry_scoped_indicator_rows(self, registry, taxonomy):
        corpus, baselines = pipeline_artifacts(
            books("Springer", 5, citations=2), registry, taxonomy
        )
        table = ranking_table(HIST, registry, taxonomy, baselines, DEFAULT)
        rows = keyed_rows(compute_all_rows(baselines))
        assert len(table.entries) == 1
        assert table.entries[0] == rows[("springer", HIST)]

    def test_type_filter_keeps_only_matching_publishers(self, registry, taxonomy):
        records = books("Cambridge University Press", 3) + books("Springer", 2)
        corpus, baselines = pipeline_artifacts(records, registry, taxonomy)
        both = ranking_table(HIST, registry, taxonomy, baselines, OPEN)
        assert both.publisher_ids() == ("cambridge-university-press", "springer")
        commercial = ranking_table(
            HIST, registry, taxonomy, baselines, OPEN, type_filter="commercial"
        )
        assert commercial.publisher_ids() == ("springer",)
        university = ranking_table(
            HIST, registry, taxonomy, baselines, OPEN, type_filter="university_press"
        )
        assert university.publisher_ids() == ("cambridge-university-press",)


class TestTableRows:
    @pytest.mark.parametrize("type_filter", [None, "commercial"])
    def test_entries_are_the_rows_the_engine_made(self, registry, taxonomy, monkeypatch, type_filter):
        """A table holds the engine's rows themselves, not copies or
        wrappers, and shares the registry's publishers."""
        made = []

        def recording(baselines):
            rows = compute_all_rows(baselines)
            made.extend(rows)
            return rows

        monkeypatch.setattr(ranking_module, "compute_all_rows", recording)
        corpus, baselines = pipeline_artifacts(
            random_records(random.Random(13), taxonomy, 120), registry, taxonomy
        )
        tables = build_all_rankings(registry, taxonomy, baselines, OPEN, type_filter=type_filter)
        made_ids = {id(row) for row in made}
        entries = [row for table in tables for row in table.entries]
        assert entries
        assert all(id(row) in made_ids for row in entries)
        assert all(table.publishers is registry.publishers for table in tables)


class TestOrdering:
    def test_pbk_descending(self, registry, taxonomy):
        records = books("Springer", 1) + books("Routledge", 3) + books("Elsevier", 2)
        corpus, baselines = pipeline_artifacts(records, registry, taxonomy)
        table = ranking_table(HIST, registry, taxonomy, baselines, OPEN)
        assert table.publisher_ids() == ("routledge", "elsevier", "springer")
        assert [row.pbk for row in table.entries] == [3, 2, 1]

    def test_tie_broken_alphabetically_ignoring_case(self, tmp_path, taxonomy):
        registry_dir = write_registry(
            tmp_path / "registry",
            publishers=[
                ("alpha-press", "alpha press", "commercial"),
                ("beta-press", "Beta Press", "commercial"),
            ],
        )
        registry = load_registry_dir(registry_dir)
        records = books("alpha press", 2) + books("Beta Press", 2)
        corpus, baselines = pipeline_artifacts(records, registry, taxonomy)
        table = ranking_table(HIST, registry, taxonomy, baselines, OPEN)
        # Raw byte order would put "Beta Press" before "alpha press".
        assert table.publisher_ids() == ("alpha-press", "beta-press")

    def test_entries_are_already_sorted(self, registry, taxonomy):
        rng = random.Random(11)
        corpus, baselines = pipeline_artifacts(
            random_records(rng, taxonomy, 120), registry, taxonomy
        )

        def key(row):
            name = registry.publisher(row.publisher_id).name
            return -row.pbk, name.casefold(), name

        for table in build_all_rankings(registry, taxonomy, baselines, OPEN):
            resorted = sorted(table.entries, key=key)
            assert list(table.entries) == resorted

    def test_rebuild_is_reproducible(self, registry, taxonomy):
        rng = random.Random(12)
        corpus, baselines = pipeline_artifacts(
            random_records(rng, taxonomy, 90), registry, taxonomy
        )
        first = build_all_rankings(registry, taxonomy, baselines, DEFAULT)
        second = build_all_rankings(registry, taxonomy, baselines, DEFAULT)
        assert first == second


class TestAllRankings:
    def test_minimal_taxonomy_yields_field_then_discipline(self, registry, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "category,discipline,field\nHistory,History,Humanities & Arts\n",
            encoding="utf-8",
        )
        taxonomy = load_taxonomy(path)
        corpus, baselines = pipeline_artifacts(books("Springer", 5), registry, taxonomy)
        tables = build_all_rankings(registry, taxonomy, baselines, DEFAULT)
        assert [(t.scope.kind, t.scope.name) for t in tables] == [
            ("field", "Humanities & Arts"),
            ("discipline", "History"),
        ]

    def test_sample_taxonomy_yields_42_tables_in_taxonomy_order(self, registry, taxonomy):
        corpus, baselines = pipeline_artifacts(books("Springer", 5), registry, taxonomy)
        tables = build_all_rankings(registry, taxonomy, baselines, DEFAULT)
        assert len(tables) == 42
        expected = [("field", f) for f in taxonomy.fields] + [
            ("discipline", d) for d in taxonomy.disciplines
        ]
        assert [(t.scope.kind, t.scope.name) for t in tables] == expected

    def test_membership_matches_bruteforce_eligibility(self, registry, taxonomy):
        rng = random.Random(14)
        corpus, baselines = pipeline_artifacts(
            random_records(rng, taxonomy, 200), registry, taxonomy
        )
        policy = ThresholdPolicy(min_books=8, min_chapters=6)
        tables = build_all_rankings(registry, taxonomy, baselines, policy)
        for table in tables:
            expected = set()
            for pid in registry.publishers:
                pbk, pch, *_ = oracle_indicators(pid, table.scope, corpus, taxonomy)
                if check_eligibility(pbk, pch, policy):
                    expected.add(pid)
            assert set(table.publisher_ids()) == expected

    def test_all_ranked_publishers_come_from_the_registry(self, registry, taxonomy):
        rng = random.Random(15)
        corpus, baselines = pipeline_artifacts(
            random_records(rng, taxonomy, 150), registry, taxonomy
        )
        seen = set()
        for table in build_all_rankings(registry, taxonomy, baselines, OPEN):
            seen.update(table.publisher_ids())
        assert seen
        assert seen <= set(registry.publishers)

    def test_adding_a_book_never_evicts_anyone(self, registry, taxonomy):
        rng = random.Random(16)
        base = random_records(rng, taxonomy, 120)
        corpus, baselines = pipeline_artifacts(base, registry, taxonomy)
        policy = ThresholdPolicy(min_books=4, min_chapters=8)
        before = {
            (t.scope.kind, t.scope.name): set(t.publisher_ids())
            for t in build_all_rankings(registry, taxonomy, baselines, policy)
        }
        grown = base + books("Springer", 1, start=9000)
        corpus2, baselines2 = pipeline_artifacts(grown, registry, taxonomy)
        after = {
            (t.scope.kind, t.scope.name): set(t.publisher_ids())
            for t in build_all_rankings(registry, taxonomy, baselines2, policy)
        }
        for key, members in before.items():
            assert members <= after[key]


class TestThresholdBasis:
    def records(self):
        return books("Springer", 5) + books(
            "Springer", 1, start=100, categories=["Law"]
        )

    def test_scope_basis_counts_inside_each_table(self, registry, taxonomy):
        corpus, baselines = pipeline_artifacts(self.records(), registry, taxonomy)
        law = ranking_table(
            Scope("discipline", "Law"), registry, taxonomy, baselines, DEFAULT
        )
        assert law.publisher_ids() == ()

    def test_global_basis_counts_across_the_corpus(self, registry, taxonomy):
        corpus, baselines = pipeline_artifacts(self.records(), registry, taxonomy)
        policy = ThresholdPolicy(basis="global")
        law = ranking_table(
            Scope("discipline", "Law"), registry, taxonomy, baselines, policy
        )
        assert law.publisher_ids() == ("springer",)
        # The row still reports the scoped counts, not the global ones.
        assert law.entries[0].pbk == 1
        hist = ranking_table(HIST, registry, taxonomy, baselines, policy)
        assert hist.publisher_ids() == ("springer",)


class TestProfile:
    def test_rows_sorted_by_pbk_then_scope(self, registry, taxonomy):
        records = books("Springer", 3) + books(
            "Springer", 1, start=100, categories=["Law"]
        )
        corpus, baselines = pipeline_artifacts(records, registry, taxonomy)
        profile = build_profile("springer", baselines, registry, OPEN)
        assert profile.publisher.name == "Springer"
        assert [(r.scope.kind, r.scope.name, r.pbk) for r in profile.rows] == [
            ("discipline", "History", 3),
            ("field", "Humanities & Arts", 3),
            ("discipline", "Law", 1),
            ("field", "Social Sciences", 1),
        ]

    def test_variants_come_from_the_registry(self, registry, taxonomy):
        corpus, baselines = pipeline_artifacts(books("Elsevier", 1), registry, taxonomy)
        profile = build_profile("elsevier", baselines, registry, OPEN)
        assert len(profile.variants) == 15
        assert all(v.canonical == "elsevier" for v in profile.variants)

    def test_unranked_publisher_has_no_rows(self, registry, taxonomy):
        corpus, baselines = pipeline_artifacts(books("Springer", 5), registry, taxonomy)
        profile = build_profile("routledge", baselines, registry, DEFAULT)
        assert profile.rows == ()
        assert profile.publisher.publisher_id == "routledge"

    def test_unknown_publisher_is_fatal(self, registry, taxonomy):
        corpus, baselines = pipeline_artifacts(books("Springer", 1), registry, taxonomy)
        with pytest.raises(UnknownPublisherError):
            build_profile("penguin", baselines, registry, OPEN)

    def test_only_the_publishers_own_rows_are_made(self, registry, taxonomy, monkeypatch):
        """A profile finalises its publisher's accumulators and no other's:
        one IndicatorRow per accumulator, none for a publisher with no items."""
        corpus, baselines = pipeline_artifacts(
            random_records(random.Random(5), taxonomy, 60), registry, taxonomy
        )
        assert len(baselines.accs) > 1
        made = []
        make_row = indicators_module.IndicatorRow

        def counted(*fields):
            made.append(fields[0])
            return make_row(*fields)

        monkeypatch.setattr(indicators_module, "IndicatorRow", counted)
        for pid in registry.publishers:
            made.clear()
            build_profile(pid, baselines, registry, OPEN)
            assert made == [pid] * len(baselines.accs.get(pid, {}))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(0, 60),
        min_books=st.integers(0, 3),
        min_chapters=st.integers(0, 3),
        basis=st.sampled_from([BASIS_SCOPE, BASIS_GLOBAL]),
        type_filter=st.sampled_from([None, "commercial", "university_press"]),
    )
    def test_rows_are_the_publishers_rows_of_the_tables(
        self, registry, taxonomy, seed, size, min_books, min_chapters, basis, type_filter
    ):
        """A profile's rows are the publisher's entries in the ranking tables
        built with the same policy and type filter, sorted by PBK descending
        then scope: the profile's first definition, kept as the reference.
        Every registry publisher is profiled, those with no items included."""
        publishers = ("Springer", "Routledge", "Cambridge University Press", "Princeton University Press")
        records = random_records(random.Random(seed), taxonomy, size, publishers=publishers)
        corpus, baselines = pipeline_artifacts(records, registry, taxonomy)
        policy = ThresholdPolicy(min_books, min_chapters, basis)
        tables = build_all_rankings(registry, taxonomy, baselines, policy, type_filter=type_filter)
        assert "crc-press" not in corpus.publisher_ids  # one of the publishers with no items
        for pid in registry.publishers:
            expected = [row for t in tables for row in t.entries if row.publisher_id == pid]
            expected.sort(key=lambda r: (-r.pbk, r.scope))
            profile = build_profile(pid, baselines, registry, policy, type_filter)
            assert profile.rows == tuple(expected)
