import gc
import random
import tracemalloc
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pubrank import corpus as corpus_module
from pubrank.corpus import ResolvedCorpus, corpus_fingerprint
from pubrank.indicators import (
    IndicatorRow,
    Scope,
    compute_all_rows,
    compute_baselines,
    corpus_stats,
)
from pubrank.ranking import BASIS_GLOBAL, ThresholdPolicy, build_all_rankings
from pubrank.testkit import SynthParams, generate_corpus, oracle_indicators
from util import (
    ingest_and_resolve,
    keyed_rows,
    load_synth_bundle,
    pipeline_artifacts,
    random_records,
    record,
)

HIST = Scope("discipline", "History")
HUM = Scope("field", "Humanities & Arts")
LAW = Scope("discipline", "Law")


def rows_of(records, registry, taxonomy):
    """The engine's rows for a small record list, plus the resolved corpus."""
    corpus, baselines = pipeline_artifacts(records, registry, taxonomy)
    return keyed_rows(compute_all_rows(baselines)), corpus


class TestCounts:
    def test_books_and_chapters_counted_independently(self, registry, taxonomy):
        rows, _ = rows_of(
            [
                record("b1", citations=3),
                record("b2", citations=1),
                record("c1", doc_type="chapter", parent_book_id="b1", citations=0),
            ],
            registry,
            taxonomy,
        )
        row = rows[("springer", HIST)]
        assert (row.pbk, row.pch, row.cit) == (2, 1, 4)

    def test_publisher_absent_from_scope(self, registry, taxonomy):
        rows, corpus = rows_of([record("b1")], registry, taxonomy)
        assert ("routledge", HIST) not in rows
        assert ("springer", LAW) not in rows
        assert oracle_indicators("routledge", HIST, corpus, taxonomy)[:3] == (0, 0, 0)
        assert oracle_indicators("springer", LAW, corpus, taxonomy)[:3] == (0, 0, 0)

    def test_field_counts_bound_discipline_counts(self, registry, taxonomy):
        rng = random.Random(11)
        rows, corpus = rows_of(random_records(rng, taxonomy, 60), registry, taxonomy)

        def pbk(pid, scope):
            row = rows.get((pid, scope))
            return row.pbk if row is not None else 0

        for pid in set(corpus.publisher_ids):
            for fieldname in taxonomy.fields:
                f_pbk = pbk(pid, Scope("field", fieldname))
                per_disc = [
                    pbk(pid, Scope("discipline", d))
                    for d in taxonomy.disciplines_by_field[fieldname]
                ]
                assert max(per_disc, default=0) <= f_pbk <= sum(per_disc)


def cell_mean(baselines, discipline, doc_type, year):
    """A baseline cell's mean citations, as an exact fraction."""
    cell = baselines.cells[(discipline, doc_type, year)]
    return Fraction(cell.citation_sum, cell.item_count)


class TestBaselines:
    def test_cell_mean(self, registry, taxonomy):
        corpus, baselines = pipeline_artifacts(
            [record(f"b{i}", citations=c) for i, c in enumerate((1, 2, 3))],
            registry,
            taxonomy,
        )
        assert cell_mean(baselines, "History", "book", 2010) == Fraction(2)

    def test_single_item_corpus(self, registry, taxonomy):
        corpus, baselines = pipeline_artifacts([record("b1", citations=5)], registry, taxonomy)
        assert len(baselines.cells) == 1
        assert cell_mean(baselines, "History", "book", 2010) == Fraction(5)

    def test_whole_counting_across_disciplines(self, registry, taxonomy):
        corpus, baselines = pipeline_artifacts(
            [record("b1", categories=["History", "Law"], citations=4)], registry, taxonomy
        )
        assert cell_mean(baselines, "History", "book", 2010) == Fraction(4)
        assert cell_mean(baselines, "Law", "book", 2010) == Fraction(4)

    def test_ineligible_publishers_still_shape_baselines(self, registry, taxonomy):
        # routledge's single (ineligible) book still moves the cell mean
        corpus, baselines = pipeline_artifacts(
            [record(f"s{i}", citations=0) for i in range(5)]
            + [record("r1", publisher="Routledge", citations=10)],
            registry,
            taxonomy,
        )
        assert cell_mean(baselines, "History", "book", 2010) == Fraction(10, 6)


class TestFncs:
    def test_items_at_cell_mean_give_one(self, registry, taxonomy):
        rows, _ = rows_of(
            [record("a", citations=3), record("b", publisher="Routledge", citations=3)],
            registry,
            taxonomy,
        )
        assert rows[("springer", HIST)].fncs == 1.0

    def test_hand_computed_ratio(self, registry, taxonomy):
        # one cell, A's book has 4 citations, B's has 2 -> mean 3, A = 4/3
        rows, _ = rows_of(
            [
                record("a", publisher="Springer", citations=4),
                record("b", publisher="Routledge", citations=2),
            ],
            registry,
            taxonomy,
        )
        assert rows[("springer", HIST)].fncs == pytest.approx(4 / 3, abs=1e-15)
        assert rows[("routledge", HIST)].fncs == pytest.approx(2 / 3, abs=1e-15)

    def test_field_scope_uses_only_member_disciplines(self, registry, taxonomy):
        # X (springer) sits in History (Humanities & Arts) and Law (Social
        # Sciences): each field's view of X uses only its own discipline.
        # History cell: X=4, Y=1 -> mean 5/2; Law cell: X=4, Z=5 -> mean 9/2.
        rows, _ = rows_of(
            [
                record("x", categories=["History", "Law"], citations=4),
                record("y", publisher="Routledge", categories=["History"], citations=1),
                record("z", publisher="Routledge", categories=["Law"], citations=5),
            ],
            registry,
            taxonomy,
        )
        soc = Scope("field", "Social Sciences")
        fncs_hum = rows[("springer", HUM)].fncs
        assert fncs_hum == pytest.approx(4 / (5 / 2), abs=1e-15)  # only History in this field
        fncs_soc = rows[("springer", soc)].fncs
        assert fncs_soc == pytest.approx(4 / (9 / 2), abs=1e-15)  # only Law in this field

    def test_field_scope_with_two_member_disciplines(self, registry, taxonomy):
        # History and Philosophy both sit in Humanities & Arts
        rows, _ = rows_of(
            [
                record("x", categories=["History", "Philosophy"], citations=4),
                record("y", publisher="Routledge", categories=["History"], citations=1),
                record("z", publisher="Routledge", categories=["Philosophy"], citations=5),
            ],
            registry,
            taxonomy,
        )
        expected = (Fraction(5, 2) + Fraction(9, 2)) / 2
        assert rows[("springer", HUM)].fncs == float(Fraction(4) / expected)

    def test_zero_citation_scope_returns_zero(self, registry, taxonomy):
        rows, _ = rows_of(
            [record("a", citations=0), record("b", citations=0)], registry, taxonomy
        )
        assert rows[("springer", HIST)].fncs == 0.0

    def test_no_items_in_scope_returns_zero(self, registry, taxonomy):
        rows, corpus = rows_of([record("a", citations=2)], registry, taxonomy)
        assert ("springer", LAW) not in rows
        assert oracle_indicators("springer", LAW, corpus, taxonomy)[3] == 0.0


class TestActivityIndex:
    def test_proportional_activity_is_one(self, registry, taxonomy):
        rows, _ = rows_of(
            [
                record("a1", categories=["History"]),
                record("a2", categories=["Law"]),
                record("b1", publisher="Routledge", categories=["History"]),
                record("b2", publisher="Routledge", categories=["Law"]),
            ],
            registry,
            taxonomy,
        )
        for scope in (HIST, HUM, LAW):
            assert rows[("springer", scope)].ai == 1.0

    def test_concentration_doubles_when_corpus_is_half_in_scope(self, registry, taxonomy):
        rows, _ = rows_of(
            [
                record("a1", categories=["History"]),
                record("a2", categories=["History"]),
                record("b1", publisher="Routledge", categories=["Economics"]),
                record("b2", publisher="Routledge", categories=["Economics"]),
            ],
            registry,
            taxonomy,
        )
        assert rows[("springer", HIST)].ai == 2.0
        assert rows[("springer", HUM)].ai == 2.0

    def test_chapters_do_not_move_ai(self, registry, taxonomy):
        base, _ = rows_of(
            [
                record("a1", categories=["History"]),
                record("b1", publisher="Routledge", categories=["Economics"]),
            ],
            registry,
            taxonomy,
        )
        with_chapters, _ = rows_of(
            [
                record("a1", categories=["History"]),
                record("b1", publisher="Routledge", categories=["Economics"]),
                record("c1", doc_type="chapter", parent_book_id="a1", categories=["Economics"]),
                record("c2", doc_type="chapter", parent_book_id="a1", categories=["Economics"]),
            ],
            registry,
            taxonomy,
        )
        assert base[("springer", HIST)].ai == with_chapters[("springer", HIST)].ai

    def test_books_without_known_categories_leave_the_population(self, registry, taxonomy):
        rows, _ = rows_of(
            [
                record("a1", categories=["History"]),
                record("a2", categories=["Phrenology"]),
                record("b1", publisher="Routledge", categories=["History"]),
            ],
            registry,
            taxonomy,
        )
        assert rows[("springer", HIST)].ai == 1.0

    def test_zero_conventions(self, registry, taxonomy):
        rows, _ = rows_of(
            [record("c1", doc_type="chapter", parent_book_id="x")], registry, taxonomy
        )
        assert rows[("springer", HIST)].ai == 0.0


class TestEditedShare:
    def test_forty_percent(self, registry, taxonomy):
        records = [record("b-ed", edited=True), record("b-un", edited=False)]
        records += [
            record(f"c{i}", doc_type="chapter", parent_book_id="b-ed" if i < 12 else "b-un")
            for i in range(30)
        ]
        rows, _ = rows_of(records, registry, taxonomy)
        assert rows[("springer", HIST)].ed == 40.0

    def test_zero_edited(self, registry, taxonomy):
        records = [record("b1", edited=False)]
        records += [
            record(f"c{i}", doc_type="chapter", parent_book_id="b1") for i in range(4)
        ]
        rows, _ = rows_of(records, registry, taxonomy)
        assert rows[("springer", HIST)].ed == 0.0

    def test_unknown_parent_counts_in_denominator_only(self, registry, taxonomy):
        records = [
            record("b1", edited=True),
            record("c1", doc_type="chapter", parent_book_id="b1"),
            record("c2", doc_type="chapter", parent_book_id="not-here"),
        ]
        rows, _ = rows_of(records, registry, taxonomy)
        assert rows[("springer", HIST)].ed == 50.0

    def test_no_chapters_returns_zero(self, registry, taxonomy):
        rows, _ = rows_of([record("b1")], registry, taxonomy)
        assert rows[("springer", HIST)].ed == 0.0


class TestSinglePassAggregation:
    """compute_all_rows must agree exactly with the brute-force oracle."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_pair_functions(self, registry, taxonomy, seed):
        rng = random.Random(seed)
        corpus, baselines = pipeline_artifacts(
            random_records(rng, taxonomy, rng.randint(20, 80)), registry, taxonomy
        )
        rows = keyed_rows(compute_all_rows(baselines))
        assert rows, "corpus should occupy at least one (publisher, scope)"
        for (pid, scope), row in rows.items():
            assert oracle_indicators(pid, scope, corpus, taxonomy) == (
                row.pbk, row.pch, row.cit, row.fncs, row.ai, row.ed
            )
            # row invariants
            assert row.pbk >= 0 and row.pch >= 0 and row.cit >= 0
            assert row.fncs >= 0.0 and row.ai >= 0.0
            assert 0.0 <= row.ed <= 100.0

    def test_no_rows_for_unoccupied_pairs(self, registry, taxonomy):
        corpus, baselines = pipeline_artifacts([record("b1")], registry, taxonomy)
        rows = keyed_rows(compute_all_rows(baselines))
        assert set(rows) == {("springer", HIST), ("springer", HUM)}


class TestFinaliseOnePublisher:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 60))
    def test_a_table_of_one_publisher_gives_its_rows(self, registry, taxonomy, seed, size):
        """Every input of compute_all_rows but the accumulators is
        corpus-wide, so a table holding one publisher's accumulators alone
        gives exactly that publisher's rows of the whole table, floats equal."""
        records = random_records(random.Random(seed), taxonomy, size)
        _, baselines = pipeline_artifacts(records, registry, taxonomy)
        rows = compute_all_rows(baselines)
        for pid, own in baselines.accs.items():
            alone = compute_all_rows(baselines._replace(accs={pid: own}))
            assert alone == [row for row in rows if row.publisher_id == pid]
        assert compute_all_rows(baselines._replace(accs={})) == []


EDGE_SHAPES = ("single_publisher", "zero_citations", "several_disciplines_of_one_field",
               "chapter_only_publisher")


@st.composite
def edge_records(draw, taxonomy, shape):
    """Record dicts of one edge shape over the sample registry."""
    publishers = ["Springer", "Routledge", "CRC Press"]
    if shape == "single_publisher":
        publishers = ["Springer"]
    if shape == "several_disciplines_of_one_field":
        fieldname = draw(st.sampled_from(
            [f for f in taxonomy.fields if len(taxonomy.disciplines_by_field[f]) >= 2]
        ))
        by_discipline = {}
        for category, d in sorted(taxonomy.discipline_of.items()):
            if taxonomy.field_of[d] == fieldname:
                by_discipline.setdefault(d, []).append(category)
    categories = sorted(taxonomy.discipline_of)
    records = []
    book_ids = []
    for i in range(draw(st.integers(min_value=1, max_value=25))):
        publisher = draw(st.sampled_from(publishers))
        chapter_only = shape == "chapter_only_publisher" and publisher == "CRC Press"
        is_book = not chapter_only and draw(st.booleans())
        if shape == "several_disciplines_of_one_field":
            discs = draw(st.lists(st.sampled_from(sorted(by_discipline)), min_size=2, max_size=3,
                                  unique=True))
            cats = sorted(draw(st.sampled_from(by_discipline[d])) for d in discs)
        else:
            cats = sorted(draw(st.lists(st.sampled_from(categories), min_size=1, max_size=3,
                                        unique=True)))
        citations = 0 if shape == "zero_citations" else draw(st.integers(min_value=0, max_value=9))
        rec = record(f"r{i}", doc_type="book" if is_book else "chapter", publisher=publisher,
                     year=draw(st.integers(2009, 2013)), categories=cats, citations=citations)
        if is_book:
            rec["edited"] = draw(st.booleans())
            book_ids.append(rec["id"])
        else:
            rec["parent_book_id"] = draw(st.sampled_from(book_ids + ["missing-parent"]))
        records.append(rec)
    return records


class TestEdgeShapes:
    """compute_all_rows equals the brute-force oracle exactly (==) on the
    shapes where exact arithmetic is most easily lost: one publisher, no
    citations at all, items split over several disciplines of one field,
    and a publisher with chapters only."""

    @pytest.mark.parametrize("shape", EDGE_SHAPES)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_engine_equals_oracle(self, registry, taxonomy, shape, data):
        records = data.draw(edge_records(taxonomy, shape))
        corpus, baselines = pipeline_artifacts(records, registry, taxonomy)
        rows = keyed_rows(compute_all_rows(baselines))
        if shape == "chapter_only_publisher":
            assert all(row.pbk == 0 for (pid, _), row in rows.items() if pid == "crc-press")
        for (pid, scope), row in rows.items():
            assert oracle_indicators(pid, scope, corpus, taxonomy) == (
                row.pbk, row.pch, row.cit, row.fncs, row.ai, row.ed
            )
        scopes = [Scope("field", f) for f in taxonomy.fields] + [
            Scope("discipline", d) for d in taxonomy.disciplines
        ]
        for pid in set(corpus.publisher_ids):
            for scope in scopes:
                if (pid, scope) not in rows:
                    zeros = (0, 0, 0, 0.0, 0.0, 0.0)
                    assert oracle_indicators(pid, scope, corpus, taxonomy) == zeros


class TestExactArithmetic:
    @pytest.mark.parametrize("factor", [7, 1000])
    def test_citation_scaling_leaves_fncs_unchanged(self, registry, taxonomy, factor):
        rng = random.Random(23)
        base_records = random_records(rng, taxonomy, 50)
        scaled_records = [dict(r, citations=r["citations"] * factor) for r in base_records]
        corpus, baselines = pipeline_artifacts(base_records, registry, taxonomy)
        scaled, scaled_baselines = pipeline_artifacts(scaled_records, registry, taxonomy)
        rows = keyed_rows(compute_all_rows(baselines))
        scaled_rows = keyed_rows(compute_all_rows(scaled_baselines))
        assert set(rows) == set(scaled_rows)
        for key, row in rows.items():
            assert scaled_rows[key].cit == row.cit * factor
            assert scaled_rows[key].fncs == row.fncs  # exact, not approximate
            assert scaled_rows[key].ai == row.ai
            assert scaled_rows[key].ed == row.ed

    def test_permutation_invariance(self, registry, taxonomy):
        rng = random.Random(29)
        base_records = random_records(rng, taxonomy, 60)
        shuffled_records = base_records[:]
        rng.shuffle(shuffled_records)
        corpus, baselines = pipeline_artifacts(base_records, registry, taxonomy)
        shuffled, shuffled_baselines = pipeline_artifacts(shuffled_records, registry, taxonomy)
        assert corpus_fingerprint(corpus.items, corpus.publisher_ids) == corpus_fingerprint(
            shuffled.items, shuffled.publisher_ids
        )
        assert keyed_rows(compute_all_rows(baselines)) == keyed_rows(
            compute_all_rows(shuffled_baselines)
        )

    @pytest.mark.parametrize("seed", [3, 17])
    def test_engine_equals_oracle_on_coprime_denominators(self, registry, taxonomy, seed):
        """Cells whose item counts are distinct primes, plus one cell group
        of items in two disciplines (k=2) and one in three (k=3): every
        distinct k*item_count of a row is co-prime with the others, so a
        row sums terms over a denominator past 2**40 with nothing to cancel."""
        rng = random.Random(seed)
        fieldname = next(f for f in taxonomy.fields if len(taxonomy.disciplines_by_field[f]) >= 3)
        d0, d1, d2 = taxonomy.disciplines_by_field[fieldname][:3]
        category = {
            d: min(c for c, disc in taxonomy.discipline_of.items() if disc == d) for d in (d0, d1, d2)
        }
        # (disciplines, doc_type, year, k, items); every count is a distinct prime
        groups = [
            ((d0,), "book", 2009, 1, 41),
            ((d0,), "book", 2010, 1, 43),
            ((d1,), "book", 2009, 1, 47),
            ((d1,), "book", 2010, 1, 53),
            ((d2,), "book", 2009, 1, 59),
            ((d0, d1), "chapter", 2011, 2, 61),
            ((d0, d1, d2), "chapter", 2012, 3, 67),
        ]
        records = []
        for g, (discs, doc_type, year, k, count) in enumerate(groups):
            citations = [rng.randint(0, 9) for _ in range(count)]
            while gcd(sum(citations), k * count) != 1:
                citations[0] += 1
            for i, cit in enumerate(citations):
                rec = record(f"g{g}-{i}", doc_type=doc_type, year=year, citations=cit,
                             publisher=rng.choice(["Springer", "Routledge"]),
                             categories=sorted(category[d] for d in discs))
                if doc_type == "chapter":
                    rec["parent_book_id"] = rng.choice(["g0-0", "g2-0", "missing-parent"])
                else:
                    rec["edited"] = rng.random() < 0.5
                records.append(rec)
        corpus, baselines = pipeline_artifacts(records, registry, taxonomy)
        denominators = {k * count for _, _, _, k, count in groups}
        assert all(gcd(a, b) == 1 for a in denominators for b in denominators if a < b)
        assert prod(denominators) > 2**40
        for discs, doc_type, year, _, count in groups:
            for d in discs:
                assert baselines.cells[(d, doc_type, year)].item_count == count

        rows = keyed_rows(compute_all_rows(baselines))
        assert {(pid, scope.name) for pid, scope in rows} == {
            (pid, name) for pid in ("springer", "routledge") for name in (d0, d1, d2, fieldname)
        }
        for (pid, scope), row in rows.items():
            assert oracle_indicators(pid, scope, corpus, taxonomy) == (
                row.pbk, row.pch, row.cit, row.fncs, row.ai, row.ed
            )


def test_global_counts_cover_all_scoped_items(registry, taxonomy):
    _, baselines = pipeline_artifacts(
        [
            record("b1", categories=["History"]),
            record("b2", categories=["Economics"]),
            record("c1", doc_type="chapter", parent_book_id="b1", categories=["Law"]),
            record("u1", categories=["Phrenology"]),
        ],
        registry,
        taxonomy,
    )
    assert baselines.totals == {"springer": [2, 1]}


class _CountingTuple(tuple):
    """A tuple that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_rankings_walk_the_items_once(registry, taxonomy):
    """Baselines, rows and the global basis's counts come from one walk,
    plus one pass that collects the edited books."""
    records = random_records(random.Random(5), taxonomy, 60)
    corpus, _ = pipeline_artifacts(records, registry, taxonomy)
    counted = ResolvedCorpus(_CountingTuple(corpus.items), corpus.publisher_ids)
    assert corpus_fingerprint(counted.items, counted.publisher_ids) == corpus_fingerprint(
        corpus.items, corpus.publisher_ids
    )
    counted.items.iterations = 0
    baselines = compute_baselines(counted, taxonomy)
    policy = ThresholdPolicy(basis=BASIS_GLOBAL)
    assert build_all_rankings(registry, taxonomy, baselines, policy)
    assert counted.items.iterations <= 2


def test_a_handed_over_corpus_gives_the_same_table_and_is_emptied(registry, taxonomy, monkeypatch):
    """The walk over a handed-over corpus, a few items at a time, builds the
    table the kept corpus gives."""
    records = random_records(random.Random(7), taxonomy, 60)
    corpus, baselines = pipeline_artifacts(records, registry, taxonomy)
    monkeypatch.setattr(corpus_module, "_HANDOVER_CHUNK", 7)
    kept = ResolvedCorpus(list(corpus.items), corpus.publisher_ids)
    handed = compute_baselines(kept.hand_over(), taxonomy)
    assert kept.items == []
    assert keyed_rows(compute_all_rows(handed)) == keyed_rows(compute_all_rows(baselines))
    assert (handed.cells, handed.totals, handed.coverage) == (baselines.cells, baselines.totals, baselines.coverage)


def test_the_engine_never_hashes(registry, taxonomy, monkeypatch):
    """The walk, the rows, the stats and the tables run on a kept corpus
    with hashing refused; the tables carry the fingerprint they are given,
    or None."""
    records = random_records(random.Random(9), taxonomy, 60)
    corpus, _, _ = ingest_and_resolve(records, registry)

    def refuse(*args):
        raise AssertionError("the corpus was hashed")

    monkeypatch.setattr(corpus_module, "corpus_fingerprint", refuse)
    baselines = compute_baselines(corpus, taxonomy)
    assert compute_all_rows(baselines)
    stats = corpus_stats(baselines, registry, taxonomy)
    assert stats.total.books + stats.total.chapters == len(corpus) > 0
    policy = ThresholdPolicy(min_books=1, min_chapters=1)
    tables = build_all_rankings(registry, taxonomy, baselines, policy, fingerprint="f" * 64)
    assert {table.meta.corpus_fingerprint for table in tables} == {"f" * 64}
    tables = build_all_rankings(registry, taxonomy, baselines, policy)
    assert {table.meta.corpus_fingerprint for table in tables} == {None}


class TestRowsMemory:
    """The aggregation walk holds per-item facts as interned cell ids, so
    the transient memory per row of the walk plus the rows' finalisation
    stays small on a long-tail corpus, and the rows are slotted."""

    # tracemalloc bytes per row above what the rows keep: about 220 with
    # interned cell ids; the rows pass alone took about 506 with a
    # (discipline, doc_type, year, k) tuple key per cell of every
    # accumulator, so a return to tuple keys fails
    TRANSIENT_PER_ROW = 350

    def test_transient_per_row_is_bounded(self, taxonomy, tmp_path):
        result = generate_corpus(
            SynthParams(seed=3, publisher_count=800, items_per_publisher=(4, 12)),
            taxonomy,
            tmp_path,
        )
        _, tax, corpus = load_synth_bundle(result)
        was_enabled = gc.isenabled()
        gc.disable()  # as the CLI runs; collections would move the peak
        tracemalloc.start()
        try:
            baselines = compute_baselines(corpus, tax)
            rows = compute_all_rows(baselines)
            del baselines  # the walk's accumulators are transient to the rows
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        assert len(rows) > 5000
        assert (peak - kept) / len(rows) < self.TRANSIENT_PER_ROW

    def test_rows_and_entries_are_slotted_and_frozen(self):
        # a table's entries are its rows
        row = IndicatorRow("springer", HIST, 1, 0, 3, 1.0, 1.0, 0.0)
        assert not hasattr(row, "__dict__")
        with pytest.raises(AttributeError):
            setattr(row, "pbk", None)
        assert hash(row) == hash(IndicatorRow("springer", HIST, 1, 0, 3, 1.0, 1.0, 0.0))
