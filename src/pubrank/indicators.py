"""The six per-publisher indicators and the citation baselines behind FNCS.

Output: PBK (books), PCH (chapters). Impact: CIT (citations), FNCS
(citations over expected citations, where the expectation comes from
baseline cells keyed by discipline, document type, and year). Profile:
AI (share of own output in a scope relative to the whole corpus share)
and ED (percentage of chapters from edited books).

All ratio arithmetic is exact: each ratio stays a pair of integers until
one correctly rounded int / int division per indicator, so results are
independent of accumulation order and invariant under uniform citation
scaling. Each (discipline, doc_type, year, k) cell gets an int id once
per run and its mean is reduced once; a row's accumulator keeps a flat
list of its items' cell ids, and its expected citations are then one
exact sum of those means over a common denominator. Rows are named tuples.
One walk over the items, `compute_baselines`, builds the baseline cells,
the rows' accumulators and the per-field coverage sums; `compute_all_rows`
finalises the rows, and `corpus_stats` folds a given table for `stats`.
Given a handed-over corpus, the walk is the items' last reader and lets go
of them a chunk at a time, so its tables grow into the memory the records
give back.

Scoped computations run over the items that map to at least one known
discipline; items whose categories are all unknown are excluded from
baselines, counts, and the AI denominators alike, and count only in the
coverage. Every item reads its scopes from the taxonomy's plan for its
category tuple, a tuple of `ScopeEntry`.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .corpus import DOC_BOOK, DOC_CHAPTER, ResolvedCorpus
from .registry import PublisherRegistry
from .taxonomy import SCOPE_DISCIPLINE, SCOPE_FIELD, ScopeEntry, TaxonomyMap


class Scope(NamedTuple):
    kind: str  # "field" | "discipline"
    name: str


class BaselineCell(NamedTuple):
    discipline: str
    doc_type: str
    year: int
    item_count: int
    citation_sum: int


class BaselineTable(NamedTuple):
    """The baseline cells, the accumulators and the coverage sums, as the
    walk left them."""

    cells: dict[tuple[str, str, int], BaselineCell]
    accs: dict[str, dict[int, _Acc]]  # publisher id -> scope id -> accumulator; every publisher
    totals: dict[str, list[int]]  # publisher id -> [books, chapters] over scoped items
    scopes: list[Scope]  # by scope id
    cell_keys: list[tuple[str, str, int, int]]  # (discipline, doc_type, year, k) by cell id
    coverage: dict[tuple[str | None, str], list[int]]  # (field or None for all, doc_type) -> [items, cit]
    unknown: tuple[str, ...]  # the categories the taxonomy does not map, sorted
    scope_books: list[int]  # books over all publishers, by scope id


class IndicatorRow(NamedTuple):
    publisher_id: str
    scope: Scope
    pbk: int
    pch: int
    cit: int
    fncs: float
    ai: float
    ed: float


class _Acc:
    __slots__ = ("pbk", "pch", "cit", "edited_chapters", "cells")

    def __init__(self):
        self.pbk = 0
        self.pch = 0
        self.cit = 0
        self.edited_chapters = 0
        # the id of each (discipline, doc_type, year, k) cell of each of the
        # scope's items, once per item and discipline; k is the number of the
        # item's disciplines inside the scope (1 for discipline scopes)
        self.cells: list[int] = []


def compute_baselines(corpus: ResolvedCorpus, taxonomy: TaxonomyMap) -> BaselineTable:
    """The one walk over the corpus. One cell per occupied (discipline,
    doc_type, year) triple, built from every item of every publisher;
    eligibility never trims baselines. An item in k disciplines contributes
    whole to all k cells. A corpus from `ResolvedCorpus.hand_over` is left
    empty, each chunk of items released once the walk has passed it; any
    other is left as it was."""
    plans = taxonomy.plans
    # a chapter may come before its book; taken before any item is released
    edited = {i.item_id for i in corpus.items if i.book_is_edited and i.doc_type == DOC_BOOK}

    # Ids interned once per run: Scope -> scope id and
    # (discipline, doc_type, year, k) -> cell id. An item's parts, one
    # (scope id, cell ids) pair per scope it falls in, depend only on its
    # (categories, doc_type, year) shape; each part is shared by every shape
    # with the same (scope entry, doc_type, year), and the entry carries the
    # item's disciplines in the scope, on which a field scope's cells depend.
    # A shape's items and citations are counts[n] and counts[n + 1], n memoised.
    scope_ids: dict[Scope, int] = {}
    cell_ids: dict[tuple[str, str, int, int], int] = {}
    part_of: dict[tuple[ScopeEntry, str, int], tuple[int, tuple[int, ...]]] = {}
    parts_of: dict[tuple[tuple[str, ...], str, int], tuple[tuple, int]] = {}
    counts: list[int] = []

    accs: dict[str, dict[int, _Acc]] = {}
    totals: dict[str, list[int]] = {}

    for items, pids in corpus.chunks():
        for item, pid in zip(items, pids):
            dt = item.doc_type
            year = item.pub_year
            shape = (item.categories, dt, year)
            memo = parts_of.get(shape)
            if memo is None:
                shape_parts = []
                for entry in plans[item.categories]:
                    part_key = (entry, dt, year)
                    part = part_of.get(part_key)
                    if part is None:
                        kind, name, members, k = entry
                        sid = scope_ids.setdefault(Scope(kind, name), len(scope_ids))
                        ids = tuple(
                            cell_ids.setdefault((d, dt, year, k), len(cell_ids)) for d in members
                        )
                        part = part_of[part_key] = (sid, ids)
                    shape_parts.append(part)
                memo = parts_of[shape] = (tuple(shape_parts), len(counts))
                counts += (0, 0)
            parts, n = memo
            cit = item.citations
            counts[n] += 1
            counts[n + 1] += cit
            own = accs.get(pid)
            if own is None:
                own = accs[pid] = {}
                totals[pid] = [0, 0]
            if not parts:  # all categories unknown: counted in the coverage only
                continue
            is_book = dt == DOC_BOOK
            from_edited = dt == DOC_CHAPTER and item.parent_book_id in edited
            totals[pid][0 if is_book else 1] += 1
            for sid, ids in parts:
                acc = own.get(sid)
                if acc is None:
                    acc = own[sid] = _Acc()
                if is_book:
                    acc.pbk += 1
                else:
                    acc.pch += 1
                    if from_edited:
                        acc.edited_chapters += 1
                acc.cit += cit
                acc.cells.extend(ids)

    # one pass over the shapes: [items, citations] by cell and by coverage key; books by scope
    cell_counts: dict[tuple[str, str, int], list[int]] = {}
    coverage: dict[tuple[str | None, str], list[int]] = {}
    scope_books = [0] * len(scope_ids)
    for (categories, dt, year), (parts, n) in parts_of.items():
        sums = [coverage.setdefault((None, dt), [0, 0])]
        for kind, name, _, _ in plans[categories]:
            if kind == SCOPE_DISCIPLINE:
                sums.append(cell_counts.setdefault((name, dt, year), [0, 0]))
            else:
                sums.append(coverage.setdefault((name, dt), [0, 0]))
        for pair in sums:
            pair[0] += counts[n]
            pair[1] += counts[n + 1]
        if dt == DOC_BOOK:
            for sid, _ in parts:
                scope_books[sid] += counts[n]
    cells = {key: BaselineCell(*key, n, s) for key, (n, s) in cell_counts.items()}
    unknown = taxonomy.unknown_categories(categories for categories, _, _ in parts_of)
    scopes = list(scope_ids)
    return BaselineTable(cells, accs, totals, scopes, list(cell_ids), coverage, unknown, scope_books)


def compute_all_rows(baselines: BaselineTable) -> list[IndicatorRow]:
    """One row per accumulator the table holds, that is per occupied
    (publisher, scope) pair, by publisher in `accs` order then by scope id;
    the accumulators stay as they are. Every other input it reads (totals,
    cells, scope books) is corpus-wide, so a table holding one publisher's
    accumulators alone gives exactly that publisher's rows. Each row carries
    its pair; pairs with no items have no row. Every row equals the
    brute-force `testkit.oracle_indicators` exactly.
    """
    accs, totals, scopes = baselines.accs, baselines.totals, baselines.scopes
    scope_books = baselines.scope_books  # books over all publishers, by scope id
    total_books = sum(books for books, _ in totals.values())

    # by cell id: the cell mean over k as a reduced fraction p/q
    cells = baselines.cells
    means = []
    for d, dt, year, k in baselines.cell_keys:
        cell = cells[(d, dt, year)]
        q = k * cell.item_count
        g = gcd(cell.citation_sum, q)
        means.append((cell.citation_sum // g, q // g))

    rows: list[IndicatorRow] = []
    for pid, own in accs.items():
        own_total = totals[pid][0]
        for sid, acc in own.items():
            # expected citations as num/den, den the lcm of the terms' q; it
            # need not be reduced, since int / int is correctly rounded and
            # so each float equals float() of the Fraction
            num, den = 0, 1
            for cid in acc.cells:
                p, q = means[cid]
                if p:
                    if den % q:
                        grow = q // gcd(den, q)
                        num *= grow
                        den *= grow
                    num += p * (den // q)
            fncs = acc.cit * den / num if num else 0.0

            all_scope = scope_books[sid]
            if acc.pbk and own_total and all_scope:
                ai = acc.pbk * total_books / (own_total * all_scope)
            else:
                ai = 0.0

            ed = 100 * acc.edited_chapters / acc.pch if acc.pch else 0.0
            rows.append(IndicatorRow(pid, scopes[sid], acc.pbk, acc.pch, acc.cit, fncs, ai, ed))
    return rows


class FieldStats(NamedTuple):
    disciplines: int = 0
    commercial_publishers: int = 0
    university_publishers: int = 0
    books: int = 0
    book_citations: int = 0
    chapters: int = 0
    chapter_citations: int = 0

    @property
    def publishers(self) -> int:
        return self.commercial_publishers + self.university_publishers

    @property
    def citations(self) -> int:
        return self.book_citations + self.chapter_citations

    @property
    def book_citation_avg(self) -> float | None:
        return self.book_citations / self.books if self.books else None

    @property
    def chapter_citation_avg(self) -> float | None:
        return self.chapter_citations / self.chapters if self.chapters else None


class CorpusStats(NamedTuple):
    per_field: dict[str, FieldStats]
    total: FieldStats
    unknown_categories: tuple[str, ...]


def corpus_stats(
    table: BaselineTable, registry: PublisherRegistry, taxonomy: TaxonomyMap
) -> CorpusStats:
    """Per-field and global aggregates over a filtered, resolved corpus,
    folded from the table of its one walk (`compute_baselines`). Items are
    whole-counted: one item in n fields counts fully in all n, so per-field
    numbers sum to the totals only when every item has one field. A
    publisher counts in a field when it holds an accumulator there.
    """
    field_ids = {name: sid for sid, (kind, name) in enumerate(table.scopes) if kind == SCOPE_FIELD}

    def fold(fieldname: str | None, disciplines: int) -> FieldStats:
        sid = field_ids.get(fieldname)
        pids = [pid for pid, own in table.accs.items() if fieldname is None or sid in own]
        types = [registry.publishers[pid].publisher_type for pid in pids]
        books = table.coverage.get((fieldname, DOC_BOOK), (0, 0))  # [items, citations]
        chapters = table.coverage.get((fieldname, DOC_CHAPTER), (0, 0))
        university = types.count("university_press")
        return FieldStats(disciplines, len(types) - university, university, *books, *chapters)

    per_field = {f: fold(f, len(taxonomy.disciplines_by_field[f])) for f in taxonomy.fields}
    return CorpusStats(per_field, fold(None, taxonomy.discipline_count), table.unknown)
