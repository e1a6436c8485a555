"""The six per-publisher indicators and the citation baselines behind FNCS.

Output: PBK (books), PCH (chapters). Impact: CIT (citations), FNCS
(citations over expected citations, where the expectation comes from
baseline cells keyed by discipline, document type, and year). Profile:
AI (share of own output in a scope relative to the whole corpus share)
and ED (percentage of chapters from edited books).

All ratio arithmetic is exact: each ratio stays a pair of integers until
one correctly rounded int / int division per indicator, so results are
independent of accumulation order and invariant under uniform citation
scaling.

Scoped computations run over the items that map to at least one known
discipline; items whose categories are all unknown are excluded from
baselines, counts, and the AI denominators alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .corpus import ItemRecord, ResolvedCorpus, edited_book_map
from .errors import FingerprintMismatchError
from .taxonomy import TaxonomyMap

SCOPE_FIELD = "field"
SCOPE_DISCIPLINE = "discipline"


@dataclass(frozen=True)
class Scope:
    kind: str  # "field" | "discipline"
    name: str

    def __str__(self) -> str:
        return f"{self.kind}:{self.name}"


@dataclass(frozen=True)
class BaselineCell:
    discipline: str
    doc_type: str
    year: int
    item_count: int
    citation_sum: int

    @property
    def mean(self) -> Fraction:
        return Fraction(self.citation_sum, self.item_count)


@dataclass(frozen=True)
class BaselineTable:
    cells: dict[tuple[str, str, int], BaselineCell]
    fingerprint: str

    def mean_of(self, discipline: str, doc_type: str, year: int) -> Fraction:
        return self.cells[(discipline, doc_type, year)].mean


@dataclass(frozen=True)
class IndicatorRow:
    publisher_id: str
    scope: Scope
    pbk: int
    pch: int
    cit: int
    fncs: float
    ai: float
    ed: float


def _known_disciplines(item: ItemRecord, discipline_of: dict[str, str]) -> set[str]:
    discs = set()
    for category in item.categories:
        d = discipline_of.get(category)
        if d is not None:
            discs.add(d)
    return discs


def compute_baselines(corpus: ResolvedCorpus, taxonomy: TaxonomyMap) -> BaselineTable:
    """One cell per occupied (discipline, doc_type, year) triple, built
    from every item of every publisher; eligibility never trims baselines.
    An item in k disciplines contributes whole to all k cells."""
    counts: dict[tuple[str, str, int], list[int]] = {}
    discipline_of = taxonomy.discipline_of
    for item in corpus.items:
        for d in _known_disciplines(item, discipline_of):
            key = (d, item.doc_type, item.pub_year)
            acc = counts.get(key)
            if acc is None:
                counts[key] = [1, item.citations]
            else:
                acc[0] += 1
                acc[1] += item.citations
    cells = {
        key: BaselineCell(key[0], key[1], key[2], n, s) for key, (n, s) in counts.items()
    }
    return BaselineTable(cells=cells, fingerprint=corpus.fingerprint)


class _Acc:
    __slots__ = ("pbk", "pch", "cit", "edited_chapters", "cells")

    def __init__(self):
        self.pbk = 0
        self.pch = 0
        self.cit = 0
        self.edited_chapters = 0
        # (discipline, doc_type, year, k) -> item count; k is the number of
        # the item's disciplines inside the scope (1 for discipline scopes)
        self.cells: dict[tuple[str, str, int, int], int] = {}

    def add(self, item: ItemRecord, from_edited: bool, cell_keys: list[tuple[str, str, int, int]]):
        if item.is_book:
            self.pbk += 1
        else:
            self.pch += 1
            if from_edited:
                self.edited_chapters += 1
        self.cit += item.citations
        for key in cell_keys:
            self.cells[key] = self.cells.get(key, 0) + 1


def compute_all_rows(
    corpus: ResolvedCorpus, taxonomy: TaxonomyMap, baselines: BaselineTable
) -> dict[tuple[str, Scope], IndicatorRow]:
    """All indicator rows in one pass over the corpus.

    Produces one row per occupied (publisher, scope) pair; pairs with no
    items have all-zero indicators and no row. Every row equals the
    brute-force `testkit.oracle_indicators` exactly.
    """
    if corpus.fingerprint != baselines.fingerprint:
        raise FingerprintMismatchError(corpus.fingerprint, baselines.fingerprint)
    discipline_of = taxonomy.discipline_of
    field_of = taxonomy.field_of
    edited = edited_book_map(corpus.items)

    accs: dict[tuple[str, str, str], _Acc] = {}
    books_by_publisher: dict[str, int] = {}
    books_by_scope: dict[tuple[str, str], int] = {}
    total_books = 0

    for item, pid in corpus.pairs():
        discs = _known_disciplines(item, discipline_of)
        if not discs:
            continue
        from_edited = item.is_chapter and edited.get(item.parent_book_id, False)
        by_field: dict[str, list[str]] = {}
        for d in discs:
            by_field.setdefault(field_of[d], []).append(d)

        if item.is_book:
            total_books += 1
            books_by_publisher[pid] = books_by_publisher.get(pid, 0) + 1

        dt = item.doc_type
        year = item.pub_year
        for d in discs:
            acc = accs.get((pid, SCOPE_DISCIPLINE, d))
            if acc is None:
                acc = accs[(pid, SCOPE_DISCIPLINE, d)] = _Acc()
            acc.add(item, from_edited, [(d, dt, year, 1)])
            if item.is_book:
                key = (SCOPE_DISCIPLINE, d)
                books_by_scope[key] = books_by_scope.get(key, 0) + 1
        for f, members in by_field.items():
            acc = accs.get((pid, SCOPE_FIELD, f))
            if acc is None:
                acc = accs[(pid, SCOPE_FIELD, f)] = _Acc()
            k = len(members)
            acc.add(item, from_edited, [(d, dt, year, k) for d in members])
            if item.is_book:
                key = (SCOPE_FIELD, f)
                books_by_scope[key] = books_by_scope.get(key, 0) + 1

    rows: dict[tuple[str, Scope], IndicatorRow] = {}
    cells = baselines.cells
    for (pid, kind, name), acc in accs.items():
        # expected citations as the reduced fraction num/den; int / int is
        # correctly rounded, so each float equals float() of the Fraction
        num, den = 0, 1
        for (d, dt, year, k), n in acc.cells.items():
            cell = cells[(d, dt, year)]
            if cell.citation_sum:
                cell_den = k * cell.item_count
                num = num * cell_den + n * cell.citation_sum * den
                den *= cell_den
                g = gcd(num, den)
                num //= g
                den //= g
        fncs = acc.cit * den / num if num else 0.0

        own_total = books_by_publisher.get(pid, 0)
        all_scope = books_by_scope.get((kind, name), 0)
        if acc.pbk and own_total and all_scope:
            ai = acc.pbk * total_books / (own_total * all_scope)
        else:
            ai = 0.0

        ed = 100 * acc.edited_chapters / acc.pch if acc.pch else 0.0
        scope = Scope(kind, name)
        rows[(pid, scope)] = IndicatorRow(
            publisher_id=pid,
            scope=scope,
            pbk=acc.pbk,
            pch=acc.pch,
            cit=acc.cit,
            fncs=fncs,
            ai=ai,
            ed=ed,
        )
    return rows


def global_counts(corpus: ResolvedCorpus, taxonomy: TaxonomyMap) -> dict[str, tuple[int, int]]:
    """Corpus-wide (pbk, pch) per publisher, over scoped items; feeds the
    global threshold basis."""
    counts: dict[str, list[int]] = {}
    discipline_of = taxonomy.discipline_of
    for item, pid in corpus.pairs():
        if not _known_disciplines(item, discipline_of):
            continue
        acc = counts.setdefault(pid, [0, 0])
        if item.is_book:
            acc[0] += 1
        else:
            acc[1] += 1
    return {pid: (b, c) for pid, (b, c) in counts.items()}
