"""The six per-publisher indicators and the citation baselines behind FNCS.

Output: PBK (books), PCH (chapters). Impact: CIT (citations), FNCS
(citations over expected citations, where the expectation comes from
baseline cells keyed by discipline, document type, and year). Profile:
AI (share of own output in a scope relative to the whole corpus share)
and ED (percentage of chapters from edited books).

All ratio arithmetic is exact: each ratio stays a pair of integers until
one correctly rounded int / int division per indicator, so results are
independent of accumulation order and invariant under uniform citation
scaling. Each (discipline, doc_type, year, k) cell mean is reduced once
per run; a row's expected citations are then one exact sum of those
means over a common denominator.

Scoped computations run over the items that map to at least one known
discipline; items whose categories are all unknown are excluded from
baselines, counts, and the AI denominators alike. Every item reads its
scopes from the taxonomy's `ScopePlan` for its category tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .corpus import DOC_BOOK, DOC_CHAPTER, ResolvedCorpus, edited_book_map
from .errors import FingerprintMismatchError
from .taxonomy import SCOPE_DISCIPLINE, SCOPE_FIELD, TaxonomyMap


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


def compute_baselines(corpus: ResolvedCorpus, taxonomy: TaxonomyMap) -> BaselineTable:
    """One cell per occupied (discipline, doc_type, year) triple, built
    from every item of every publisher; eligibility never trims baselines.
    An item in k disciplines contributes whole to all k cells."""
    counts: dict[tuple[str, str, int], list[int]] = {}
    plans = taxonomy.plans
    for item in corpus.items:
        for kind, d, _, _ in plans[item.categories].scopes:
            if kind != SCOPE_DISCIPLINE:
                continue
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
    plans = taxonomy.plans
    edited = edited_book_map(corpus.items)

    accs: dict[tuple[str, str, str], _Acc] = {}
    books_by_publisher: dict[str, int] = {}
    total_books = 0

    for item, pid in corpus.pairs():
        scopes = plans[item.categories].scopes
        if not scopes:
            continue
        dt = item.doc_type
        year = item.pub_year
        cit = item.citations
        is_book = dt == DOC_BOOK
        if is_book:
            total_books += 1
            books_by_publisher[pid] = books_by_publisher.get(pid, 0) + 1
            from_edited = False
        else:
            from_edited = dt == DOC_CHAPTER and edited.get(item.parent_book_id, False)
        for kind, name, members, k in scopes:
            key = (pid, kind, name)
            acc = accs.get(key)
            if acc is None:
                acc = accs[key] = _Acc()
            if is_book:
                acc.pbk += 1
            else:
                acc.pch += 1
                if from_edited:
                    acc.edited_chapters += 1
            acc.cit += cit
            acc_cells = acc.cells
            for d in members:
                cell_key = (d, dt, year, k)
                acc_cells[cell_key] = acc_cells.get(cell_key, 0) + 1

    # the scope's books over all publishers; one Scope object per scope
    books_by_scope: dict[tuple[str, str], int] = {}
    scope_of: dict[tuple[str, str], Scope] = {}
    for (_, kind, name), acc in accs.items():
        scope_key = (kind, name)
        books_by_scope[scope_key] = books_by_scope.get(scope_key, 0) + acc.pbk
        if scope_key not in scope_of:
            scope_of[scope_key] = Scope(kind, name)

    rows: dict[tuple[str, Scope], IndicatorRow] = {}
    cells = baselines.cells
    # (d, dt, year, k) -> the cell mean over k as a reduced fraction p/q
    means: dict[tuple[str, str, int, int], tuple[int, int]] = {}
    for (pid, kind, name), acc in accs.items():
        # expected citations as num/den, den the lcm of the terms' q; it
        # need not be reduced, since int / int is correctly rounded and so
        # each float equals float() of the Fraction
        num, den = 0, 1
        for cell_key, n in acc.cells.items():
            mean = means.get(cell_key)
            if mean is None:
                d, dt, year, k = cell_key
                cell = cells[(d, dt, year)]
                q = k * cell.item_count
                g = gcd(cell.citation_sum, q)
                mean = means[cell_key] = (cell.citation_sum // g, q // g)
            p, q = mean
            if p:
                if den % q:
                    grow = q // gcd(den, q)
                    num *= grow
                    den *= grow
                num += n * p * (den // q)
        fncs = acc.cit * den / num if num else 0.0

        own_total = books_by_publisher.get(pid, 0)
        all_scope = books_by_scope.get((kind, name), 0)
        if acc.pbk and own_total and all_scope:
            ai = acc.pbk * total_books / (own_total * all_scope)
        else:
            ai = 0.0

        ed = 100 * acc.edited_chapters / acc.pch if acc.pch else 0.0
        scope = scope_of[(kind, name)]
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
    plans = taxonomy.plans
    for item, pid in corpus.pairs():
        if not plans[item.categories].scopes:
            continue
        acc = counts.setdefault(pid, [0, 0])
        if item.is_book:
            acc[0] += 1
        else:
            acc[1] += 1
    return {pid: (b, c) for pid, (b, c) in counts.items()}
