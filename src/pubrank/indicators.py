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
exact sum of those means over a common denominator. Rows are slotted.
One walk over the items, `compute_baselines`, builds the baseline cells
and the rows' accumulators; `compute_all_rows` finalises the rows.

Scoped computations run over the items that map to at least one known
discipline; items whose categories are all unknown are excluded from
baselines, counts, and the AI denominators alike. Every item reads its
scopes from the taxonomy's `ScopePlan` for its category tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .corpus import DOC_BOOK, DOC_CHAPTER, ResolvedCorpus
from .taxonomy import SCOPE_DISCIPLINE, SCOPE_FIELD, ScopeEntry, TaxonomyMap


class Scope(NamedTuple):
    kind: str  # "field" | "discipline"
    name: str


@dataclass(frozen=True)
class BaselineCell:
    discipline: str
    doc_type: str
    year: int
    item_count: int
    citation_sum: int


@dataclass(frozen=True)
class BaselineTable:
    """The baseline cells, the accumulators `compute_all_rows` reads and the
    fingerprint of the corpus walked, as `compute_baselines` left them."""

    cells: dict[tuple[str, str, int], BaselineCell]
    fingerprint: str
    accs: dict[str, dict[int, _Acc]]  # publisher id -> scope id -> accumulator
    totals: dict[str, list[int]]  # publisher id -> [books, chapters] over scoped items
    scopes: list[Scope]  # by scope id
    cell_keys: list[tuple[str, str, int, int]]  # (discipline, doc_type, year, k) by cell id


@dataclass(frozen=True, slots=True)
class IndicatorRow:
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
    whole to all k cells."""
    fingerprint = corpus.fingerprint  # first: out of id order, its sorted keys go before the walk grows
    plans = taxonomy.plans
    # a chapter may come before its book
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

    for item, pid in corpus.pairs():
        dt = item.doc_type
        year = item.pub_year
        shape = (item.categories, dt, year)
        memo = parts_of.get(shape)
        if memo is None:
            shape_parts = []
            for entry in plans[item.categories].scopes:
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
        if not parts:
            continue
        cit = item.citations
        counts[n] += 1
        counts[n + 1] += cit
        is_book = dt == DOC_BOOK
        from_edited = dt == DOC_CHAPTER and item.parent_book_id in edited
        own = accs.get(pid)
        if own is None:
            own = accs[pid] = {}
            totals[pid] = [0, 0]
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

    cell_counts: dict[tuple[str, str, int], list[int]] = {}
    for (categories, dt, year), (_, n) in parts_of.items():
        for kind, d, _, _ in plans[categories].scopes:
            if kind == SCOPE_DISCIPLINE:
                cell = cell_counts.setdefault((d, dt, year), [0, 0])
                cell[0] += counts[n]
                cell[1] += counts[n + 1]
    cells = {key: BaselineCell(*key, n, s) for key, (n, s) in cell_counts.items()}
    return BaselineTable(cells, fingerprint, accs, totals, list(scope_ids), list(cell_ids))


def compute_all_rows(baselines: BaselineTable) -> dict[tuple[str, Scope], IndicatorRow]:
    """All indicator rows, finalised from the baselines' accumulators,
    which stay as they are.

    Produces one row per occupied (publisher, scope) pair; pairs with no
    items have all-zero indicators and no row. Every row equals the
    brute-force `testkit.oracle_indicators` exactly.
    """
    accs, totals, scopes = baselines.accs, baselines.totals, baselines.scopes

    # books over all publishers, and by scope id
    total_books = sum(books for books, _ in totals.values())
    books_by_scope = [0] * len(scopes)
    for own in accs.values():
        for sid, acc in own.items():
            books_by_scope[sid] += acc.pbk

    # by cell id: the cell mean over k as a reduced fraction p/q
    cells = baselines.cells
    means = []
    for d, dt, year, k in baselines.cell_keys:
        cell = cells[(d, dt, year)]
        q = k * cell.item_count
        g = gcd(cell.citation_sum, q)
        means.append((cell.citation_sum // g, q // g))

    rows: dict[tuple[str, Scope], IndicatorRow] = {}
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

            all_scope = books_by_scope[sid]
            if acc.pbk and own_total and all_scope:
                ai = acc.pbk * total_books / (own_total * all_scope)
            else:
                ai = 0.0

            ed = 100 * acc.edited_chapters / acc.pch if acc.pch else 0.0
            scope = scopes[sid]
            rows[(pid, scope)] = IndicatorRow(pid, scope, acc.pbk, acc.pch, acc.cit, fncs, ai, ed)
    return rows
