"""Eligibility thresholds, ordered ranking tables, and publisher profiles.

A publisher enters a ranking by meeting at least one of two thresholds
(books or chapters), evaluated either inside the ranking's own scope or
corpus-wide. Tables are ordered by PBK descending with a deterministic
alphabetical tie-break, so every table is a total order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .indicators import (
    SCOPE_DISCIPLINE,
    SCOPE_FIELD,
    BaselineTable,
    IndicatorRow,
    Scope,
    compute_all_rows,
)
from .registry import CanonicalPublisher, NameVariant, PublisherRegistry
from .taxonomy import TaxonomyMap

BASIS_SCOPE = "scope"
BASIS_GLOBAL = "global"


@dataclass(frozen=True)
class ThresholdPolicy:
    min_books: int = 5
    min_chapters: int = 50
    basis: str = BASIS_SCOPE

    def __post_init__(self):
        if self.min_books < 0 or self.min_chapters < 0:
            raise ConfigError("thresholds must be >= 0")
        if self.basis not in (BASIS_SCOPE, BASIS_GLOBAL):
            raise ConfigError(f"unknown threshold basis {self.basis!r}")


def check_eligibility(pbk: int, pch: int, policy: ThresholdPolicy) -> bool:
    """True iff either threshold is met. The caller supplies counts on the
    policy's basis: per-scope counts or corpus-wide ones."""
    return pbk >= policy.min_books or pch >= policy.min_chapters


@dataclass(frozen=True)
class RunMeta:
    corpus_fingerprint: str
    window: tuple[int, int]
    policy: ThresholdPolicy
    type_filter: str | None = None


@dataclass(frozen=True, slots=True)
class RankingEntry:
    publisher: CanonicalPublisher
    row: IndicatorRow


@dataclass(frozen=True)
class RankingTable:
    scope: Scope
    entries: tuple[RankingEntry, ...]
    meta: RunMeta

    def publisher_ids(self) -> tuple[str, ...]:
        return tuple(e.publisher.publisher_id for e in self.entries)


def _order_entries(entries: list[RankingEntry]) -> tuple[RankingEntry, ...]:
    # PBK descending, canonical name ascending (case-insensitive); names
    # are fold-unique across the registry, so this is a total order.
    return tuple(
        sorted(entries, key=lambda e: (-e.row.pbk, e.publisher.name.casefold(), e.publisher.name))
    )


def _table_for_scope(
    scope: Scope,
    rows: list[IndicatorRow],
    registry: PublisherRegistry,
    totals: dict[str, list[int]],  # publisher id -> corpus-wide [books, chapters]
    meta: RunMeta,
) -> RankingTable:
    """The ranking table of one scope, from that scope's rows."""
    policy = meta.policy
    entries = []
    for row in rows:
        pid = row.publisher_id
        pbk, pch = totals[pid] if policy.basis == BASIS_GLOBAL else (row.pbk, row.pch)
        if not check_eligibility(pbk, pch, policy):
            continue
        publisher = registry.publisher(pid)
        if meta.type_filter is not None and publisher.publisher_type != meta.type_filter:
            continue
        entries.append(RankingEntry(publisher, row))
    return RankingTable(scope=scope, entries=_order_entries(entries), meta=meta)


def build_all_rankings(
    registry: PublisherRegistry,
    taxonomy: TaxonomyMap,
    baselines: BaselineTable,
    policy: ThresholdPolicy,
    window: tuple[int, int] = (0, 0),
    type_filter: str | None = None,
) -> list[RankingTable]:
    """One table per field then one per discipline, in taxonomy order.

    Rows and run metadata both come from the baselines, the one walk over
    the corpus; the 4-field/38-discipline sample taxonomy therefore yields
    its 42 tables from a single aggregation pass.
    """
    rows = compute_all_rows(baselines)
    totals = baselines.totals
    meta = RunMeta(baselines.fingerprint, window, policy, type_filter=type_filter)
    del baselines  # its accumulators go before the tables grow, unless the caller keeps it

    # rows bucketed by scope in one pass, keeping their order
    by_scope: dict[Scope, list[IndicatorRow]] = {}
    for row in rows.values():
        by_scope.setdefault(row.scope, []).append(row)

    scopes = [Scope(SCOPE_FIELD, f) for f in taxonomy.fields] + [
        Scope(SCOPE_DISCIPLINE, d) for d in taxonomy.disciplines
    ]
    return [
        _table_for_scope(scope, by_scope.get(scope, []), registry, totals, meta)
        for scope in scopes
    ]


@dataclass(frozen=True)
class PublisherProfile:
    publisher: CanonicalPublisher
    variants: tuple[NameVariant, ...]
    rows: tuple[IndicatorRow, ...]  # one per scope where the publisher ranks


def build_profile(
    publisher_id: str, rankings: list[RankingTable], registry: PublisherRegistry
) -> PublisherProfile:
    """Registry data, name variants, and the publisher's row from every
    table it appears in, sorted by PBK descending."""
    publisher = registry.publisher(publisher_id)  # raises UnknownPublisherError
    rows = [e.row for t in rankings for e in t.entries if e.publisher.publisher_id == publisher_id]
    rows.sort(key=lambda r: (-r.pbk, r.scope))
    return PublisherProfile(
        publisher=publisher,
        variants=registry.variants_of(publisher_id),
        rows=tuple(rows),
    )
