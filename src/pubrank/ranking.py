"""Eligibility thresholds, ordered ranking tables, and publisher profiles.

A publisher enters a ranking by meeting at least one of two thresholds
(books or chapters), evaluated either inside the ranking's own scope or
corpus-wide. Tables are ordered by PBK descending with a deterministic
alphabetical tie-break, so every table is a total order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

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


class RunMeta(NamedTuple):
    corpus_fingerprint: str | None  # None when no JSON ranking is written, so nothing hashed
    window: tuple[int, int]
    policy: ThresholdPolicy
    type_filter: str | None = None


class RankingTable(NamedTuple):
    scope: Scope
    entries: tuple[IndicatorRow, ...]  # the scope's ranked rows, in rank order
    meta: RunMeta
    publishers: dict[str, CanonicalPublisher]  # the registry's, by id; shared, not copied

    def publisher_ids(self) -> tuple[str, ...]:
        return tuple(row.publisher_id for row in self.entries)


def _order_entries(
    rows: Iterable[IndicatorRow], publishers: dict[str, CanonicalPublisher]
) -> tuple[IndicatorRow, ...]:
    # PBK descending, canonical name ascending (case-insensitive); names
    # are fold-unique across the registry, so this is a total order.
    def key(row: IndicatorRow) -> tuple[int, str, str]:
        name = publishers[row.publisher_id].name
        return -row.pbk, name.casefold(), name
    return tuple(sorted(rows, key=key))


def _ranked(
    rows: Iterable[IndicatorRow],
    publishers: dict[str, CanonicalPublisher],
    totals: dict[str, list[int]],  # publisher id -> corpus-wide [books, chapters]
    policy: ThresholdPolicy,
    type_filter: str | None,
) -> Iterator[IndicatorRow]:
    """The rows a reader sees, in the given order: those eligible on the
    policy's basis whose publisher is of the filtered type, if there is a
    filter. Tables and profiles both take their rows here."""
    for row in rows:
        pid = row.publisher_id
        pbk, pch = totals[pid] if policy.basis == BASIS_GLOBAL else (row.pbk, row.pch)
        if not check_eligibility(pbk, pch, policy):
            continue
        if type_filter is not None and publishers[pid].publisher_type != type_filter:
            continue
        yield row


def build_all_rankings(
    registry: PublisherRegistry,
    taxonomy: TaxonomyMap,
    baselines: BaselineTable,
    policy: ThresholdPolicy,
    window: tuple[int, int] = (0, 0),
    type_filter: str | None = None,
    fingerprint: str | None = None,
) -> list[RankingTable]:
    """One table per field then one per discipline, in taxonomy order.

    Rows come from the baselines, the one walk over the corpus; the
    4-field/38-discipline sample taxonomy therefore yields its 42 tables
    from a single aggregation pass. Every table's run metadata carries the
    given corpus fingerprint, which the walk never takes.
    """
    rows = compute_all_rows(baselines)
    totals = baselines.totals
    meta = RunMeta(fingerprint, window, policy, type_filter=type_filter)
    del baselines  # its accumulators go before the tables grow, unless the caller keeps it

    # rows bucketed by scope in one pass, keeping their order
    by_scope: dict[Scope, list[IndicatorRow]] = {}
    for row in rows:
        by_scope.setdefault(row.scope, []).append(row)

    scopes = [Scope(SCOPE_FIELD, f) for f in taxonomy.fields] + [
        Scope(SCOPE_DISCIPLINE, d) for d in taxonomy.disciplines
    ]
    publishers = registry.publishers
    tables = []
    for scope in scopes:
        ranked = _ranked(by_scope.get(scope, []), publishers, totals, policy, type_filter)
        tables.append(RankingTable(scope, _order_entries(ranked, publishers), meta, publishers))
    return tables


class PublisherProfile(NamedTuple):
    publisher: CanonicalPublisher
    variants: tuple[NameVariant, ...]
    rows: tuple[IndicatorRow, ...]  # one per scope where the publisher ranks


def build_profile(
    publisher_id: str,
    table: BaselineTable,
    registry: PublisherRegistry,
    policy: ThresholdPolicy,
    type_filter: str | None = None,
) -> PublisherProfile:
    """Registry data, name variants, and the publisher's row in every scope
    where it ranks, sorted by PBK descending: the rows `_ranked` lets through
    of those finalised from its accumulators alone, so no other row is made."""
    publisher = registry.publisher(publisher_id)  # raises UnknownPublisherError
    own = {publisher_id: table.accs[publisher_id]} if publisher_id in table.accs else {}
    own_rows = compute_all_rows(table._replace(accs=own))
    rows = list(_ranked(own_rows, registry.publishers, table.totals, policy, type_filter))
    rows.sort(key=lambda r: (-r.pbk, r.scope))
    return PublisherProfile(
        publisher=publisher,
        variants=registry.variants_of(publisher_id),
        rows=tuple(rows),
    )
