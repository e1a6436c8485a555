"""Publisher identity resolution: name variants, types, and acquisitions.

The registry is plain data loaded from three CSV files. Matching is exact
after folding (trim, collapse whitespace, casefold); there is deliberately
no fuzzy matching, so every raw form seen in a corpus must be registered
either as a variant or as a canonical name.
"""

from __future__ import annotations

from pathlib import Path
from typing import Collection, NamedTuple

from .csvfile import read_csv
from .errors import (
    AcquisitionCycleError,
    RegistryError,
    UnknownPublisherError,
    UnresolvedPublisherError,
)

PUBLISHER_TYPES = ("commercial", "university_press")

PUBLISHERS_FILE = "publishers.csv"
VARIANTS_FILE = "variants.csv"
ACQUISITIONS_FILE = "acquisitions.csv"


def fold_name(raw: str) -> str:
    """Normalize a raw publisher string for matching: trim, collapse runs
    of whitespace, casefold."""
    return " ".join(raw.split()).casefold()


class CanonicalPublisher(NamedTuple):
    publisher_id: str
    name: str
    publisher_type: str
    website: str | None = None


class NameVariant(NamedTuple):
    raw: str
    canonical: str
    city: str | None = None
    address: str | None = None


class AcquisitionEvent(NamedTuple):
    acquired: str
    acquirer: str
    year: int | None = None


class PublisherRegistry:
    def __init__(self, publishers, variants, variant_rows, acquisitions, terminal):
        self.publishers: dict[str, CanonicalPublisher] = publishers
        self.variants: dict[str, str] = variants  # folded raw -> publisher_id
        self.variant_rows: tuple[NameVariant, ...] = variant_rows
        self.acquisitions: tuple[AcquisitionEvent, ...] = acquisitions
        self.terminal: dict[str, str] = terminal  # publisher_id -> terminal owner
        # what lookup found, per raw string, so each distinct raw string is
        # folded and matched once for the life of the registry: the terminal
        # id of a matched string, the folded form of an unmatched one
        self._matched: dict[str, str] = {}
        self._unmatched: dict[str, str] = {}

    def lookup(self, raw: str) -> tuple[str | None, str | None]:
        """Fold a raw publisher string, match it against the variant map, and
        follow acquisitions to the terminal owner, whatever the years
        involved: (terminal publisher id, None), or (None, the folded
        string) when no variant matches."""
        publisher_id = self._matched.get(raw)
        if publisher_id is not None:
            return publisher_id, None
        folded = self._unmatched.get(raw)
        if folded is None:
            folded = fold_name(raw)
            publisher_id = self.variants.get(folded)
            if publisher_id is not None:
                publisher_id = self._matched[raw] = self.terminal[publisher_id]
                return publisher_id, None
            self._unmatched[raw] = folded
        return None, folded

    def resolve(self, raw: str) -> str:
        """The terminal publisher id of a registry id, or else of a name form
        as `lookup` finds it. Raises UnresolvedPublisherError when neither
        matches; the caller decides whether that is fatal (strict) or an
        exclusion."""
        if raw in self.publishers:
            return self.terminal[raw]
        publisher_id, folded = self.lookup(raw)
        if publisher_id is None:
            raise UnresolvedPublisherError(folded)
        return publisher_id

    def publisher(self, publisher_id: str) -> CanonicalPublisher:
        try:
            return self.publishers[publisher_id]
        except KeyError:
            raise UnknownPublisherError(publisher_id) from None

    def variants_of(self, publisher_id: str) -> tuple[NameVariant, ...]:
        """Registered variant rows pointing at a publisher, sorted by raw form."""
        if publisher_id not in self.publishers:
            raise UnknownPublisherError(publisher_id)
        rows = [v for v in self.variant_rows if v.canonical == publisher_id]
        return tuple(sorted(rows, key=lambda v: fold_name(v.raw)))


def load_registry(
    publishers_source: str | Path,
    variants_source: str | Path,
    acquisitions_source: str | Path,
) -> PublisherRegistry:
    """Load and validate the three registry files.

    Validation: unique publisher ids, non-empty names, known types,
    fold-unique variants, referential integrity, and an acyclic
    acquisition graph. Any violation is fatal.
    """
    publishers: dict[str, CanonicalPublisher] = {}
    for row in read_csv(publishers_source, ["id", "name", "type", "website"], RegistryError):
        pid, name, ptype, website = map(str.strip, row)
        if not pid:
            raise RegistryError("publisher row with empty id")
        if pid in publishers:
            raise RegistryError(f"duplicate publisher id {pid!r}")
        if not name:
            raise RegistryError(f"publisher {pid!r} has empty name")
        if ptype not in PUBLISHER_TYPES:
            raise RegistryError(
                f"publisher {pid!r} has unknown type {ptype!r}, expected one of {PUBLISHER_TYPES}"
            )
        publishers[pid] = CanonicalPublisher(pid, name, ptype, website or None)
    if not publishers:
        raise RegistryError("registry has no publishers")

    # Canonical names resolve implicitly; explicit rows may not contradict them.
    variants: dict[str, str] = {}
    for pub in publishers.values():
        folded = fold_name(pub.name)
        if folded in variants:
            raise RegistryError(
                f"publishers {variants[folded]!r} and {pub.publisher_id!r} share the folded name {folded!r}"
            )
        variants[folded] = pub.publisher_id

    variant_rows: list[NameVariant] = []
    folded_rows: list[str] = []
    variant_header = ["raw", "canonical_id", "city", "address"]
    for row in read_csv(variants_source, variant_header, RegistryError):
        raw, canonical, city, address = map(str.strip, row)
        if not raw:
            raise RegistryError("variant row with empty raw string")
        if canonical not in publishers:
            raise RegistryError(f"variant {raw!r} points at unknown publisher {canonical!r}")
        folded = fold_name(raw)
        existing = variants.get(folded)
        if existing is not None and existing != canonical:
            raise RegistryError(
                f"variant {raw!r} folds to {folded!r} which already maps to {existing!r}"
            )
        variants[folded] = canonical
        folded_rows.append(folded)
        variant_rows.append(NameVariant(raw, canonical, city or None, address or None))
    if len(set(folded_rows)) != len(folded_rows):
        dupes = sorted({f for f in folded_rows if folded_rows.count(f) > 1})
        raise RegistryError(f"duplicate folded variants: {dupes}")

    acquisitions: list[AcquisitionEvent] = []
    acquirer_of: dict[str, str] = {}
    for row in read_csv(acquisitions_source, ["acquired_id", "acquirer_id", "year"], RegistryError):
        acquired, acquirer, year_text = map(str.strip, row)
        for pid in (acquired, acquirer):
            if pid not in publishers:
                raise RegistryError(f"acquisition references unknown publisher {pid!r}")
        if acquired == acquirer:
            raise RegistryError(f"publisher {acquired!r} cannot acquire itself")
        if acquired in acquirer_of:
            raise RegistryError(f"publisher {acquired!r} has two acquirers")
        try:
            year = int(year_text) if year_text else None
        except ValueError:
            raise RegistryError(
                f"acquisition of {acquired!r} has year {year_text!r}, expected an integer"
            ) from None
        acquirer_of[acquired] = acquirer
        acquisitions.append(AcquisitionEvent(acquired, acquirer, year))

    terminal = _terminal_map(publishers.keys(), acquirer_of)

    return PublisherRegistry(
        publishers=publishers,
        variants=variants,
        variant_rows=tuple(variant_rows),
        acquisitions=tuple(acquisitions),
        terminal=terminal,
    )


def load_registry_dir(directory: str | Path) -> PublisherRegistry:
    """Load a registry from a directory holding the three standard files."""
    d = Path(directory)
    return load_registry(d / PUBLISHERS_FILE, d / VARIANTS_FILE, d / ACQUISITIONS_FILE)


def _terminal_map(publisher_ids: Collection[str], acquirer_of: dict[str, str]) -> dict[str, str]:
    """Resolve every publisher to its terminal owner, rejecting cycles. One
    that nothing acquires is its own; chains start only at acquired ones."""
    terminal = {pid: pid for pid in publisher_ids if pid not in acquirer_of}
    for start in publisher_ids:
        if start in terminal:
            continue
        chain = [start]
        seen = {start}
        current = start
        while current in acquirer_of:
            current = acquirer_of[current]
            if current in terminal:
                current = terminal[current]
                break
            if current in seen:
                cycle_start = chain.index(current)
                raise AcquisitionCycleError(chain[cycle_start:] + [current])
            chain.append(current)
            seen.add(current)
        for pid in chain:
            terminal[pid] = current
    return terminal
