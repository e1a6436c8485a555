"""Subject-category aggregation: category -> discipline -> field.

Both levels are many-to-one, so each category has exactly one discipline
and each discipline exactly one field. Scope membership of an item is a
set image of its categories: an item never counts twice in one scope no
matter how many of its categories land there. `TaxonomyMap.plans` holds
that image once per distinct category tuple, as a tuple of `ScopeEntry`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, NamedTuple

from .csvfile import read_csv
from .errors import TaxonomyError

SCOPE_FIELD = "field"
SCOPE_DISCIPLINE = "discipline"


class ScopeEntry(NamedTuple):
    """One scope an item falls in, with the item's disciplines inside it."""

    kind: str  # SCOPE_FIELD | SCOPE_DISCIPLINE
    name: str
    members: tuple[str, ...]  # sorted; (name,) for a discipline scope
    k: int  # len(members): the divisor of the item's expected citations


class ScopePlans(dict):
    """category tuple -> the scopes where the items with those categories
    count: their disciplines, then their fields, each sorted. Each plan is
    built on first lookup, and plans share their ScopeEntry objects. An
    item whose categories are all unknown has no scopes and is excluded
    from scoped computations by the callers."""

    def __init__(self, discipline_of: dict[str, str], field_of: dict[str, str]):
        super().__init__()
        self._discipline_of = discipline_of
        self._field_of = field_of
        self._entries: dict[tuple[str, str, tuple[str, ...]], ScopeEntry] = {}

    def _entry(self, kind: str, name: str, members: tuple[str, ...]) -> ScopeEntry:
        key = (kind, name, members)
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = ScopeEntry(kind, name, members, len(members))
        return entry

    def __missing__(self, categories: tuple[str, ...]) -> tuple[ScopeEntry, ...]:
        discipline_of = self._discipline_of
        disciplines = sorted({discipline_of[c] for c in categories if c in discipline_of})
        by_field: dict[str, list[str]] = {}
        for d in disciplines:
            by_field.setdefault(self._field_of[d], []).append(d)
        scopes = [self._entry(SCOPE_DISCIPLINE, d, (d,)) for d in disciplines]
        scopes += [self._entry(SCOPE_FIELD, f, tuple(ds)) for f, ds in sorted(by_field.items())]
        plan = self[categories] = tuple(scopes)
        return plan


class TaxonomyMap:
    def __init__(self, discipline_of, field_of, fields, disciplines, disciplines_by_field):
        self.discipline_of: dict[str, str] = discipline_of  # category -> discipline
        self.field_of: dict[str, str] = field_of  # discipline -> field
        self.fields: tuple[str, ...] = fields  # sorted; stable under row reordering
        self.disciplines: tuple[str, ...] = disciplines  # sorted
        self.disciplines_by_field: dict[str, tuple[str, ...]] = disciplines_by_field
        # one plan per item category tuple looked up, for as long as this map
        # lives, so one run builds each plan once
        self.plans = ScopePlans(discipline_of, field_of)

    @property
    def field_count(self) -> int:
        return len(self.fields)

    @property
    def discipline_count(self) -> int:
        return len(self.disciplines)

    @property
    def category_count(self) -> int:
        return len(self.discipline_of)

    def unknown_categories(self, category_tuples: Iterable[tuple[str, ...]]) -> tuple[str, ...]:
        """The categories of the given tuples that this map does not map, sorted."""
        discipline_of = self.discipline_of
        unknown = {c for categories in category_tuples for c in categories if c not in discipline_of}
        return tuple(sorted(unknown))


def load_taxonomy(source: str | Path) -> TaxonomyMap:
    """Load and validate a taxonomy CSV (category,discipline,field).

    Fatal: a fault of the file itself (see `csvfile.read_csv`), an empty
    cell, a category mapped twice, a discipline under two fields, or an
    empty taxonomy. The ordered field/discipline lists are sorted so a
    reload is independent of row order.
    """
    path = Path(source)
    header = ["category", "discipline", "field"]

    discipline_of: dict[str, str] = {}
    field_of: dict[str, str] = {}
    for row in read_csv(path, header, TaxonomyError):
        category, discipline, fieldname = map(str.strip, row)
        if not category or not discipline or not fieldname:
            raise TaxonomyError(f"{path}: row with empty cell: {dict(zip(header, row))}")
        if category in discipline_of:
            raise TaxonomyError(f"category {category!r} mapped twice")
        discipline_of[category] = discipline
        existing = field_of.get(discipline)
        if existing is not None and existing != fieldname:
            raise TaxonomyError(
                f"discipline {discipline!r} assigned to two fields: {existing!r} and {fieldname!r}"
            )
        field_of[discipline] = fieldname

    if not discipline_of:
        raise TaxonomyError(f"{path}: empty taxonomy")

    disciplines = tuple(sorted(field_of))
    fields = tuple(sorted(set(field_of.values())))
    by_field: dict[str, list[str]] = {f: [] for f in fields}
    for discipline in disciplines:
        by_field[field_of[discipline]].append(discipline)
    return TaxonomyMap(
        discipline_of=discipline_of,
        field_of=field_of,
        fields=fields,
        disciplines=disciplines,
        disciplines_by_field={f: tuple(ds) for f, ds in by_field.items()},
    )
