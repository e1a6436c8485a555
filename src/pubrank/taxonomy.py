"""Subject-category aggregation: category -> discipline -> field.

Both levels are many-to-one, so each category has exactly one discipline
and each discipline exactly one field. Scope membership of an item is a
set image of its categories: an item never counts twice in one scope no
matter how many of its categories land there.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .csvfile import read_csv
from .errors import TaxonomyError

if TYPE_CHECKING:
    from .corpus import ItemRecord


@dataclass(frozen=True)
class TaxonomyMap:
    discipline_of: dict[str, str]  # category -> discipline
    field_of: dict[str, str]  # discipline -> field
    fields: tuple[str, ...]  # sorted; stable under row reordering
    disciplines: tuple[str, ...]  # sorted
    disciplines_by_field: dict[str, tuple[str, ...]]

    @property
    def field_count(self) -> int:
        return len(self.fields)

    @property
    def discipline_count(self) -> int:
        return len(self.disciplines)

    @property
    def category_count(self) -> int:
        return len(self.discipline_of)


@dataclass(frozen=True)
class ItemScopes:
    disciplines: frozenset[str]
    fields: frozenset[str]
    unknown_categories: frozenset[str]


def load_taxonomy(source: str | Path) -> TaxonomyMap:
    """Load and validate a taxonomy CSV (category,discipline,field).

    Fatal: a fault of the file itself (see `csvfile.read_csv`), an empty
    cell, a category mapped twice, a discipline under two fields, or an
    empty taxonomy. The ordered field/discipline lists are sorted so a
    reload is independent of row order.
    """
    path = Path(source)
    rows = read_csv(path, ["category", "discipline", "field"], TaxonomyError)

    discipline_of: dict[str, str] = {}
    field_of: dict[str, str] = {}
    for row in rows:
        category = row["category"].strip()
        discipline = row["discipline"].strip()
        fieldname = row["field"].strip()
        if not category or not discipline or not fieldname:
            raise TaxonomyError(f"{path}: row with empty cell: {row}")
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


def scopes_of_item(item: "ItemRecord", taxonomy: TaxonomyMap) -> ItemScopes:
    """Set of disciplines and fields an item belongs to.

    Unknown categories are skipped and reported back; an item whose
    categories are all unknown has empty scope sets and is excluded from
    scoped computations by the callers.
    """
    disciplines = set()
    unknown = set()
    for category in item.categories:
        discipline = taxonomy.discipline_of.get(category)
        if discipline is None:
            unknown.add(category)
        else:
            disciplines.add(discipline)
    fields = {taxonomy.field_of[d] for d in disciplines}
    return ItemScopes(frozenset(disciplines), frozenset(fields), frozenset(unknown))
