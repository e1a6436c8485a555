import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pubrank.errors import TaxonomyError
from pubrank.samples import sample_taxonomy_path
from pubrank.taxonomy import SCOPE_DISCIPLINE, SCOPE_FIELD, load_taxonomy
from util import csv_text, record


class Scopes:
    """The scope sets of an item with the given categories, read from the
    taxonomy's plan for its normalised category tuple."""

    def __init__(self, taxonomy, categories):
        plan = taxonomy.plans[tuple(sorted(set(categories)))]
        self.plan = plan
        self.disciplines = {e.name for e in plan if e.kind == SCOPE_DISCIPLINE}
        self.fields = {e.name for e in plan if e.kind == SCOPE_FIELD}
        self.unknown_categories = set(taxonomy.unknown_categories([categories]))


def test_sample_taxonomy_counts(taxonomy):
    assert taxonomy.field_count == 4
    assert taxonomy.discipline_count == 38
    assert taxonomy.category_count == 64


def test_field_and_discipline_lists_are_sorted(taxonomy):
    assert list(taxonomy.fields) == sorted(taxonomy.fields)
    assert list(taxonomy.disciplines) == sorted(taxonomy.disciplines)
    flattened = [d for f in taxonomy.fields for d in taxonomy.disciplines_by_field[f]]
    assert sorted(flattened) == list(taxonomy.disciplines)


def test_minimal_taxonomy(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("category,discipline,field\nC,D,F\n", encoding="utf-8")
    t = load_taxonomy(p)
    assert (t.field_count, t.discipline_count, t.category_count) == (1, 1, 1)
    assert t.disciplines_by_field == {"F": ("D",)}


def test_category_mapped_twice_is_fatal(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("category,discipline,field\nC,D1,F\nC,D2,F\n", encoding="utf-8")
    with pytest.raises(TaxonomyError, match="mapped twice"):
        load_taxonomy(p)


def test_discipline_under_two_fields_is_fatal(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("category,discipline,field\nC1,D,F1\nC2,D,F2\n", encoding="utf-8")
    with pytest.raises(TaxonomyError, match="two fields"):
        load_taxonomy(p)


def test_empty_taxonomy_is_fatal(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("category,discipline,field\n", encoding="utf-8")
    with pytest.raises(TaxonomyError, match="empty taxonomy"):
        load_taxonomy(p)


def test_empty_cell_is_fatal(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("category,discipline,field\nC,,F\n", encoding="utf-8")
    with pytest.raises(TaxonomyError, match="empty cell"):
        load_taxonomy(p)


@pytest.mark.parametrize(
    "row", [b"Extra Cat,History\n", b"Extra Cat,History,Humanities & Arts,surplus\n"],
    ids=["short", "long"],
)
def test_row_of_wrong_width_is_fatal(tmp_path, row):
    p = tmp_path / "t.csv"
    p.write_bytes(sample_taxonomy_path().read_bytes() + row)
    with pytest.raises(TaxonomyError, match="expected 3 cells"):
        load_taxonomy(p)


def test_header_cells_may_carry_spaces(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("category, discipline, field\nC,D,F\n", encoding="utf-8")
    assert load_taxonomy(p).discipline_of == {"C": "D"}


def test_row_order_never_changes_the_map(tmp_path):
    lines = sample_taxonomy_path().read_text(encoding="utf-8").splitlines()
    header, rows = lines[0], lines[1:]
    random.Random(5).shuffle(rows)
    p = tmp_path / "shuffled.csv"
    p.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    original = load_taxonomy(sample_taxonomy_path())
    shuffled = load_taxonomy(p)
    assert shuffled.fields == original.fields
    assert shuffled.disciplines == original.disciplines
    assert shuffled.discipline_of == original.discipline_of
    assert shuffled.disciplines_by_field == original.disciplines_by_field


def test_two_categories_one_discipline_deduplicate(taxonomy):
    # History and History & Philosophy Of Science share one discipline
    scopes = Scopes(taxonomy, ["History", "History & Philosophy Of Science"])
    assert scopes.disciplines == {"History"}
    assert scopes.fields == {"Humanities & Arts"}
    assert not scopes.unknown_categories


def test_categories_across_fields(taxonomy):
    scopes = Scopes(taxonomy, ["History", "Economics"])
    assert scopes.disciplines == {"History", "Economics"}
    assert scopes.fields == {"Humanities & Arts", "Social Sciences"}


def test_unknown_category_reported_and_skipped(taxonomy):
    scopes = Scopes(taxonomy, ["History", "Phrenology"])
    assert scopes.disciplines == {"History"}
    assert scopes.unknown_categories == {"Phrenology"}


def test_all_unknown_leaves_empty_scopes(taxonomy):
    scopes = Scopes(taxonomy, ["Phrenology"])
    assert not scopes.disciplines
    assert not scopes.fields
    assert scopes.unknown_categories == {"Phrenology"}


@given(data=st.data())
def test_scope_cardinality_chain(taxonomy, data):
    """|fields| <= |disciplines| <= |known categories|."""
    categories = data.draw(
        st.lists(st.sampled_from(sorted(taxonomy.discipline_of)), min_size=1, max_size=6)
    )
    scopes = Scopes(taxonomy, categories)
    assert len(scopes.fields) <= len(scopes.disciplines) <= len(set(categories))


@given(data=st.data())
def test_plan_matches_the_category_mapping(taxonomy, data):
    """A plan lists each discipline of the item once, then each field with
    exactly the item's disciplines in it; a second lookup returns the same
    plan. The map's unknown categories are the ones it does not map."""
    known = st.sampled_from(sorted(taxonomy.discipline_of))
    categories = data.draw(st.lists(known | st.text(max_size=3), min_size=1, max_size=6))
    key = tuple(sorted(set(categories)))
    plan = taxonomy.plans[key]
    assert taxonomy.plans[key] is plan
    discs = sorted({taxonomy.discipline_of[c] for c in key if c in taxonomy.discipline_of})
    members = {}
    for d in discs:
        members.setdefault(taxonomy.field_of[d], []).append(d)
    assert taxonomy.unknown_categories([key]) == tuple(c for c in key if c not in taxonomy.discipline_of)
    assert list(plan) == [(SCOPE_DISCIPLINE, d, (d,), 1) for d in discs] + [
        (SCOPE_FIELD, f, tuple(members[f]), len(members[f])) for f in sorted(members)
    ]


def test_plans_share_their_entries(taxonomy):
    alone = taxonomy.plans[("History",)]
    mixed = taxonomy.plans[("Economics", "History", "Phrenology")]
    history = next(e for e in mixed if e.name == "History")
    assert alone[0] is history
    assert taxonomy.plans[("History & Philosophy Of Science",)] == alone


def test_record_helper_round_trips_categories():
    rec = record("a", categories=("History", "Economics"))
    assert rec["categories"] == ["History", "Economics"]


@settings(max_examples=300, deadline=None)
@given(
    header=st.one_of(st.just(["category", "discipline", "field"]),
                     st.lists(st.text(max_size=6), max_size=4)),
    rows=st.lists(
        st.lists(st.one_of(st.sampled_from(["History", "Law", "Humanities", ""]),
                           st.text(max_size=10)), min_size=2, max_size=4),
        max_size=6,
    ),
)
def test_arbitrary_cells_load_or_raise_taxonomy_error(header, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "taxonomy.csv"
        path.write_text(csv_text([header, *rows]), encoding="utf-8", newline="")
        try:
            taxonomy = load_taxonomy(path)
        except TaxonomyError:
            return
    for category, discipline in taxonomy.discipline_of.items():
        assert category and discipline in taxonomy.disciplines_by_field[taxonomy.field_of[discipline]]
