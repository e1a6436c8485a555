import random

import pytest
from hypothesis import given, strategies as st

from pubrank.errors import TaxonomyError
from pubrank.samples import sample_taxonomy_path
from pubrank.taxonomy import load_taxonomy, scopes_of_item
from pubrank.corpus import ItemRecord
from util import record


def make_item(categories):
    return ItemRecord(
        item_id="x",
        doc_type="book",
        raw_publisher="Springer",
        pub_year=2010,
        categories=tuple(sorted(set(categories))),
        citations=0,
        is_serial=False,
        parent_book_id=None,
        book_is_edited=None,
    )


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
    scopes = scopes_of_item(make_item(["History", "History & Philosophy Of Science"]), taxonomy)
    assert scopes.disciplines == {"History"}
    assert scopes.fields == {"Humanities & Arts"}
    assert not scopes.unknown_categories


def test_categories_across_fields(taxonomy):
    scopes = scopes_of_item(make_item(["History", "Economics"]), taxonomy)
    assert scopes.disciplines == {"History", "Economics"}
    assert scopes.fields == {"Humanities & Arts", "Social Sciences"}


def test_unknown_category_reported_and_skipped(taxonomy):
    scopes = scopes_of_item(make_item(["History", "Phrenology"]), taxonomy)
    assert scopes.disciplines == {"History"}
    assert scopes.unknown_categories == {"Phrenology"}


def test_all_unknown_leaves_empty_scopes(taxonomy):
    scopes = scopes_of_item(make_item(["Phrenology"]), taxonomy)
    assert not scopes.disciplines
    assert not scopes.fields
    assert scopes.unknown_categories == {"Phrenology"}


@given(data=st.data())
def test_scope_cardinality_chain(taxonomy, data):
    """|fields| <= |disciplines| <= |known categories|."""
    categories = data.draw(
        st.lists(st.sampled_from(sorted(taxonomy.discipline_of)), min_size=1, max_size=6)
    )
    scopes = scopes_of_item(make_item(categories), taxonomy)
    assert len(scopes.fields) <= len(scopes.disciplines) <= len(set(categories))


def test_record_helper_round_trips_categories():
    rec = record("a", categories=("History", "Economics"))
    assert rec["categories"] == ["History", "Economics"]
