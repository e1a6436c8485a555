import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pubrank.errors import (
    AcquisitionCycleError,
    RegistryError,
    UnknownPublisherError,
    UnresolvedPublisherError,
)
from pubrank.registry import fold_name, load_registry, load_registry_dir
from util import csv_text, write_registry


def test_fold_name_trims_collapses_and_casefolds():
    assert fold_name("  Taylor   &  Francis ") == "taylor & francis"
    assert fold_name("ELSEVIER") == "elsevier"
    assert fold_name("a\tb\nc") == "a b c"


class TestSampleRegistry:
    def test_loads_all_publishers(self, registry):
        assert len(registry.publishers) == 16
        assert registry.publishers["cambridge-university-press"].publisher_type == "university_press"
        assert registry.publishers["elsevier"].publisher_type == "commercial"

    def test_elsevier_has_fifteen_variants(self, registry):
        variants = registry.variants_of("elsevier")
        assert len(variants) == 15
        raws = {v.raw for v in variants}
        assert {"Pergamon", "Academic Press", "North Holland"} <= raws
        # city/address carried through where registered
        by_raw = {v.raw: v for v in variants}
        assert by_raw["Pergamon Press"].city == "Oxford"
        assert by_raw["Academic Press"].address == "525 B Street"

    def test_every_elsevier_variant_resolves_to_elsevier(self, registry):
        for variant in registry.variants_of("elsevier"):
            assert registry.resolve(variant.raw) == "elsevier"

    def test_imprints_fold_into_elsevier(self, registry):
        assert registry.resolve("Pergamon") == "elsevier"
        assert registry.resolve("Academic Press") == "elsevier"
        assert registry.resolve("North Holland") == "elsevier"

    def test_willan_resolves_to_taylor_francis(self, registry):
        assert registry.resolve("WILLAN PUBL") == "taylor-francis"
        assert registry.resolve("Willan Publishing") == "taylor-francis"

    def test_ak_peters_resolves_to_crc(self, registry):
        assert registry.resolve("AK Peters") == "crc-press"
        assert registry.terminal["ak-peters"] == "crc-press"

    def test_registry_id_resolves_before_name_forms(self, registry):
        # neither id is the folded form of any name
        assert registry.resolve("ak-peters") == "crc-press"
        assert registry.resolve("cambridge-university-press") == "cambridge-university-press"

    def test_canonical_name_of_terminal_publisher_is_identity(self, registry):
        assert registry.resolve("Springer") == "springer"
        assert registry.terminal["springer"] == "springer"

    def test_terminal_is_a_closure(self, registry):
        for pid in registry.publishers:
            t = registry.terminal[pid]
            assert registry.terminal[t] == t

    def test_unresolved_carries_folded_string(self, registry):
        with pytest.raises(UnresolvedPublisherError) as err:
            registry.resolve("  No Such  HOUSE ")
        assert err.value.folded == "no such house"

    def test_unknown_publisher_id(self, registry):
        with pytest.raises(UnknownPublisherError):
            registry.publisher("nonexistent")
        with pytest.raises(UnknownPublisherError):
            registry.variants_of("nonexistent")


@given(st.text(alphabet=" \t", min_size=0, max_size=3),
       st.text(alphabet=" \t", min_size=1, max_size=4),
       st.booleans())
def test_folding_invariance(prefix, inner, upper):
    """Case and whitespace mangling never changes resolution."""
    base = "Nova Science Publishers"
    mangled = prefix + base.replace(" ", inner, 1)
    if upper:
        mangled = mangled.upper()
    assert fold_name(mangled) == fold_name(base)


def test_acquisition_chain_resolves_transitively(tmp_path):
    d = write_registry(
        tmp_path,
        [("a", "Alpha", "commercial"), ("b", "Beta", "commercial"), ("c", "Gamma", "commercial")],
        acquisitions=[("a", "b", "2001"), ("b", "c", "")],
    )
    registry = load_registry_dir(d)
    assert registry.terminal["a"] == "c"
    assert registry.terminal["b"] == "c"
    assert registry.resolve("Alpha") == "c"
    assert registry.acquisitions[0].year == 2001
    assert registry.acquisitions[1].year is None


def test_two_cycle_is_fatal_and_names_members(tmp_path):
    d = write_registry(
        tmp_path,
        [("a", "Alpha", "commercial"), ("b", "Beta", "commercial")],
        acquisitions=[("a", "b"), ("b", "a")],
    )
    with pytest.raises(AcquisitionCycleError) as err:
        load_registry_dir(d)
    assert set(err.value.members) >= {"a", "b"}


def test_empty_acquisitions_file_is_valid(tmp_path):
    d = write_registry(tmp_path, [("a", "Alpha", "commercial")])
    registry = load_registry_dir(d)
    assert registry.terminal["a"] == "a"


@pytest.mark.parametrize(
    "publishers,variants,acquisitions,fragment",
    [
        ([("a", "Alpha", "commercial"), ("a", "Other", "commercial")], [], [], "duplicate publisher id"),
        ([("a", "", "commercial")], [], [], "empty name"),
        ([("a", "Alpha", "weird")], [], [], "unknown type"),
        ([("a", "Alpha", "commercial")], [("Alpha Press", "zz")], [], "unknown publisher"),
        ([("a", "Alpha", "commercial"), ("b", "Beta", "commercial")],
         [("Shared", "a"), ("SHARED", "b")], [], "folds to"),
        ([("a", "Alpha", "commercial"), ("b", "Beta", "commercial")],
         [("Shared Name", "a"), ("shared  name", "a")], [], "duplicate folded"),
        ([("a", "Alpha", "commercial"), ("b", "Beta", "commercial")],
         [("Beta", "a")], [], "folds to"),
        ([("a", "Alpha", "commercial")], [], [("a", "a")], "cannot acquire itself"),
        ([("a", "Alpha", "commercial"), ("b", "Beta", "commercial"), ("c", "Gamma", "commercial")],
         [], [("a", "b"), ("a", "c")], "two acquirers"),
        ([("a", "Alpha", "commercial")], [], [("a", "zz")], "unknown publisher"),
        ([["a", "Alpha"]], [], [], "expected 4 cells"),
        ([("a", "Alpha", "commercial"), ("b", "Beta", "commercial")],
         [], [("a", "b", "abc")], "expected an integer"),
        # a cell past the csv module's field size limit (128 KiB)
        ([("a", "Alpha", "commercial", "x" * 200_000)], [], [], "malformed CSV"),
    ],
)
def test_load_validation_errors(tmp_path, publishers, variants, acquisitions, fragment):
    d = write_registry(tmp_path, publishers, variants, acquisitions)
    with pytest.raises(RegistryError) as err:
        load_registry_dir(d)
    assert fragment in str(err.value)


def test_explicit_variant_may_repeat_its_own_canonical_name(tmp_path):
    d = write_registry(
        tmp_path,
        [("a", "Alpha", "commercial")],
        variants=[("Alpha", "a", "Lisbon", "")],
    )
    registry = load_registry_dir(d)
    assert registry.resolve("alpha") == "a"
    assert registry.variants_of("a")[0].city == "Lisbon"


def test_two_publishers_sharing_a_folded_canonical_name_fatal(tmp_path):
    d = write_registry(
        tmp_path,
        [("a", "Alpha Press", "commercial"), ("b", "ALPHA  PRESS", "commercial")],
    )
    with pytest.raises(RegistryError):
        load_registry_dir(d)


def test_missing_file_is_fatal(tmp_path):
    with pytest.raises(RegistryError):
        load_registry_dir(tmp_path)


def test_header_cells_may_carry_spaces(tmp_path):
    write_registry(tmp_path, [("a", "Alpha", "commercial")])
    (tmp_path / "publishers.csv").write_text(
        "id, name, type, website\na, Alpha, commercial,\n", encoding="utf-8"
    )
    registry = load_registry_dir(tmp_path)
    assert registry.publisher("a").name == "Alpha"


def test_bad_header_is_fatal(tmp_path):
    write_registry(tmp_path, [("a", "Alpha", "commercial")])
    (tmp_path / "publishers.csv").write_text("wrong,header\n", encoding="utf-8")
    with pytest.raises(RegistryError):
        load_registry_dir(tmp_path)


REGISTRY_CELLS = st.one_of(
    st.sampled_from(["a", "b", "Alpha", "alpha", "commercial", "university_press", "2010", ""]),
    st.text(max_size=10),
)


@st.composite
def registry_csv(draw, header):
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.lists(st.text(max_size=6), max_size=5))
    width = len(header)
    rows = st.lists(REGISTRY_CELLS, min_size=max(width - 1, 0), max_size=width + 1)
    return csv_text([header, *draw(st.lists(rows, max_size=5))])


@settings(max_examples=300, deadline=None)
@given(
    publishers=registry_csv(["id", "name", "type", "website"]),
    variants=registry_csv(["raw", "canonical_id", "city", "address"]),
    acquisitions=registry_csv(["acquired_id", "acquirer_id", "year"]),
)
def test_arbitrary_cells_load_or_raise_registry_error(publishers, variants, acquisitions):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("p.csv", "v.csv", "a.csv")]
        for path, text in zip(paths, (publishers, variants, acquisitions)):
            path.write_text(text, encoding="utf-8", newline="")
        try:
            registry = load_registry(*paths)
        except RegistryError:
            return
    for terminal in registry.terminal.values():
        assert registry.terminal[terminal] == terminal
