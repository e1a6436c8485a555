"""The exact text of every error the registry and taxonomy loaders raise.

Each case writes the input files, loads them, and compares the whole
message, with the directory written as `DIR`. The texts are what a user
reads after `pubrank: ` on stderr, so a change to any of them is a change
of output.
"""

import pytest

from pubrank.errors import RegistryError, TaxonomyError
from pubrank.registry import load_registry_dir
from pubrank.taxonomy import load_taxonomy

P_HEADER = "id,name,type,website\n"
V_HEADER = "raw,canonical_id,city,address\n"
A_HEADER = "acquired_id,acquirer_id,year\n"
PUBLISHERS = P_HEADER + "a,Alpha,commercial,\nb,Beta,university_press,\n"
P_EXPECTED = "['id', 'name', 'type', 'website']"


def _write(path, text):
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))


def registry_error(tmp_path, publishers=PUBLISHERS, variants=V_HEADER, acquisitions=A_HEADER):
    for name, text in (
        ("publishers.csv", publishers),
        ("variants.csv", variants),
        ("acquisitions.csv", acquisitions),
    ):
        if text is not None:
            _write(tmp_path / name, text)
    with pytest.raises(RegistryError) as err:
        load_registry_dir(tmp_path)
    return str(err.value).replace(str(tmp_path), "DIR")


def taxonomy_error(tmp_path, text):
    _write(tmp_path / "t.csv", text)
    with pytest.raises(TaxonomyError) as err:
        load_taxonomy(tmp_path / "t.csv")
    return str(err.value).replace(str(tmp_path), "DIR")


FILE_FAULTS = {
    "empty file": (
        "",
        f"DIR/publishers.csv: empty file, expected header {P_EXPECTED}",
    ),
    "blank first line": (
        "\n" + PUBLISHERS,
        f"DIR/publishers.csv: bad header [], expected {P_EXPECTED}",
    ),
    "wrong header": (
        " id,nom,type\na,Alpha,commercial\n",
        f"DIR/publishers.csv: bad header [' id', 'nom', 'type'], expected {P_EXPECTED}",
    ),
    "short row": (
        PUBLISHERS + "c,Gamma,commercial\n",
        "DIR/publishers.csv: line 4: expected 4 cells",
    ),
    "long row": (
        PUBLISHERS + "c,Gamma,commercial,,surplus\n",
        "DIR/publishers.csv: line 4: expected 4 cells",
    ),
    "short row after blank lines": (
        P_HEADER + "a,Alpha,commercial,\n\n\r\n\nc\n",
        "DIR/publishers.csv: line 6: expected 4 cells",
    ),
    "width checked before content": (
        P_HEADER + "a,Alpha,commercial,\na,Again,commercial,\nc\n",
        "DIR/publishers.csv: line 4: expected 4 cells",
    ),
    "not UTF-8": (
        P_HEADER.encode() + b"a,Caf\xe9,commercial,\n",
        "DIR/publishers.csv is not UTF-8: 'utf-8' codec can't decode byte 0xe9 "
        "in position 26: invalid continuation byte",
    ),
    "field over the size limit": (
        P_HEADER + "a,Alpha,commercial," + "x" * 200_000 + "\n",
        "DIR/publishers.csv: malformed CSV: field larger than field limit (131072)",
    ),
}


@pytest.mark.parametrize("text,expected", FILE_FAULTS.values(), ids=FILE_FAULTS.keys())
def test_file_fault_text(tmp_path, text, expected):
    assert registry_error(tmp_path, publishers=text) == expected


def test_missing_file_text(tmp_path):
    assert registry_error(tmp_path, acquisitions=None) == (
        "cannot read DIR/acquisitions.csv: [Errno 2] No such file or directory: "
        "'DIR/acquisitions.csv'"
    )


def test_blank_lines_between_rows_are_skipped(tmp_path):
    _write(tmp_path / "publishers.csv", P_HEADER + "\na,Alpha,commercial,\n\n\nb,Beta,commercial,\n\n")
    _write(tmp_path / "variants.csv", V_HEADER + "\n\nAlpha Press,a,,\n")
    _write(tmp_path / "acquisitions.csv", A_HEADER + "\nb,a,2001\n\n")
    registry = load_registry_dir(tmp_path)
    assert list(registry.publishers) == ["a", "b"]
    assert registry.resolve("alpha press") == "a"
    assert registry.terminal == {"a": "a", "b": "a"}


REGISTRY_FAULTS = {
    "empty id": (
        {"publishers": P_HEADER + " ,Alpha,commercial,\n"},
        "publisher row with empty id",
    ),
    "duplicate id": (
        {"publishers": PUBLISHERS + " a ,Again,commercial,\n"},
        "duplicate publisher id 'a'",
    ),
    "empty name": (
        {"publishers": P_HEADER + "a,  ,commercial,\n"},
        "publisher 'a' has empty name",
    ),
    "unknown type": (
        {"publishers": P_HEADER + "a,Alpha, trade ,\n"},
        "publisher 'a' has unknown type 'trade', expected one of "
        "('commercial', 'university_press')",
    ),
    "no publishers": (
        {"publishers": P_HEADER},
        "registry has no publishers",
    ),
    "shared folded name": (
        {"publishers": P_HEADER + "a,Alpha  Press,commercial,\nb,ALPHA PRESS,commercial,\n"},
        "publishers 'a' and 'b' share the folded name 'alpha press'",
    ),
    "variant with empty raw": (
        {"variants": V_HEADER + " ,a,,\n"},
        "variant row with empty raw string",
    ),
    "variant of unknown publisher": (
        {"variants": V_HEADER + "Alpha Press, zz ,,\n"},
        "variant 'Alpha Press' points at unknown publisher 'zz'",
    ),
    "variant folding onto another publisher": (
        {"variants": V_HEADER + "Shared,a,,\n SHARED ,b,,\n"},
        "variant 'SHARED' folds to 'shared' which already maps to 'a'",
    ),
    "duplicate folded variants": (
        {"variants": V_HEADER + "Zed,a,,\nShared Name,a,,\nzed,a,,\nshared  name,a,,\nOther,b,,\n"},
        "duplicate folded variants: ['shared name', 'zed']",
    ),
    "content checked before duplicates": (
        {"variants": V_HEADER + "Zed,a,,\nzed,a,,\nOther,zz,,\n"},
        "variant 'Other' points at unknown publisher 'zz'",
    ),
    "acquisition of unknown publisher": (
        {"acquisitions": A_HEADER + "a, zz ,\n"},
        "acquisition references unknown publisher 'zz'",
    ),
    "self acquisition": (
        {"acquisitions": A_HEADER + "a,a,\n"},
        "publisher 'a' cannot acquire itself",
    ),
    "two acquirers": (
        {
            "publishers": PUBLISHERS + "c,Gamma,commercial,\n",
            "acquisitions": A_HEADER + "a,b,\na,c,\n",
        },
        "publisher 'a' has two acquirers",
    ),
    "year not an integer": (
        {"acquisitions": A_HEADER + "a,b, 20x1 \n"},
        "acquisition of 'a' has year '20x1', expected an integer",
    ),
    "acquisition cycle": (
        {"acquisitions": A_HEADER + "a,b,\nb,a,\n"},
        "acquisition cycle: a -> b -> a",
    ),
}


@pytest.mark.parametrize("files,expected", REGISTRY_FAULTS.values(), ids=REGISTRY_FAULTS.keys())
def test_registry_content_fault_text(tmp_path, files, expected):
    assert registry_error(tmp_path, **files) == expected


T_HEADER = "category,discipline,field\n"
TAXONOMY_FAULTS = {
    "empty file": (
        "",
        "DIR/t.csv: empty file, expected header ['category', 'discipline', 'field']",
    ),
    "short row": (
        T_HEADER + "C,D,F\n\nC2,D\n",
        "DIR/t.csv: line 4: expected 3 cells",
    ),
    "whitespace cell": (
        T_HEADER + " ,X,Y\n",
        "DIR/t.csv: row with empty cell: {'category': ' ', 'discipline': 'X', 'field': 'Y'}",
    ),
    "empty cell": (
        T_HEADER + " C ,, F \n",
        "DIR/t.csv: row with empty cell: {'category': ' C ', 'discipline': '', 'field': ' F '}",
    ),
    "category mapped twice": (
        T_HEADER + "C,D,F\n C ,E,F\n",
        "category 'C' mapped twice",
    ),
    "discipline under two fields": (
        T_HEADER + "C,D,F\nC2,D,G\n",
        "discipline 'D' assigned to two fields: 'F' and 'G'",
    ),
    "empty taxonomy": (
        " category , discipline , field \n\n",
        "DIR/t.csv: empty taxonomy",
    ),
}


@pytest.mark.parametrize("text,expected", TAXONOMY_FAULTS.values(), ids=TAXONOMY_FAULTS.keys())
def test_taxonomy_fault_text(tmp_path, text, expected):
    assert taxonomy_error(tmp_path, text) == expected
