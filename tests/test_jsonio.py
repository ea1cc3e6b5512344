import enum
import json
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratabundle import corpus, funcspace, jsonio, strabundle
from stratabundle.validation import DocumentError


ROUND_TRIP_NAMES = [
    "perm2_category",
    "c3_complex",
    "fan_disk_complex",
    "double_cover_c3",
    "disk_collapse_two_strata",
]


@pytest.mark.parametrize("name", ROUND_TRIP_NAMES)
def test_write_read_is_byte_identity(tmp_path, name):
    doc = corpus.example_doc(name)
    path = tmp_path / f"{name}.json"
    jsonio.write_doc(path, doc)
    first = path.read_bytes()
    jsonio.write_doc(path, jsonio.read_doc(path))
    assert path.read_bytes() == first


def test_bundle_document_round_trip_preserves_semantics():
    x = corpus.double_cover_c3()
    doc = jsonio.bundle_to_doc(x)
    again = jsonio.bundle_from_doc(json.loads(jsonio.canon_dumps(doc)))
    assert strabundle.bundle_eq(again, x) and again.transition == x.transition


def test_diagram_document_round_trip():
    from stratabundle import funcspace

    d = funcspace.principal_diagram(corpus.double_cover_c3())
    doc = jsonio.diagram_to_doc(d)
    again = jsonio.diagram_from_doc(json.loads(jsonio.canon_dumps(doc)))
    assert funcspace.validate_diagram(again).ok
    assert again.actions == d.actions


def test_unreadable_document_raises_document_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DocumentError):
        jsonio.read_doc(path)
    with pytest.raises(DocumentError):
        jsonio.read_doc(tmp_path / "missing.json")


def test_schema_violations_raise_document_error():
    with pytest.raises(DocumentError):
        jsonio.category_from_doc({"objects": []})
    with pytest.raises(DocumentError):
        jsonio.bundle_from_doc({"base": {"cells": []}})


@pytest.mark.parametrize("value", [float("inf"), 1.5, True, "1"])
def test_non_integer_stratum_raises_document_error(value):
    with pytest.raises(DocumentError, match="stratum of cell 'v0' must be an integer"):
        jsonio.strat_from_doc({"strata": {"v0": value}})
    assert jsonio.strat_from_doc({"strata": {"v0": 2}}).strata == {"v0": 2}


def test_detect_kind():
    assert jsonio.detect_kind(corpus.example_doc("perm2_category")) == "category"
    assert jsonio.detect_kind(corpus.example_doc("c3_complex")) == "complex"
    assert jsonio.detect_kind(corpus.example_doc("double_cover_c3")) == "bundle"
    assert jsonio.detect_kind(corpus.example_doc("c6_fold_map")) == "map"
    assert jsonio.detect_kind(corpus.example_doc("bz2_trivializer_functor")) == "functor"


def test_manifest_build_and_check(tmp_path):
    for name in ["double_cover_c3", "c3_complex"]:
        jsonio.write_doc(tmp_path / f"{name}.json", corpus.example_doc(name))
    manifest = jsonio.build_manifest(tmp_path)
    jsonio.write_doc(tmp_path / "manifest.json", manifest)
    assert jsonio.check_manifest(tmp_path) == []
    # tamper with a document
    (tmp_path / "c3_complex.json").write_text("{}", encoding="utf-8")
    problems = jsonio.check_manifest(tmp_path)
    assert any("c3_complex" in p for p in problems)


def test_total_dot_export_mentions_every_element():
    x = corpus.trivial_two_sheets_c3()
    total = strabundle.realize_total(x)
    dot = jsonio.total_to_dot(total)
    assert dot.startswith("graph total {")
    for c, v in total.elements:
        assert f'"{c}:{v}"' in dot


def reference_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
documents = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(), children, max_size=4)
        | st.dictionaries(st.integers(), children, max_size=4)
    ),
    max_leaves=30,
)


class TestCanonDumps:
    @settings(max_examples=600, deadline=None)
    @given(documents)
    def test_equals_json_dumps(self, doc):
        assert jsonio.canon_dumps(doc) == reference_dumps(doc)

    def test_non_ascii_text_is_written_unescaped(self):
        doc = {"é": ["ü", "\u2603", "\U0001f600", "tab\tquote\"back\\slash\x01"]}
        assert jsonio.canon_dumps(doc) == reference_dumps(doc)
        assert "é" in jsonio.canon_dumps(doc)

    def test_subclasses_and_special_keys_follow_json(self):
        class Colour(enum.IntEnum):
            RED = 1

        class Name(str):
            pass

        class Ratio(float):
            pass

        doc = OrderedDict(
            b=[Colour.RED, Name("n"), Ratio(0.5), float("nan"), float("-inf"), (), {}, []],
            a={1.5: True, float("nan"): None, 2: False},
        )
        keyed = [{True: 1}, {None: 1}, {Colour.RED: 1}, {Name("k"): 1}, {float("inf"): 1}]
        for value in (doc, *keyed, "top", 7, None, 1e300):
            assert jsonio.canon_dumps(value) == reference_dumps(value)

    @pytest.mark.parametrize(
        "doc",
        [{"a": {1}}, {("a",): 1}, {"a": 1, 1: 2}, [object()]],
        ids=["set-value", "tuple-key", "mixed-keys", "object"],
    )
    def test_unencodable_raises_the_same_type_error(self, doc):
        with pytest.raises(TypeError) as expected:
            reference_dumps(doc)
        with pytest.raises(TypeError) as got:
            jsonio.canon_dumps(doc)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("name", corpus.example_names())
    def test_equals_json_dumps_on_every_example(self, name):
        doc = corpus.example_doc(name)
        assert jsonio.canon_dumps(doc) == reference_dumps(doc)

    def test_equals_json_dumps_on_a_principal_diagram(self):
        for x in (corpus.double_cover_c3(), corpus.orbit_free_bundle_c3()):
            doc = jsonio.diagram_to_doc(funcspace.principal_diagram(x))
            assert jsonio.canon_dumps(doc) == reference_dumps(doc)
