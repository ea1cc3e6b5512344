import enum
import hashlib
import importlib.util
import json
import sys
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratabundle import cli, corpus, fincat, funcspace, jsonio, strabundle
from stratabundle.validation import DocumentError

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


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
        # shared markers, which may nest inside one another
        | st.lists(children, max_size=4).map(jsonio._SharedList)
        | st.dictionaries(st.text(), children, max_size=4).map(jsonio._SharedDict)
    ),
    max_leaves=30,
)
markers = st.one_of(
    st.lists(documents, max_size=3).map(jsonio._SharedList),
    st.dictionaries(st.text(), documents, max_size=3).map(jsonio._SharedDict),
)
# one marker object at two indents, so a cached encoding is reused or
# re-encoded at the other indent
documents_with_sharing = documents | st.tuples(markers, documents).map(
    lambda pair: [pair[0], {"deeper": [pair[0], pair[1]]}, pair[0]]
)


class TestCanonDumps:
    @settings(max_examples=600, deadline=None)
    @given(documents_with_sharing)
    def test_equals_json_dumps(self, doc):
        assert jsonio.canon_dumps(doc) == reference_dumps(doc)
        assert jsonio.canon_dumps(doc) == reference_dumps(doc)  # now from the caches

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


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _principal_and_coend(tmp_path, bundle: Path, category: Path) -> tuple[str, str]:
    diagram, out = tmp_path / "principal.json", tmp_path / "coend.json"
    assert cli.main(["principal", str(bundle), "-o", str(diagram)]) == 0
    assert cli.main(["coend", str(diagram), "--category", str(category), "-o", str(out)]) == 0
    return _sha256(diagram), _sha256(out)


# sha256 of the principal diagram document and of its coend against the
# bundle's own category, from before diagram documents shared containers
GOLDEN_PRINCIPAL_COEND = {
    "bz2_double_cover_c3": (
        "9fa5f4a16a6b65bce69fca5ab355969ae522ceb38c100d0078bd07c0949a7b0e",
        "6c6c15313019e0ef87487b2457fd686a15f349f6509a03fa0ede84a3a0c43989",
    ),
    "disk_collapse_two_strata": (
        "ae5159be58c528add847a238401c110cf518a948ba75f312954a4f37c3e58124",
        "2621f1311a78edc0ee12adcd030833e92604e52529060be01a3a737ffdeca9e2",
    ),
    "disk_trivial_two_strata": (
        "8402a6ea531650f5e21db59523d3066f384c1fb5aea3431869039506a5008c09",
        "d2cdaf9e4a65fc17d07e3388d9d97675ecf32ef60f3016324d64ac698ae30e1c",
    ),
    "double_cover_c3": (
        "e630fdde24d5587127c4891667c5d3cfa1b17cc9d3517e45fba0c20a04dc4bcd",
        "072171913971b59a19ca404c824984dc0ef211d822a9c70b2d40135f9ae6b604",
    ),
    "orbit_free_bundle_c3": (
        "4d8a94787f20f91fcc03b933a96ebb339494826ba1db595f07b763a4631de860",
        "121c5e1b17f58699f92b1eea4fd6f4e4819e99ab9774ccc2cd6e3f67aa53790c",
    ),
    "product_bundle_c3": (
        "5bf33493ea6812f67d065d97202fa9bc1f26cc20bdc95973fae4216a136e90f6",
        "9e1a96a30f956b2b178592de594476186483e3fa45c4a21218114899d548f78d",
    ),
    "triple_cover_c3": (
        "83fa65892cf28ed55c7b30a8125973942e7a370e93d3645386b64d83494babf8",
        "8cba947ce5b634aa817500ee3e869f134b122bafe859ac25e0376eb504e09e01",
    ),
    "trivial_two_sheets_c3": (
        "b301a951201893418a363817ca8330f86ce8bde3040d3bb52621cc94ff62ccc7",
        "a07b83a97213247a37dd3e82038ec6d7f6954ed7d113a9d5eb2d5c2da58dcfb1",
    ),
}

# the same for the perm_category(5) bundle of the benchmark's wide-category workload
WIDE_PRINCIPAL_COEND = {
    1: (
        "706679b5c9cac0dd382dfc193b6382fce739d789ce48752cd3ba00ea23177117",
        "f168e440253aad2296dd9b6446602a9b3920763a39ca404331d87acfd65b9e7e",
    ),
    2: (
        "9a6d66c104d6f2323467286b655954b49d07606ade4b07c0ec422e26f9d06e6e",
        "5673d91311c7a77a0994b76359a22088615f4ed7734f646ad88dd570473b14eb",
    ),
}


class TestDiagramDocuments:
    def test_every_golden_bundle_is_pinned(self):
        bundles = sorted(
            p.stem for p in GOLDEN.glob("*.json")
            if jsonio.detect_kind(jsonio.read_doc(p)) == "bundle"
        )
        assert bundles == sorted(GOLDEN_PRINCIPAL_COEND)

    @pytest.mark.parametrize("name", sorted(GOLDEN_PRINCIPAL_COEND))
    def test_golden_principal_and_coend_are_unchanged(self, tmp_path, name):
        category = tmp_path / "category.json"
        jsonio.write_doc(category, jsonio.read_doc(GOLDEN / f"{name}.json")["category"])
        got = _principal_and_coend(tmp_path, GOLDEN / f"{name}.json", category)
        assert got == GOLDEN_PRINCIPAL_COEND[name]

    @pytest.mark.parametrize("seed", sorted(WIDE_PRINCIPAL_COEND))
    def test_wide_category_principal_and_coend_are_unchanged(self, monkeypatch, tmp_path, seed):
        spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, inputs)  # its dataclass looks itself up there
        spec.loader.exec_module(inputs)
        docs = inputs.wide_category(seed, tmp_path).docs
        got = _principal_and_coend(tmp_path, docs["bundle"], docs["category"])
        assert got == WIDE_PRINCIPAL_COEND[seed]

    def test_the_category_core_is_one_object_in_every_component(self):
        x = corpus.triple_cover_c3()
        doc = jsonio.diagram_to_doc(funcspace.principal_diagram(x))
        categories = [sub["category"] for sub in doc["components"].values()]
        assert len(categories) >= 3
        for key in ("objects", "morphisms", "compose", "identities"):
            assert len({id(c[key]) for c in categories}) == 1
        tables = [t for per_cell in doc["actions"].values() for t in per_cell.values()]
        distinct = {
            (g, x.fibre_obj[c]) for g, per_cell in doc["actions"].items() for c in per_cell
        }
        assert len({id(t) for t in tables}) == len(distinct) < len(tables)

    @pytest.fixture
    def category_calls(self, monkeypatch):
        calls = []
        original = fincat.category

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(fincat, "category", counting)
        return calls

    def _diagram_doc(self):
        x = corpus.triple_cover_c3()
        doc = json.loads(jsonio.canon_dumps(jsonio.diagram_to_doc(funcspace.principal_diagram(x))))
        assert len(doc["components"]) == 3
        return doc

    def test_one_category_is_built_for_all_components(self, category_calls):
        doc = self._diagram_doc()
        category_calls.clear()
        d = jsonio.diagram_from_doc(doc)
        assert len(category_calls) == 1
        assert all(b.cat is d.cat for b in d.components.values())
        assert funcspace.validate_diagram(d).ok

    def test_a_component_with_another_compose_gets_its_own_category(self, category_calls):
        doc = self._diagram_doc()
        second = sorted(doc["components"])[1]
        doc["components"][second]["category"]["compose"].pop()
        category_calls.clear()
        d = jsonio.diagram_from_doc(doc)
        assert len(category_calls) == 2
        assert [v for v, b in d.components.items() if b.cat is not d.cat] == [second]
        violations = funcspace.validate_diagram(d).violations
        assert ("component-category", second) in [(v.code, v.detail) for v in violations]


# sha256 of `product` on every ordered pair of golden bundles over one base
# and stratification, from before the product kernel formatted each pair id once
GOLDEN_PRODUCT = {
    ("bz2_double_cover_c3", "bz2_double_cover_c3"): "89dfbbfe8ca3e50c2fe077d79b63d8a6e7d192e6eecb1e8cfb83496875380f3b",
    ("bz2_double_cover_c3", "double_cover_c3"): "1a637c18c7b4707f138fd6b95cb1cefd873fef2787969683f6e42ec60aa6bd62",
    ("bz2_double_cover_c3", "orbit_free_bundle_c3"): "554dfb0189b10c7050c17a0af10915e202e8bf4585d21e36158ccbeb280e8442",
    ("bz2_double_cover_c3", "product_bundle_c3"): "3abd0f05f71c441c187c6029cb91b3877952325b66c70f0b0ef4c9e69b6bce37",
    ("bz2_double_cover_c3", "triple_cover_c3"): "03850423546a9795546dbf9661cd5ccabf6cf85736a2761a4457a0f6fa640837",
    ("bz2_double_cover_c3", "trivial_two_sheets_c3"): "9972cff0dcf87c8129db763de0178767bcc0de95a2c1867c1cf0548ab8dd40bd",
    ("disk_collapse_two_strata", "disk_collapse_two_strata"): "195808222fd0cc2fac4f113ccd80fdcc890809e1aaad6b2e9fbb4eea328d9eae",
    ("disk_trivial_two_strata", "disk_trivial_two_strata"): "1ace1ad0afa7ed52312909e56edbd09bbe54e02c1318aa2246b61172603ae40d",
    ("double_cover_c3", "bz2_double_cover_c3"): "1b0b6282b067413b80043d712ea404bcfd20fd1bca4d7acc7c23bab4f5511088",
    ("double_cover_c3", "double_cover_c3"): "5505f2935a2e82e525c1ffcc92f50d067420a11c1e4ea851c1f35a466dfd3c71",
    ("double_cover_c3", "orbit_free_bundle_c3"): "6348425a9e3cf42618a36a5557df70e488ef520073801707ad50278121419dfc",
    ("double_cover_c3", "product_bundle_c3"): "1a01bad12d3bf24d88428861e9d462ee2d1e9dfa01b637c4a8d292aedc2f10e7",
    ("double_cover_c3", "triple_cover_c3"): "137b81983233cb89038baa9186b624f5a153384d0ddb36088c4b494ffbc641e4",
    ("double_cover_c3", "trivial_two_sheets_c3"): "f317792c8bfe01fab0c61130057303673ee59b9f911aaa9847b81572333189b0",
    ("orbit_free_bundle_c3", "bz2_double_cover_c3"): "d615ff5c531f81782d54ed6fce9cdbb7c65ca11cde08b95f7e848bfd6a8da91a",
    ("orbit_free_bundle_c3", "double_cover_c3"): "a41a40f26aa27ec582e20252c53c7a322b58831e7121a77d9f3c2dfc7c7a82cd",
    ("orbit_free_bundle_c3", "orbit_free_bundle_c3"): "8154e48d8c0539682505bfcce966c8b9adc0cdb20dc026616cc721e86b8123bf",
    ("orbit_free_bundle_c3", "product_bundle_c3"): "ec1192ff1be3d156c6dc5eef859279f02b14b1d826e0aa94ad2075a7f9ac0d49",
    ("orbit_free_bundle_c3", "triple_cover_c3"): "ad7dc6386711068b5160bc3b9b76d15e9981d7fbee33559d5ad78cd96e13f69e",
    ("orbit_free_bundle_c3", "trivial_two_sheets_c3"): "af3eadafc5e0c729e9d9de8a2b74160a9b69cfa10477ecbcaa0b8224ba61617f",
    ("product_bundle_c3", "bz2_double_cover_c3"): "3d2287b8460335e62d088eda586067cbf27a16995fd015df1cbf172331c03038",
    ("product_bundle_c3", "double_cover_c3"): "46a57b30ca5aa9fd9399f25db421189ef89059cc65b9ab836da533ece8ea7caf",
    ("product_bundle_c3", "orbit_free_bundle_c3"): "b57b9a3324820dd12fd2926120652a0add120d8f0b65e4e1f2d83401d4bf8ce5",
    ("product_bundle_c3", "product_bundle_c3"): "e1e429d1a9349b2e6681432bdc2821c5c2f138d8897fe20bc39a0c66f492f742",
    ("product_bundle_c3", "triple_cover_c3"): "26f941370969d66459e6ffbf9c146510bbf7c14419fec63c8e87faccc5e1d00b",
    ("product_bundle_c3", "trivial_two_sheets_c3"): "bba1a5663c5445583182e77293819b831df42732dd7a0fffd92711da0b6b8cd7",
    ("triple_cover_c3", "bz2_double_cover_c3"): "2bc4563b741e0ba334ff2d74c6c7672e5d100fca12f3efd81479c885034184fe",
    ("triple_cover_c3", "double_cover_c3"): "a55cb40382942485f7e9a1e1a603c9bba4ef4df2838baddd2b7595666c39e482",
    ("triple_cover_c3", "orbit_free_bundle_c3"): "51a6d505b070c0c7d582504ffb071cb10794a47de52b14fe802cca34793f426f",
    ("triple_cover_c3", "product_bundle_c3"): "370927a7d996ddf12a3d17a3c0c06d1b9f8164385108456b81ebb3c89a5a318d",
    ("triple_cover_c3", "triple_cover_c3"): "3d8d5f17b212c17dbb0f0a2af9b0ead3a8b1447598ebb5a0a87e592f44483c89",
    ("triple_cover_c3", "trivial_two_sheets_c3"): "26dba0b8342af79dad635a17f89238fb2cc4c030083cb244161636caa74827d8",
    ("trivial_two_sheets_c3", "bz2_double_cover_c3"): "d5447f562a5fa297caac0396bb291f513ef605e9071323c242c20b15554ce3c3",
    ("trivial_two_sheets_c3", "double_cover_c3"): "60e83b71305c5f92fbbba46356f3c18b8c1a9cdc013777b41dd94ebd6be3e26b",
    ("trivial_two_sheets_c3", "orbit_free_bundle_c3"): "6a9e85b9f85a209d176da5acc61e9521da69829ac88834ae7b3d9ec4d5798a9c",
    ("trivial_two_sheets_c3", "product_bundle_c3"): "879bf80a98fa24683eb8a6f5260a21fe925e3ed64c827b762fcc81401b597c89",
    ("trivial_two_sheets_c3", "triple_cover_c3"): "f6b6aaff0e8400ec1f352671fd246980578f22815a93a4f6772d912a1add928e",
    ("trivial_two_sheets_c3", "trivial_two_sheets_c3"): "3096797cd3b39b75935922be1cfb3ba441712a47ec5e2e5c8f1fecdd3028b9fe",
}


class TestProductDocuments:
    def test_every_golden_bundle_is_in_a_pinned_pair(self):
        assert sorted({a for a, _ in GOLDEN_PRODUCT}) == sorted(GOLDEN_PRINCIPAL_COEND)
        assert {b for _, b in GOLDEN_PRODUCT} == {a for a, _ in GOLDEN_PRODUCT}

    @pytest.mark.parametrize("pair", sorted(GOLDEN_PRODUCT), ids="*".join)
    def test_golden_products_are_unchanged(self, tmp_path, pair):
        out = tmp_path / "product.json"
        paths = [str(GOLDEN / f"{name}.json") for name in pair]
        assert cli.main(["product", *paths, "-o", str(out)]) == 0
        assert _sha256(out) == GOLDEN_PRODUCT[pair]
