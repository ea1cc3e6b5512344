import enum
import gc
import hashlib
import importlib.util
import json
import sys
import tracemalloc
from collections import OrderedDict
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratabundle import cli, corpus, fincat, funcspace, jsonio, oracle, strabundle, triviality
from stratabundle.validation import DocumentError

from conftest import build_shuffled_torus_cover, build_torus_cover, build_twisted_circle, principal_text

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


def _names_each_morphism_by_its_own_id(cat: fincat.FiniteCategory) -> bool:
    own = {m: m for m in cat.morphisms}
    return all(
        g is own[g] and f is own[f] and gf is own[gf] for (g, f), gf in cat.compose_table.items()
    ) and all(i is own[i] for i in cat.identities.values())


def test_a_category_read_names_each_morphism_by_its_own_id_string(tmp_path):
    # json gives every occurrence of an id its own string, and a composition
    # lookup by an equal but distinct string compares characters
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))["documents"]
    read = []
    for name, entry in sorted(manifest.items()):
        doc = jsonio.read_doc(GOLDEN / name)
        if entry["kind"] == "category":
            read.append(jsonio.category_from_doc(doc)[0])
        elif entry["kind"] == "bundle":
            read.append(jsonio.bundle_from_doc(doc).cat)
            path = tmp_path / name
            path.write_text(principal_text(name.removesuffix(".json")), encoding="utf-8")
            d, _ = jsonio.read_diagram(path)
            read += [d.cat, *(c.cat for c in d.components.values())]
    assert len(read) > 20
    assert all(map(_names_each_morphism_by_its_own_id, read))
    seeds = [oracle.gen_category(oracle.InstanceSpec(seed=seed)) for seed in range(1, 51)]
    for cat, ff in [corpus.perm_category(4), *seeds]:
        doc = json.loads(jsonio.canon_dumps(jsonio.category_to_doc(cat, ff)))
        again = jsonio.category_from_doc(doc)[0]
        assert _names_each_morphism_by_its_own_id(again)
        assert again == cat


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


def _cells_with(*changes):
    """The cells of the ``c3_complex`` example, each ``(index, key, value)`` of ``changes`` set."""
    doc = corpus.example_doc("c3_complex")
    cells = [dict(c, faces=list(c["faces"])) for c in doc["cells"]]
    for index, key, value in changes:
        cells[index][key] = value
    return {"cells": cells}


@pytest.mark.parametrize("changes, message", [
    ([(0, "dim", 1.5)], "dim of cell 'v0' must be an integer, not 1.5"),
    ([(0, "dim", True)], "dim of cell 'v0' must be an integer, not True"),
    ([(1, "faces", "v0v1")], "faces of cell 'v0.v1' must be a list, not 'v0v1'"),
    ([(1, "faces", ["v0", 7])], "face 7 of cell 'v0.v1' must be a string"),
    ([(2, "stratum", None)], "stratum of cell 'v0.v2' must be an integer, not None"),
    ([(3, "id", 3)], "cell id must be a string, not 3"),
    # the first cell with a refusal is named, whichever column refuses later cells
    ([(4, "dim", "1"), (2, "stratum", 0.5)], "stratum of cell 'v0.v2' must be an integer, not 0.5"),
    ([(2, "faces", {}), (1, "id", None)], "cell id must be a string, not None"),
    ([(0, "dim", None), (0, "stratum", None)], "dim of cell 'v0' must be an integer, not None"),
], ids=["dim", "bool-dim", "faces", "face-type", "stratum", "id", "first-cell", "id-first", "dim-first"])
def test_a_refused_cell_member_is_named(changes, message):
    with pytest.raises(DocumentError) as refused:
        jsonio.complex_from_doc(_cells_with(*changes))
    assert str(refused.value) == message


def test_a_cell_that_is_no_object_or_lacks_a_member_is_malformed():
    # after the refusals of earlier cells, as the walk over the cells meets it
    doc = _cells_with((1, "dim", 0.5))
    doc["cells"][3] = ["v1"]
    with pytest.raises(DocumentError, match="dim of cell 'v0.v1' must be an integer"):
        jsonio.complex_from_doc(doc)
    del doc["cells"][1]["dim"]
    with pytest.raises(DocumentError, match=r"malformed complex document: KeyError\('dim'\)"):
        jsonio.complex_from_doc(doc)


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


# the scalars a document holds: no float, which no document has
scalars = st.none() | st.booleans() | st.integers() | st.text()


# leaves of row tables: text json must escape, and text with % (the
# templates are %-formats)
row_texts = st.text(max_size=6) | st.sampled_from(["%s", "%%", "100%", "a\nb", "\u00e9\u2603", '"q"\\'])
# the member kinds of a dict row, each with its members
MEMBER_KINDS = [
    (str, row_texts),
    (int, st.integers()),
    ([str], st.lists(row_texts, max_size=3)),
    ([int], st.lists(st.integers(), max_size=3)),
    ({str: str}, st.dictionaries(row_texts, row_texts, max_size=3)),
]


# the kinds of rows that are one member each
FLAT_KINDS = [str, [str], {str: str}]
flat_kinds = st.sampled_from(FLAT_KINDS)


def member(kind):
    return next(strategy for k, strategy in MEMBER_KINDS if k == kind)


# dict rows' shapes: keys in sorted order, and a kind of string leaves among the members
dict_shapes = st.dictionaries(
    row_texts, st.sampled_from([k for k, _ in MEMBER_KINDS]), min_size=1, max_size=3
).filter(lambda shape: any(kind not in (int, [int]) for kind in shape.values()))
row_shapes = st.one_of(
    flat_kinds,
    st.integers(1, 3),  # flat rows
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),  # rows of flat rows
    dict_shapes.map(lambda shape: dict(sorted(shape.items()))),
    st.lists(row_texts, min_size=1, max_size=3, unique=True).map(
        lambda ks: dict.fromkeys(sorted(ks), str)
    ),
)


def fitting_rows(shape):
    if shape in FLAT_KINDS:
        return member(shape)
    if type(shape) is int:
        return st.lists(row_texts, min_size=shape, max_size=shape)
    if type(shape) is tuple:
        return st.tuples(*map(fitting_rows, shape)).map(list)
    return st.fixed_dictionaries({k: member(kind) for k, kind in shape.items()}).map(_sorted_row)


def _sorted_row(row: dict) -> dict:
    """``row`` built in sorted key order, as a dict row of a table is."""
    return dict(sorted(row.items()))


def row_tables(shared):
    def tables(shape):
        lists = st.lists(fitting_rows(shape), max_size=5).map(lambda r: jsonio._Rows(r, shape, shared))
        if type(shape) is tuple:  # no _RowsByKey has rows of flat rows
            return lists
        keyed = st.dictionaries(row_texts, fitting_rows(shape), max_size=5)
        return lists | keyed.map(lambda r: jsonio._RowsByKey(r, shape, shared))

    return row_shapes.flatmap(tables)


# the engine's tables of variable-length rows: the certify stars (keyed by
# cell), the cover monodromy and the cells of a complex
ENGINE_SHAPES = {
    "stars": {"charts": {str: str}, "object": str, "region": [str]},
    "monodromy": {"closes": [str], "cycle_type": [int], "permutation": {str: str}},
    "cells": {"dim": int, "faces": [str], "id": str, "stratum": int},
}
_CELL = {"dim": 1, "faces": ["a", "b"], "id": "a.b", "stratum": 0}
_MONODROMY = {"closes": ["a", "a.b"], "cycle_type": [2], "permutation": {"0": "1", "1": "0"}}
_STAR = {"charts": {"a": "e", "a.b": "e"}, "object": "set2", "region": ["a", "a.b"]}
# ids that json escapes, that a %-format would read, or that are empty
awkward_ids = st.sampled_from(
    ["", "%", "%s", "%%d", "%(k)s", '"', "\\", "\x00", "\x1f\n", "\u00e9", "\u2603", "\U0001f600"]
) | st.text(max_size=4)


def _awkward_member(kind):
    """Members of ``kind`` made of ``awkward_ids``, empty ones among them."""
    if kind is str:
        return awkward_ids
    if kind is int:
        return st.integers(-3, 12)
    if kind == [int]:
        return st.lists(st.integers(1, 4), max_size=4)
    if kind == [str]:
        return st.lists(awkward_ids, max_size=4)
    return st.dictionaries(awkward_ids, awkward_ids, max_size=4)


def _engine_row(shape):
    return st.fixed_dictionaries({k: _awkward_member(kind) for k, kind in shape.items()}).map(_sorted_row)


def engine_tables():
    def tables(name):
        shape = ENGINE_SHAPES[name]
        if name == "stars":
            keyed = st.dictionaries(awkward_ids, _engine_row(shape), max_size=6)
            return keyed.map(lambda r: jsonio._RowsByKey(r, shape))
        return st.lists(_engine_row(shape), max_size=6).map(lambda r: jsonio._Rows(r, shape))

    return st.sampled_from(sorted(ENGINE_SHAPES)).flatmap(tables)


documents = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(), children, max_size=4)
        | row_tables(shared=True)
        | row_tables(shared=False)
    ),
    max_leaves=30,
)
markers = row_tables(shared=True) | row_tables(shared=False)
# one marker object at two indents, so a cached encoding is reused or
# re-encoded at the other indent
documents_with_sharing = documents | st.tuples(markers, documents).map(
    lambda pair: [pair[0], {"deeper": [pair[0], pair[1]]}, pair[0]]
)


def written(path, doc) -> str:
    """What ``write_doc`` puts in ``path``, as text."""
    jsonio.write_doc(path, doc)
    return path.read_bytes().decode("utf-8")


def _cover_doc(x):
    """The document ``cover`` writes: the covering certificate and the total complex."""
    return jsonio.covering_to_doc(triviality.covering_space(x))


# large containers of each kind the writer tells apart: tables of scalars,
# of flat rows and of nested rows, a table with one long row, records of
# long strings, and members far above the piece size
streamed_documents = {
    "scalar-table": {f"k{i:05}": [f"v{i}", i, -i, None, i > 9][i % 5] for i in range(5000)},
    "row-table": [{"id": f"c{i}", "faces": [f"f{i}", f"g{i}"], "dim": i % 3} for i in range(3000)],
    "one-long-row": [[f"a{i}"] for i in range(200)] + [[f"b{i}" for i in range(100)]],
    "long-strings": {"a": ["x" * 300_000] * 12, "b": "y" * 1_500_000, "c": 1},
    "growing-members": [["z" * n] for n in (1, 10, 100, 1000, 10_000, 100_000, 1_000_000)] * 10,
    "nested-tables": {f"m{i}": {f"c{j}": f"e{(i * j) % 11}" for j in range(i)} for i in range(150)},
}


def _compose_rows(count, misfit=None):
    """``count`` compose rows of strings; with ``misfit``, that row's middle leaf an int."""
    rows = [[f"g{i}", f"f{i % 7}", f"%{i}\u00e9"] for i in range(count)]
    if misfit is not None:
        rows[misfit][1] = misfit
    return rows


class Name(str):
    pass


class Colour(enum.IntEnum):
    RED = 1


# what no document holds: table rows that do not fit their shape, among
# them rows with the right number of leaves, which would fill the template,
# and values of other types
REFUSED = {
    "bool-dim": jsonio._Rows([_CELL, {**_CELL, "dim": True}], ENGINE_SHAPES["cells"]),
    "dict-faces": jsonio._Rows([_CELL, {**_CELL, "faces": {"a": "b"}}], ENGINE_SHAPES["cells"]),
    "bool-cycle-type": jsonio._Rows(
        [_MONODROMY, {**_MONODROMY, "cycle_type": [1, True]}], ENGINE_SHAPES["monodromy"]
    ),
    "null-image": jsonio._Rows(
        [_MONODROMY, {**_MONODROMY, "permutation": {"0": None}}], ENGINE_SHAPES["monodromy"]
    ),
    "tuple-closes": jsonio._Rows(
        [_MONODROMY, {**_MONODROMY, "closes": ("a", "b")}], ENGINE_SHAPES["monodromy"]
    ),
    "tuple-region": jsonio._RowsByKey(
        {"a": _STAR, "b": {**_STAR, "region": ("a",)}}, ENGINE_SHAPES["stars"]
    ),
    "int-chart": jsonio._RowsByKey({"a": _STAR, "b": {**_STAR, "charts": {"a": 1}}}, ENGINE_SHAPES["stars"]),
    "int-key": jsonio._RowsByKey({2: _STAR, 1: _STAR}, ENGINE_SHAPES["stars"]),
    "int-leaf": jsonio._RowsByKey({"a": "b", "c": 1}, str, shared=True),
    "tuple-row": jsonio._Rows([["a"], ("b",)], [str]),
    "int-row-key": jsonio._RowsByKey({"a": {"x": "y"}, "b": {1: "z"}}, {str: str}),
    "first-misfit": jsonio._Rows(_compose_rows(2 * 1024 + 7, 0), 3),
    "last-misfit": jsonio._Rows(_compose_rows(2 * 1024 + 7, -1), 3, shared=True),
    "flat": jsonio._Rows([["a", "b", "c"], ["d", "e"], ["f", "g", "h", "i"]], 3),
    "widths": jsonio._Rows([[["a"], ["b", "c"]], [["d", "e"], ["f"]]], (1, 2)),
    "row-count": jsonio._Rows([[["a"], ["b"]], [["c"], ["d"], []]], (1, 1)),
    "keys": jsonio._Rows(
        [{"cell": "a", "mor": "b"}, {"cell": "c", "face": "d", "mor": "e", "x": "f"}],
        {"cell": str, "face": str, "mor": str},
    ),
    "variable": jsonio._Rows(
        [{"faces": ["a"], "id": "b"}, {"faces": [], "id": "c", "x": "d"}], {"faces": [str], "id": str}
    ),
    "float": {"ratio": 0.5},
    "nan": [float("nan")],
    "float-key": {1.5: True},
    "int-key-of-a-record": {"a": {2: False}},
    "bool-key": {True: 1},
    "null-key": {None: 1},
    "str-subclass": [Name("n")],
    "int-subclass": {"colour": Colour.RED},
    "dict-subclass": OrderedDict(a=1),
    "tuple-key": {("a",): 1},
}


class TestCanonDumps:
    @settings(max_examples=600, deadline=None)
    @given(documents_with_sharing)
    def test_equals_json_dumps(self, doc):
        assert jsonio.canon_dumps(doc) == reference_dumps(doc)
        assert jsonio.canon_dumps(doc) == reference_dumps(doc)  # now from the caches

    @settings(max_examples=300, deadline=None)
    @given(documents_with_sharing)
    def test_write_doc_writes_the_canonical_bytes(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "written.json"
        assert written(path, doc) == jsonio.canon_dumps(doc) == reference_dumps(doc)

    @settings(max_examples=300, deadline=None)
    @given(documents_with_sharing)
    def test_every_path_of_the_walker_with_tiny_limits(self, doc):
        # with these limits the small generated documents hold tables, blocks
        # of one or two members and flushes in the middle of a container
        with mock.patch.multiple(jsonio, _SMALL=2, _FLUSH=8, _BLOCK=2):
            assert jsonio.canon_dumps(doc) == reference_dumps(doc)

    @pytest.mark.parametrize("name", streamed_documents)
    def test_streamed_containers_equal_json_dumps(self, tmp_path, name):
        doc = streamed_documents[name]
        assert written(tmp_path / "doc.json", doc) == reference_dumps(doc)

    def test_a_large_document_is_written_in_bounded_pieces(self):
        # one piece per leaf would make the write slow, one huge piece would
        # hold a copy of the document
        x = build_torus_cover(15)
        cover = _cover_doc(x)
        certify = jsonio.certificate_to_doc(triviality.local_triviality_certificate(x))
        for doc, rows in [
            (cover, len(cover["monodromy"]) + len(cover["total"]["elements"]) + len(cover["total"]["relations"])),
            (certify, len(certify["stars"])),
        ]:
            sizes = list(map(len, jsonio.canon_chunks(doc)))
            assert len(sizes) < rows / 100
            assert max(sizes) <= 2 * jsonio._FLUSH

    @settings(max_examples=300, deadline=None)
    @given(row_tables(shared=False) | row_tables(shared=True))
    def test_row_tables_equal_json_dumps(self, table):
        # each table plain, and at two indents, where a shared one is cached
        for doc in (table, [table, {"deeper": [table]}, table]):
            assert jsonio.canon_dumps(doc) == reference_dumps(doc)

    @settings(max_examples=400, deadline=None)
    @given(engine_tables())
    def test_variable_row_tables_equal_json_dumps(self, table):
        # awkward ids and empty members
        for doc in (table, {"deeper": [table]}):
            assert jsonio.canon_dumps(doc) == reference_dumps(doc)
        with mock.patch.multiple(jsonio, _SMALL=2, _FLUSH=8, _BLOCK=2):
            assert jsonio.canon_dumps(table) == reference_dumps(table)

    @pytest.mark.parametrize(
        "table",
        [
            # rows that fit, whose keys are spelled in the format
            jsonio._Rows([{"%%": "a"}, {"%%": "b"}], {"%%": str}),
            jsonio._Rows([{"%s": ["b"], "100%": [3]}], {"%s": [str], "100%": [int]}),
        ],
        ids=["double-percent-key", "percent-keys"],
    )
    def test_rows_that_do_not_fit_and_keys_with_percent(self, table):
        # cases the hypothesis tests reach only now and then, pinned; rows
        # that do not fit are in test_what_no_document_holds_is_refused
        for doc in (table, {"deeper": [table]}):
            assert jsonio.canon_dumps(doc) == reference_dumps(doc)

    @pytest.mark.parametrize("count", [1, 1023, 1024, 1025, 2 * 1024 + 7])
    def test_row_tables_over_several_blocks(self, tmp_path, count):
        rows = _compose_rows(count)
        for shared in (False, True):
            table = jsonio._Rows(rows, 3, shared)
            doc = {"compose": table, "again": [table]}
            assert jsonio.canon_dumps(doc) == reference_dumps(doc)
            assert written(tmp_path / "doc.json", doc) == reference_dumps(doc)

    @pytest.mark.parametrize("name", REFUSED)
    def test_what_no_document_holds_is_refused(self, tmp_path, name):
        # the writer writes documents: a value of another type, or a table
        # row that does not fit its shape, raises and leaves the target as it was
        target = tmp_path / "doc.json"
        for doc in (REFUSED[name], {"deeper": [REFUSED[name]]}):
            with pytest.raises(TypeError):
                jsonio.canon_dumps(doc)
            target.write_bytes(b"earlier bytes\n")
            with pytest.raises(TypeError):
                jsonio.write_doc(target, doc)
            assert list(tmp_path.iterdir()) == [target]
            assert target.read_bytes() == b"earlier bytes\n"

    def test_the_engine_tables_fit_their_templates(self, monkeypatch):
        # a row that does not fit, or a leaf that is no string, would raise;
        # no table reaches the generic walker and no row _encode
        streamed, encoded = [], []
        member_chunks, encode = jsonio._member_chunks, jsonio._encode
        monkeypatch.setattr(
            jsonio, "_member_chunks", lambda o, nl: streamed.append(type(o)) or member_chunks(o, nl)
        )
        monkeypatch.setattr(jsonio, "_encode", lambda o, nl: encoded.append(id(o)) or encode(o, nl))
        x = corpus.triple_cover_c3()
        trivial = corpus.trivial_two_sheets_c3()
        identity = fincat.identity_cat_functor(x.cat)
        docs = [
            jsonio.bundle_to_doc(x),
            jsonio.total_to_doc(strabundle.realize_total(x)),
            jsonio.diagram_to_doc(funcspace.principal_diagram(x)),
            jsonio.certificate_to_doc(triviality.local_triviality_certificate(x)),
            jsonio.covering_to_doc(triviality.covering_space(x)),
            jsonio.trivialize_to_doc(triviality.trivialize_over(trivial, set(trivial.base.cells))),
            jsonio.trivialize_to_doc(triviality.trivialize_over(x, set(x.base.cells))),
            jsonio.iso_to_doc(funcspace.reconstruct_check(x)),
            jsonio.map_to_doc(*corpus.c6_fold_map()),
            jsonio.functor_to_doc(identity, x.ff),
            # empty tables, which the table writer writes too
            [jsonio._Rows([], 3), jsonio._RowsByKey({}, str), jsonio._RowsByKey({}, str, True)],
        ]
        bundle, category = docs[0], docs[0]["category"]
        action_tables = [t for per_cell in docs[2]["actions"].values() for t in per_cell.values()]
        tables = [
            bundle["transitions"], bundle["base"]["cells"], bundle["fibres"],
            *(category[k] for k in ("objects", "morphisms", "compose", "identities", "fibres", "actions")),
            docs[1]["elements"], docs[1]["relations"], docs[3]["stars"], docs[4]["monodromy"],
            docs[5]["region"], docs[5]["charts"], docs[6]["loop"], docs[7]["cells"],
            docs[8]["vertex_map"], docs[9]["on_objects"], docs[9]["on_morphisms"],
            *(t for t in action_tables if t),
        ]
        assert [docs[5]["kind"], docs[6]["kind"]] == ["trivialization", "obstruction"]
        assert all(type(t) in (jsonio._Rows, jsonio._RowsByKey) and t for t in tables)
        for doc in docs:
            assert jsonio.canon_dumps(doc) == reference_dumps(doc)
        assert not {jsonio._Rows, jsonio._RowsByKey} & set(streamed)
        rows = [r for t in tables for r in (t.values() if isinstance(t, dict) else t)]
        assert not set(map(id, rows)) & set(encoded)

    def test_non_ascii_text_is_written_unescaped(self):
        doc = {"é": ["ü", "\u2603", "\U0001f600", "tab\tquote\"back\\slash\x01"]}
        assert jsonio.canon_dumps(doc) == reference_dumps(doc)
        assert "é" in jsonio.canon_dumps(doc)

    @pytest.mark.parametrize(
        "doc",
        [{"a": {1}}, {"a": 1, 1: 2}, [object()]],
        ids=["set-value", "mixed-keys", "object"],
    )
    def test_unencodable_raises_the_same_type_error(self, doc):
        with pytest.raises(TypeError) as expected:
            reference_dumps(doc)
        with pytest.raises(TypeError) as got:
            jsonio.canon_dumps(doc)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)

    def test_a_failed_write_leaves_no_temp_file_and_the_target_untouched(self, tmp_path):
        rows = [[f"g{i}", f"f{i}", f"h{i}"] for i in range(3 * 1024)]
        doc = {"compose": jsonio._Rows(rows, 3), "tail": [f"x{i}" for i in range(5000)] + [object()]}
        with pytest.raises(TypeError) as expected:
            reference_dumps(doc)
        # the writer has streamed much of the document when the leaf fails
        pieces = jsonio.canon_chunks(doc)
        streamed = []
        with pytest.raises(TypeError):
            for piece in pieces:
                streamed.append(piece)
        assert len(streamed) > 3 and sum(map(len, streamed)) > 100_000
        target = tmp_path / "doc.json"
        target.write_bytes(b"earlier bytes\n")
        with pytest.raises(TypeError) as got:
            jsonio.write_doc(target, doc)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == b"earlier bytes\n"

    def test_writing_the_torus_cover_holds_no_copy_of_its_text(self, tmp_path, collector_off):
        doc = _cover_doc(build_torus_cover(33))
        size = len(jsonio.canon_dumps(doc))
        gc.collect()
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            jsonio.write_doc(tmp_path / "cover.json", doc)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < size / 2

    @pytest.mark.parametrize("name", corpus.example_names())
    def test_equals_json_dumps_on_every_example(self, name):
        doc = corpus.example_doc(name)
        assert jsonio.canon_dumps(doc) == reference_dumps(doc)

    def test_equals_json_dumps_on_a_principal_diagram(self):
        for x in (corpus.double_cover_c3(), corpus.orbit_free_bundle_c3()):
            doc = jsonio.diagram_to_doc(funcspace.principal_diagram(x))
            assert jsonio.canon_dumps(doc) == reference_dumps(doc)


def _is_flat(v) -> bool:
    """A scalar, or a plain list or dict of scalars."""
    t = type(v)
    if t is dict or t is list or t is tuple:
        return set(map(type, v.values() if t is dict else v)) <= jsonio._SCALARS
    return t in jsonio._SCALARS


def _command_inputs(tmp_path):
    """Each document-writing command with its arguments, on three inputs.

    The n = 15 torus cover (every bundle command but ``attach``, which
    writes by ``bundle_to_doc`` as the others do), a trivial torus, where
    ``trivialize`` finds a trivialization and ``reconstruct`` writes its
    iso, a ``perm_category(4)`` bundle with fibres of 4 elements, and every
    example.
    """
    x, fbar = build_shuffled_torus_cover(15, 7)
    trivial = strabundle.pullback(corpus.trivial_two_sheets_c3(), fbar, x.strat).bundle
    perm4 = build_twisted_circle(*corpus.perm_category(4), "set4", "p4:1230")
    docs = {"trivial": jsonio.bundle_to_doc(trivial)}
    for name, y in (("torus", x), ("perm4", perm4)):
        docs[name] = jsonio.bundle_to_doc(y)
        docs[f"{name}-category"] = jsonio.category_to_doc(y.cat, y.ff)
        docs[f"{name}-functor"] = jsonio.functor_to_doc(fincat.identity_cat_functor(y.cat), y.ff)
    docs["circle"] = jsonio.bundle_to_doc(corpus.double_cover_c3())
    docs["map"] = jsonio.map_to_doc(fbar, x.strat)
    docs["strata"] = {"strata": {c: 1 if x.base.cells[c].dim == 2 else 0 for c in x.base.cells}}
    for name, doc in docs.items():
        jsonio.write_doc(tmp_path / name, doc)
    at = {name: str(tmp_path / name) for name in [*docs, "diagram"]}
    return [
        *(["validate", at[b]] for b in ("torus", "perm4")),
        ["pullback", at["circle"], at["map"]],
        ["restrict", at["torus"], "--star", min(x.base.cells)],
        ["product", at["torus"], at["torus"]],
        ["stratify", at["torus"], at["strata"]],
        *([command, at[b]] for b in ("torus", "trivial") for command in
          ("trivialize", "certify", "cover", "total", "reconstruct")),
        ["reconstruct", at["perm4"]],
        *(argv for b, obj in (("torus", "set2"), ("perm4", "set4")) for argv in (
            ["principal", at[b], "-o", at["diagram"]],
            ["coend", at["diagram"], "--category", at[f"{b}-category"]],
            ["associate", at[b], at[f"{b}-functor"]],
            ["fnspace", at[b], "-V", obj],
        )),
        *(["example", name] for name in corpus.example_names()),
    ]


def test_no_engine_table_reaches_the_generic_walker(tmp_path, monkeypatch, capsys):
    # a container of _SMALL flat members or more is a table, which the
    # builders mark for the table writer; the walker would write it member by member
    walked = []
    member_chunks = jsonio._member_chunks

    def recording(o, nl):
        if len(o) >= jsonio._SMALL and all(map(_is_flat, o.values() if isinstance(o, dict) else o)):
            walked.append((argv[0], type(o).__name__, len(o)))
        return member_chunks(o, nl)

    commands = _command_inputs(tmp_path)
    monkeypatch.setattr(jsonio, "_member_chunks", recording)
    for argv in commands:
        out = argv[argv.index("-o") + 1] if "-o" in argv else str(tmp_path / "out.json")
        assert cli.main([*argv, "-o", out] if "-o" not in argv else argv) == 0, argv
        assert Path(out).stat().st_size > 0
    capsys.readouterr()
    assert walked == []
    assert {argv[0] for argv in commands} == {
        "validate", "pullback", "restrict", "product", "stratify", "trivialize", "certify",
        "cover", "total", "reconstruct", "principal", "coend", "associate", "fnspace", "example",
    }


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

    def test_the_shared_row_tables_are_encoded_once(self, monkeypatch):
        # every table is written by _row_chunks, a shared one through its cache
        encoded = []
        original = jsonio._row_chunks
        monkeypatch.setattr(
            jsonio, "_row_chunks", lambda rows, nl: encoded.append(rows) or original(rows, nl)
        )
        doc = jsonio.diagram_to_doc(funcspace.principal_diagram(corpus.triple_cover_c3()))
        assert jsonio.canon_dumps(doc) == reference_dumps(doc)
        core = next(iter(doc["components"].values()))["category"]
        tables = {id(t) for per_cell in doc["actions"].values() for t in per_cell.values()}
        shared = [rows for rows in encoded if rows.encoded is not None]
        # the category core once, and each distinct action table once
        assert sorted(map(id, shared)) == sorted([*(id(core[k]) for k in jsonio._CATEGORY_CORE), *tables])
        # of each component the base cells, the transitions and the fibres,
        # and the fibres and actions of its category
        assert len(encoded) - len(shared) == 5 * len(doc["components"])

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


def _another_composite(doc, draw):
    """One composite of one component's category core changed to another morphism."""
    sub = doc["components"][draw(st.sampled_from(sorted(doc["components"])))]["category"]
    row = draw(st.sampled_from(sub["compose"]))
    others = sorted({m["id"] for m in sub["morphisms"]} - {row[2]}) or [row[2] + "~"]
    row[2] = draw(st.sampled_from(others))


def _dropped_table(doc, draw):
    per_cell = doc["actions"][draw(st.sampled_from(sorted(doc["actions"])))]
    del per_cell[draw(st.sampled_from(sorted(per_cell)))]


DIAGRAM_DAMAGE = {
    "none": lambda doc, draw: None,
    "another-composite": _another_composite,
    "dropped-table": _dropped_table,
}

# the texts a diagram reaches the reader as: the writer's own, re-spaced,
# and the shapes and syntax errors that the reader's walk must hand to json.loads
DIAGRAM_FORMS = {
    "canonical": jsonio.canon_dumps,
    "compact": lambda doc: json.dumps(doc, separators=(",", ":")),
    "indent-4": lambda doc: json.dumps(doc, indent=4),
    "bom": lambda doc: "\ufeff" + jsonio.canon_dumps(doc),
    "top-level-list": lambda doc: jsonio.canon_dumps([doc]),
    "components-list": lambda doc: jsonio.canon_dumps(
        {**doc, "components": list(doc["components"].values())}
    ),
}


@st.composite
def diagram_texts(draw):
    doc = json.loads(principal_text(draw(st.sampled_from(sorted(GOLDEN_PRINCIPAL_COEND)))))
    DIAGRAM_DAMAGE[draw(st.sampled_from(sorted(DIAGRAM_DAMAGE)))](doc, draw)
    text = DIAGRAM_FORMS[draw(st.sampled_from(sorted(DIAGRAM_FORMS)))](doc)
    # whole texts are drawn as often as cut ones, so the walk runs to its end in many cases
    end = draw(st.sampled_from(["whole", "whole", "truncated", "trailing"]))
    if end == "truncated":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif end == "trailing":
        text += draw(st.sampled_from(["x", " {}", "[]", ",1", "\n \t\r\n"]))
    return text


def _plain_read(path, text: str):
    """What ``read_diagram`` must give: ``diagram_from_doc(json.loads(text))`` and the first
    component's category document, or the ``DocumentError`` text of ``read_doc`` and of that."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"{path} is not valid JSON: {exc}"
    if not isinstance(doc, dict):
        return f"{path}: top level must be an object"
    try:
        return jsonio.diagram_from_doc(doc), next(iter(doc["components"].values()))["category"]
    except DocumentError as exc:
        return str(exc)


class TestDiagramReader:
    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("diagram-reader")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(diagram_texts())
    def test_reads_what_json_loads_reads(self, work, text):
        path = work / "diagram.json"
        path.write_text(text, encoding="utf-8")
        try:
            got = jsonio.read_diagram(path)
        except DocumentError as exc:
            got = str(exc)
        assert got == _plain_read(path, text)

    def test_a_scalar_that_begins_an_earlier_one_is_read_whole(self):
        # only containers are reused: "12" begins "123", "[1]" ends itself
        text = (
            '{"actions": {"g": {"c": 12, "d": 123, "e": [1], "f": [1], "h": [1, 2]}},'
            ' "components": {"a": {"category": {"objects": 12}}, "b": {"category": {"objects": 123}}}}'
        )
        tree = jsonio._diagram_tree(text)
        assert tree == json.loads(text)
        assert tree["actions"]["g"]["e"] is tree["actions"]["g"]["f"]

    @pytest.mark.parametrize("name", sorted(GOLDEN_PRINCIPAL_COEND))
    def test_coend_reads_the_written_diagram_without_json_loads(self, monkeypatch, tmp_path, name):
        diagram, category, out = tmp_path / "d.json", tmp_path / "cat.json", tmp_path / "out.json"
        assert cli.main(["principal", str(GOLDEN / f"{name}.json"), "-o", str(diagram)]) == 0
        jsonio.write_doc(category, jsonio.read_doc(GOLDEN / f"{name}.json")["category"])
        text = diagram.read_text(encoding="utf-8")
        loads, parsed = json.loads, []

        def no_diagram_loads(s, *args, **kwargs):
            assert s != text, "the diagram fell back to json.loads"
            return loads(s, *args, **kwargs)

        original = jsonio.diagram_from_doc
        monkeypatch.setattr(jsonio.json, "loads", no_diagram_loads)
        monkeypatch.setattr(jsonio, "diagram_from_doc", lambda doc: parsed.append(doc) or original(doc))
        assert cli.main(["coend", str(diagram), "--category", str(category), "-o", str(out)]) == 0
        assert _sha256(out) == GOLDEN_PRINCIPAL_COEND[name][1]
        [doc] = parsed
        cores = [sub["category"] for sub in doc["components"].values()]
        for key in ("objects", "morphisms", "compose", "identities"):
            assert len({id(core[key]) for core in cores}) == 1
        d = original(doc)
        distinct = {(g, d.fibre_obj[c]) for g, per_cell in d.actions.items() for c in per_cell}
        tables = [t for per_cell in d.actions.values() for t in per_cell.values()]
        assert len({id(t) for t in tables}) == len(distinct)

    @pytest.mark.parametrize("name", sorted(GOLDEN_PRINCIPAL_COEND))
    def test_validate_reads_the_written_diagram_without_json_loads(self, monkeypatch, tmp_path, name):
        diagram, report = tmp_path / "d.json", tmp_path / "report.json"
        assert cli.main(["principal", str(GOLDEN / f"{name}.json"), "-o", str(diagram)]) == 0
        text = diagram.read_text(encoding="utf-8")
        loads = json.loads

        def no_diagram_loads(s, *args, **kwargs):
            assert s != text, "the diagram fell back to json.loads"
            return loads(s, *args, **kwargs)

        monkeypatch.setattr(jsonio.json, "loads", no_diagram_loads)
        assert cli.main(["validate", str(diagram), "-o", str(report)]) == 0
        assert report.read_bytes() == b'{\n  "ok": true,\n  "subject": "diagram",\n  "violations": []\n}\n'

    def test_read_doc_gives_every_component_its_own_core(self, tmp_path):
        # callers edit what read_doc gives them, one component at a time
        diagram = tmp_path / "d.json"
        diagram.write_text(principal_text("triple_cover_c3"), encoding="utf-8")
        cores = [sub["category"]["compose"] for sub in jsonio.read_doc(diagram)["components"].values()]
        assert len({id(c) for c in cores}) == len(cores) == 3


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


# sha256 of the outputs written with row templates, on every golden bundle,
# from before canon_dumps wrote tables by template; an argument that names
# a golden document stands for its path.  certify and cover refuse some
# bundles with exit 2, and associate needs the bz2 category, so those runs
# are not listed.
GOLDEN_TEMPLATED = {
    "total bz2_double_cover_c3": "9a80c2fe37d22d3056f157d70b7a0b4512aa033106dda1f263eebbdde7312ced",
    "cover bz2_double_cover_c3": "e4e77a6957484e2ee23e24192ee543f71603b167dfe07443d798f95d7579d2ef",
    "certify bz2_double_cover_c3": "61485a0826776d001a958b41f3e1690e38f38fbf2dcdd87d0c1eb871a3e24448",
    "fnspace bz2_double_cover_c3 -V pt": "44178ba399f46fc5da31889ba2a83f9994f4100fbd308d9c32edbd8de1354a10",
    "associate bz2_double_cover_c3 bz2_trivializer_functor": "a07b83a97213247a37dd3e82038ec6d7f6954ed7d113a9d5eb2d5c2da58dcfb1",
    "total disk_collapse_two_strata": "4a805ef3b20315e926ce7cb02e97ade61036ac53e57b5f4f7977cc605c049019",
    "fnspace disk_collapse_two_strata -V n1": "b5def90dabb7edd7d30e1d9a974cbbfc531a23665da0f05dc7dab5f7457f31ee",
    "fnspace disk_collapse_two_strata -V n2": "3d8e55e3b1d7311007fbc8505f5a8b3ce7bddfa0fc22ab2bff9a3097d8a8bb6a",
    "total disk_trivial_two_strata": "f0057941459c8e0d5907cf64ae05cfb7ff765f9ce1093c83e7b8d13ad1b463ab",
    "cover disk_trivial_two_strata": "5e2d9ab559619989a0dddd474c8c60a601f0b288e49c52e9c356f32a53d5efec",
    "certify disk_trivial_two_strata": "fb1495d09f00f1ddba11c089aaf94715393626143f0e037a4d2070638c0d1bf5",
    "fnspace disk_trivial_two_strata -V pt": "eaee9bb3da596ed388db6bf04141b15b32deee9a95fb51f36a1cef96344ebab2",
    "associate disk_trivial_two_strata bz2_trivializer_functor": "d2cdaf9e4a65fc17d07e3388d9d97675ecf32ef60f3016324d64ac698ae30e1c",
    "total double_cover_c3": "8a03eb8e06f7670c07078d922ae344283d448646ef08da7f92a84391609ea52a",
    "cover double_cover_c3": "84d3404e8c9ec920d5470fc83a0d744831c60ef2028e879b404806025b2fe55f",
    "certify double_cover_c3": "82ffb1b9eadf2db937b0e09528bc9cce27cd18f987d85f986cb12211f99f5a65",
    "fnspace double_cover_c3 -V set1": "707d250ae7ff34b1c861394e689d199e5a4f01300746116d4212882a14c1c02d",
    "fnspace double_cover_c3 -V set2": "0f827a8d342f2adfbccb8dd9bac70371567fc6d9f982d60cb6b2a8ddda3c5792",
    "total orbit_free_bundle_c3": "63906a280576c4dbb98a949ca3d1f8ee2248b895eea6893670607192952f8e98",
    "cover orbit_free_bundle_c3": "2e0a773a3bc64c5ce37877f0eb9ce826f06d24760bddf984fd3885760bef7b7b",
    "fnspace orbit_free_bundle_c3 -V GG": "d78a8074e3966a4ab2ae50c3c021915544fbdf744b7291d898ea14644db61e01",
    "fnspace orbit_free_bundle_c3 -V Ge": "0461053c708109c71c8f4587e87aa3ed6639f03826f619dd073b70abc8625f1b",
    "total product_bundle_c3": "97e15654dae2500a9d64872190bdbc501e6df95a7143756b5192acc52052d27d",
    "cover product_bundle_c3": "d3c581b95d6c286d32931cb5bf39ba6d714164c266525fe4b56c130b90d3878f",
    "certify product_bundle_c3": "15cd0149f4e91da2d95acd6b0552e4d71ae848711a1c88cad4ddf96d3a012181",
    "fnspace product_bundle_c3 -V set1": "bd7439c89013db2a66bb5aea99a9eb45c022cf4bdf94dfa38e099b52131e94df",
    "fnspace product_bundle_c3 -V set2": "fe37f75bc8d19126a1e66029de59b7b3d335429329205c505d3a058e8ae7f915",
    "total triple_cover_c3": "961964c49909b747c27228604d7ba91e9cfdc5ec29c2eabf5cfd655b9e1055b4",
    "cover triple_cover_c3": "785e12f6e79740276643074b12e7653144916665c65b35d923ce98bd6aeb0f6f",
    "certify triple_cover_c3": "d305a201f6304b0a3c9c07bc28fb4d3dcee6db038ea9d2bac2331efe48d03ebc",
    "fnspace triple_cover_c3 -V set1": "3bc87e74055c7b8034d906b7c6aaf014c256d5fd2720d62fd9b8147c6ae901de",
    "fnspace triple_cover_c3 -V set2": "d3877e5fc2cc5e4b07807d7576adb79419031d4fc571106a491ddcd92e21b291",
    "fnspace triple_cover_c3 -V set3": "ba661334cd8340124e4460d66bea0e78c4d1ea56286b385d6c652cb75d4e2201",
    "total trivial_two_sheets_c3": "17da7102dee2e7d63e1c7087d341e1799733a8b0c1d8c496670fc87a202dd854",
    "cover trivial_two_sheets_c3": "0fb198dee90ae5350499bc09a61b1b30ffe5c89ac7798a820d0774aa074ada77",
    "certify trivial_two_sheets_c3": "abb1ce5028666f77b24d40e38904c58bf35df67b15a16565c3d19e3995c0a942",
    "fnspace trivial_two_sheets_c3 -V pt": "e4ef6406189cfa6e1d75b1a479cd752fa65167c05c9b966f3ccb8dbbd47d8dc2",
    "associate trivial_two_sheets_c3 bz2_trivializer_functor": "a07b83a97213247a37dd3e82038ec6d7f6954ed7d113a9d5eb2d5c2da58dcfb1",
    "pullback double_cover_c3 c6_fold_map": "1408a1602c20d6e0f58ba0e7f3fd67ddb95f32216f11ab87f624d24777a31455",
}


class TestTemplatedDocuments:
    def test_every_golden_bundle_is_pinned(self):
        for command in ("total", "fnspace"):
            named = {argv.split()[1] for argv in GOLDEN_TEMPLATED if argv.startswith(command + " ")}
            assert sorted(named) == sorted(GOLDEN_PRINCIPAL_COEND)

    @pytest.mark.parametrize("argv", sorted(GOLDEN_TEMPLATED))
    def test_golden_outputs_are_unchanged(self, tmp_path, argv):
        out = tmp_path / "out.json"
        args = [str(GOLDEN / f"{a}.json") if (GOLDEN / f"{a}.json").exists() else a for a in argv.split()]
        assert cli.main([*args, "-o", str(out)]) == 0
        assert _sha256(out) == GOLDEN_TEMPLATED[argv]
