"""Every bundle command on mutated golden bundles, ``coend`` on mutated
principal diagrams, and a command on each other mutated document slot
(attachment, functor, map, stratification, ``--category``, and the
complex and category that ``validate`` reads) ends in a documented exit.

Each command reads its bundle through the stage list that ``validate``
merges, and ``coend`` validates its diagram as ``validate`` does, so a
command may exit 0 only on a document that ``validate`` accepts; no
mutation may let an exception escape ``cli.main``.
"""
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import principal_text
from test_cli import _attachment_doc

from stratabundle import cli, jsonio

GOLDEN = Path(__file__).resolve().parent / "golden"
BUNDLES = sorted(
    p.stem for p in GOLDEN.glob("*.json") if jsonio.detect_kind(jsonio.read_doc(p)) == "bundle"
)
EXITS = {0, 1, 2, 3}


def _golden(name):
    return jsonio.read_doc(GOLDEN / f"{name}.json")


def commands(name, path, work):
    """Every command that reads a bundle, on ``path``, with arguments that work on the golden ``name``."""
    doc = _golden(name)
    cells = sorted(c["id"] for c in doc["base"]["cells"])
    strat = work / f"{name}.strat.json"
    if not strat.exists():
        jsonio.write_doc(strat, {"strata": {c: 0 for c in cells}})
    return [
        ["attach", path, str(work / "attachment.json")],
        ["pullback", path, str(GOLDEN / "c6_fold_map.json")],
        ["restrict", path, "--star", cells[0]],
        ["product", path, path],
        ["fnspace", path, "-V", doc["category"]["objects"][0]],
        ["principal", path],
        ["reconstruct", path],
        ["associate", path, str(GOLDEN / "bz2_trivializer_functor.json")],
        ["trivialize", path],
        ["certify", path],
        ["cover", path],
        ["stratify", path, str(strat)],
        ["total", path],
    ]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    jsonio.write_doc(work / "attachment.json", _attachment_doc())
    return work


def _places(node, found):
    """Every string leaf and dict key of a document, as (container, key, is_key)."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        if isinstance(node, dict):
            found.append((node, key, True))
        if isinstance(value, str):
            found.append((node, key, False))
        elif isinstance(value, (dict, list)):
            _places(value, found)
    return found


def _containers(node, found):
    if isinstance(node, (dict, list)):
        if node:
            found.append(node)
        for value in node.values() if isinstance(node, dict) else node:
            _containers(value, found)
    return found


def rename_id(doc, draw):
    node, key, is_key = draw(st.sampled_from(_places(doc, [])))
    if is_key:
        node[key + "~"] = node.pop(key)
    else:
        node[key] += "~"


def list_for_string(doc, draw):
    strings = [p for p in _places(doc, []) if not p[2]]
    if strings:  # a stratification document holds none
        node, key, _ = draw(st.sampled_from(strings))
        node[key] = [node[key]]


def _entry(doc, draw):
    node = draw(st.sampled_from(_containers(doc, [])))
    return node, draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))


def drop_entry(doc, draw):
    node, key = _entry(doc, draw)
    del node[key]


def _parallel(cat_doc, mid):
    ends = {m["id"]: (m["src"], m["tgt"]) for m in cat_doc["morphisms"]}
    return sorted(m for m, e in ends.items() if e == ends[mid] and m != mid)


def other_action_table(doc, draw):
    cat = doc["category"]
    mid = draw(st.sampled_from(sorted(cat["actions"])))
    others = [m for m in _parallel(cat, mid) if cat["actions"][m] != cat["actions"][mid]]
    if others:
        cat["actions"][mid] = dict(cat["actions"][draw(st.sampled_from(others))])


def other_composite(doc, draw):
    entry = draw(st.sampled_from(doc["category"]["compose"]))
    others = _parallel(doc["category"], entry[2])
    if others:
        entry[2] = draw(st.sampled_from(others))


def other_transition(doc, draw):
    transition = draw(st.sampled_from(doc["transitions"]))
    others = _parallel(doc["category"], transition["mor"])
    if others:
        transition["mor"] = draw(st.sampled_from(others))


def other_type(doc, draw):
    node, key = _entry(doc, draw)
    node[key] = draw(st.sampled_from([3, None, True, "x", [node[key]], {"x": node[key]}]))


MUTATIONS = {
    f.__name__: f
    for f in (rename_id, list_for_string, drop_entry, other_action_table, other_composite,
              other_transition)
}


@st.composite
def mutants(draw):
    name = draw(st.sampled_from(BUNDLES))
    kind = draw(st.sampled_from(sorted(MUTATIONS)))
    doc = _golden(name)
    MUTATIONS[kind](doc, draw)
    return name, kind, doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutants())
def test_no_bundle_command_accepts_what_validate_refuses(work, case):
    name, kind, doc = case
    path = work / "mutant.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = str(work / "out")
    valid = cli.main(["validate", str(path), "-o", out])
    assert valid in EXITS
    for argv in commands(name, str(path), work):
        # in process: an uncaught error fails the test as a traceback would
        code = cli.main([*argv, "-o", out])
        assert code in EXITS, (name, kind, argv)
        assert code != 0 or valid == 0, (name, kind, argv)


# the mutations that take a bundle document, applied to one component of a diagram
COMPONENT_MUTATIONS = {"other_action_table", "other_composite", "other_transition"}


@st.composite
def diagram_mutants(draw):
    name = draw(st.sampled_from(BUNDLES))
    kind = draw(st.sampled_from(sorted(MUTATIONS)))
    doc = json.loads(principal_text(name))
    target = doc
    if kind in COMPONENT_MUTATIONS:
        target = doc["components"][draw(st.sampled_from(sorted(doc["components"])))]
    MUTATIONS[kind](target, draw)
    return name, kind, doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(diagram_mutants())
def test_coend_accepts_no_diagram_that_validate_refuses(work, case):
    name, kind, doc = case
    # written canonically, so the unmutated components repeat their core text
    path = work / "diagram.json"
    jsonio.write_doc(path, doc)
    category = work / f"{name}.category.json"
    if not category.exists():
        jsonio.write_doc(category, _golden(name)["category"])
    out = str(work / "out")
    valid = cli.main(["validate", str(path), "-o", out])
    assert valid in EXITS
    code = cli.main(["coend", str(path), "--category", str(category), "-o", out])
    assert code in EXITS, (name, kind)
    assert code != 0 or valid == 0, (name, kind)


def _strata(name):
    return {"strata": {c["id"]: c["stratum"] for c in _golden(name)["base"]["cells"]}}


def _path(name):
    return str(GOLDEN / f"{name}.json")


# every other document slot: the document to mutate, and a command that reads it at "@"
SLOTS = {
    "attachment": (_attachment_doc, ["attach", _path("trivial_two_sheets_c3"), "@"]),
    "functor": (
        lambda: _golden("bz2_trivializer_functor"),
        ["associate", _path("bz2_double_cover_c3"), "@"],
    ),
    "map": (lambda: _golden("c6_fold_map"), ["pullback", _path("double_cover_c3"), "@"]),
    "stratification": (
        lambda: _strata("disk_trivial_two_strata"),
        ["stratify", _path("disk_trivial_two_strata"), "@"],
    ),
    "category": (lambda: _golden("perm2_category"), ["coend", "@diagram", "--category", "@"]),
    "complex": (lambda: _golden("c3_complex"), ["validate", "@"]),
    "validated-category": (lambda: _golden("perm2_category"), ["validate", "@"]),
}
# the mutations that need no bundle document, and one that puts a value of another type anywhere
SLOT_MUTATIONS = {f.__name__: f for f in (drop_entry, list_for_string, other_type, rename_id)}


@st.composite
def slot_mutants(draw):
    slot = draw(st.sampled_from(sorted(SLOTS)))
    kind = draw(st.sampled_from(sorted(SLOT_MUTATIONS)))
    doc = SLOTS[slot][0]()
    SLOT_MUTATIONS[kind](doc, draw)
    return slot, kind, doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(slot_mutants())
def test_no_document_slot_lets_an_error_escape(work, case):
    slot, kind, doc = case
    path = work / "slot.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    diagram = work / "double_cover_c3.principal.json"
    if not diagram.exists():
        diagram.write_text(principal_text("double_cover_c3"), encoding="utf-8")
    names = {"@": str(path), "@diagram": str(diagram)}
    argv = [names.get(a, a) for a in SLOTS[slot][1]]
    # in process: an uncaught error fails the test as a traceback would
    assert cli.main([*argv, "-o", str(work / "out")]) in EXITS, (slot, kind)


def _give_p3_021_the_table_of_p3_102(doc):
    actions = doc["category"]["actions"]
    actions["p3:021"] = dict(actions["p3:102"])


def _break_the_square_over_v0_v1(doc):
    transition = next(
        t for t in doc["transitions"] if (t["face"], t["cell"]) == ("v0.v1", "u0.u1.u2")
    )
    assert transition["mor"] == "e"
    transition["mor"] = "g"


# a broken functor and a broken coherence square, which every command but
# validate and reconstruct used to accept
REPRODUCTIONS = {
    "broken-functor": (
        "triple_cover_c3", _give_p3_021_the_table_of_p3_102, "action-composition",
        "invalid: fibre-functor invalid: action-composition: (p3:021, p3:102); ",
    ),
    "broken-square": (
        "disk_trivial_two_strata", _break_the_square_over_v0_v1, "coherence",
        "invalid: bundle invalid: coherence: descents u0.u1.u2 -> v0.v1 -> v0 and ",
    ),
}


@pytest.mark.parametrize("case", REPRODUCTIONS)
def test_every_bundle_command_refuses_a_broken_functor_or_square(work, capsys, case):
    name, damage, code, line = REPRODUCTIONS[case]
    doc = _golden(name)
    damage(doc)
    path = work / f"{case}.json"
    jsonio.write_doc(path, doc)
    report = work / f"{case}.report.json"
    assert cli.main(["validate", str(path), "-o", str(report)]) == 1
    assert {v["code"] for v in jsonio.read_doc(report)["violations"]} == {code}
    capsys.readouterr()
    for argv in commands(name, str(path), work):
        out = work / f"{case}.out.json"
        out.unlink(missing_ok=True)
        assert cli.main([*argv, "-o", str(out)]) == 1, argv
        err = capsys.readouterr().err.splitlines()
        if argv[0] == "reconstruct":  # writes the merged report, as validate does
            assert jsonio.read_doc(out) == jsonio.read_doc(report)
        else:
            assert any(msg.startswith(line) for msg in err), (argv, err)
            assert not out.exists(), argv
