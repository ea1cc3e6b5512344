"""Every command that reads a document, on that document mutated, ends in a
documented exit.

Each slot is a document some commands read: a golden bundle under every
bundle command, its principal diagram under ``coend``, and the attachment,
functor, map, stratification, ``--category`` and complex documents.  Each
case applies one or two mutations from one table to a slot's document.  No
mutation may let an exception escape ``cli.main``.  Where ``validate`` reads
the slot's kind, a command may exit 0 only on a document that ``validate``
accepts: every bundle command reads its bundle through the stage list that
``validate`` merges, and ``coend`` validates its diagram as ``validate`` does.
"""
import copy
import json
from functools import partial
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
    (work / "diagram.json").write_text(principal_text("double_cover_c3"), encoding="utf-8")
    for name in BUNDLES:
        jsonio.write_doc(work / f"{name}.category.json", _golden(name)["category"])
    return work


def _path(name):
    return str(GOLDEN / f"{name}.json")


def _diagram(name):
    return json.loads(principal_text(name))


def _coend(name, path, work):
    return [["coend", path, "--category", str(work / f"{name}.category.json")]]


def _strata(name):
    return {"strata": {c["id"]: c["stratum"] for c in _golden(name)["base"]["cells"]}}


# each document slot, grouped by the prefix of its name: a builder of its
# document, the kind validate reads it as (or None), and the commands that
# read it, given its path p and the work directory w
SLOTS = {
    **{f"bundle:{n}": (partial(_golden, n), "bundle", partial(commands, n)) for n in BUNDLES},
    **{f"diagram:{n}": (partial(_diagram, n), "diagram", partial(_coend, n)) for n in BUNDLES},
    "document:attachment": (lambda: json.loads(jsonio.canon_dumps(_attachment_doc())), None,
                            lambda p, w: [["attach", _path("trivial_two_sheets_c3"), p]]),
    "document:functor": (partial(_golden, "bz2_trivializer_functor"), None,
                         lambda p, w: [["associate", _path("bz2_double_cover_c3"), p]]),
    "document:map": (partial(_golden, "c6_fold_map"), None,
                     lambda p, w: [["pullback", _path("double_cover_c3"), p]]),
    "document:stratification": (partial(_strata, "disk_trivial_two_strata"), None,
                                lambda p, w: [["stratify", _path("disk_trivial_two_strata"), p]]),
    "document:category": (partial(_golden, "perm2_category"), "category",
                          lambda p, w: [["coend", str(w / "diagram.json"), "--category", p]]),
    "document:complex": (partial(_golden, "c3_complex"), "complex", lambda p, w: []),
}


def _pick(draw, items):
    """One of ``items``, or None when there are none."""
    return draw(st.sampled_from(items)) if items else None


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


def _holder(doc, draw, key):
    """A category (holding "compose") or bundle (holding "transitions") of ``doc``, or None."""
    return _pick(draw, [n for n in _containers(doc, []) if isinstance(n, dict) and key in n])


def _parallel(cat_doc, mid):
    ends = {m["id"]: (m["src"], m["tgt"]) for m in cat_doc["morphisms"]}
    return sorted(m for m, e in ends.items() if e == ends[mid] and m != mid)


def other_action_table(doc, draw):
    if cat := _holder(doc, draw, "compose"):
        mid = draw(st.sampled_from(sorted(cat["actions"])))
        others = [m for m in _parallel(cat, mid) if cat["actions"][m] != cat["actions"][mid]]
        if other := _pick(draw, others):
            cat["actions"][mid] = dict(cat["actions"][other])


def other_composite(doc, draw):
    if cat := _holder(doc, draw, "compose"):
        entry = draw(st.sampled_from(cat["compose"]))
        entry[2] = _pick(draw, _parallel(cat, entry[2])) or entry[2]


def other_transition(doc, draw):
    if bundle := _holder(doc, draw, "transitions"):
        t = draw(st.sampled_from(bundle["transitions"]))
        t["mor"] = _pick(draw, _parallel(bundle["category"], t["mor"])) or t["mor"]


def _entry(doc, draw):
    """A container of ``doc`` and one of its keys, or None when ``doc`` has no members."""
    if node := _pick(draw, _containers(doc, [])):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        return node, draw(st.sampled_from(keys))


def drop_entry(doc, draw):
    if entry := _entry(doc, draw):
        node, key = entry
        del node[key]


def other_type(doc, draw):
    if entry := _entry(doc, draw):
        node, key = entry
        node[key] = draw(st.sampled_from([3, None, True, "x", [node[key]], {"x": node[key]}]))


def list_for_string(doc, draw):
    if place := _pick(draw, [p for p in _places(doc, []) if not p[2]]):
        node, key, _ = place
        node[key] = [node[key]]


def rename_id(doc, draw):
    if place := _pick(draw, _places(doc, [])):
        node, key, is_key = place
        if is_key:
            node[key + "~"] = node.pop(key)
        else:
            node[key] += "~"


def repeat_row(doc, draw):
    if rows := _pick(draw, [n for n in _containers(doc, []) if isinstance(n, list)]):
        row = copy.deepcopy(draw(st.sampled_from(rows)))
        rows.insert(draw(st.integers(0, len(rows))), row)


# the category-aware mutations come first, and a case applies its mutations
# in this order: a structural edit may remove the rows that _parallel reads
MUTATIONS = {
    f.__name__: f
    for f in (other_action_table, other_composite, other_transition,
              drop_entry, other_type, list_for_string, rename_id, repeat_row)
}


@st.composite
def mutants(draw, group):
    slot = draw(st.sampled_from([s for s in SLOTS if s.startswith(f"{group}:")]))
    kinds = draw(st.lists(st.sampled_from(list(MUTATIONS)), min_size=1, max_size=2))
    kinds.sort(key=list(MUTATIONS).index)
    doc = SLOTS[slot][0]()
    for kind in kinds:
        MUTATIONS[kind](doc, draw)
    return slot, kinds, doc


@pytest.mark.parametrize("group", ["bundle", "diagram", "document"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_no_command_accepts_what_validate_refuses(work, group, data):
    slot, kinds, doc = data.draw(mutants(group))
    _, kind, argvs = SLOTS[slot]
    # written canonically, so a diagram's unmutated components repeat their core text
    path = work / "mutant.json"
    jsonio.write_doc(path, doc)
    out = str(work / "out")
    # a kind validate does not read leaves a command's exit unconstrained
    valid = cli.main(["validate", str(path), "--kind", kind, "-o", out]) if kind else 0
    assert valid in EXITS, (slot, kinds)
    for argv in argvs(str(path), work):
        # in process: an uncaught error fails the test as a traceback would
        code = cli.main([*argv, "-o", out])
        assert code in EXITS, (slot, kinds, argv)
        assert code != 0 or valid == 0, (slot, kinds, argv)


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
