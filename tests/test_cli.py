import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stratabundle import cellbase, cli, corpus, fincat, funcspace, jsonio, strabundle
from stratabundle.validation import ValidationReport

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(args):
    return cli.main(args)


def run_module(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "stratabundle", *argv], capture_output=True, text=True, env=env
    )


def write_example(tmp_path, name):
    path = tmp_path / f"{name}.json"
    jsonio.write_doc(path, corpus.example_doc(name))
    return str(path)


def test_validate_good_and_corrupted_document(tmp_path):
    good = write_example(tmp_path, "perm2_category")
    assert run(["validate", good]) == 0
    doc = json.loads(Path(good).read_text())
    # swap composed with itself is the identity; record it wrongly
    entry = next(e for e in doc["compose"] if e[0] == "p2:10" and e[1] == "p2:10")
    entry[2] = "p2:10"
    bad = tmp_path / "bad.json"
    jsonio.write_doc(bad, doc)
    assert run(["validate", str(bad)]) == 1


def test_validate_unreadable_is_exit_3(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("][", encoding="utf-8")
    assert run(["validate", str(path)]) == 3


# bytes that are no UTF-8, and objects nested deeper than json's parser recurses
UNDECODABLE = {
    "not-utf8": (b"\xff\xfe{}", "is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
    "nested": (b'{"a": ' * 100_000, "nests its values too deeply to be read"),
}


@pytest.mark.parametrize("text", UNDECODABLE)
@pytest.mark.parametrize("command", ["validate", "coend", "cover"])
def test_undecodable_text_is_a_document_error(tmp_path, command, text):
    data, message = UNDECODABLE[text]
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    proc = run_module(command, str(path))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"document error: {path} {message}")


def test_reconstruct_golden_double_cover(tmp_path):
    bundle = write_example(tmp_path, "double_cover_c3")
    out = tmp_path / "iso.json"
    assert run(["reconstruct", bundle, "-o", str(out)]) == 0
    iso = json.loads(out.read_text())
    assert set(iso["cells"]) == {"v0", "v1", "v2", "v0.v1", "v0.v2", "v1.v2"}
    for table in iso["cells"].values():
        assert sorted(table.values()) == ["set2.0", "set2.1"]


def test_pullback_golden_and_refusal(tmp_path, capsys):
    bundle = write_example(tmp_path, "double_cover_c3")
    fold = write_example(tmp_path, "c6_fold_map")
    out = tmp_path / "pulled.json"
    assert run(["pullback", bundle, fold, "-o", str(out)]) == 0
    assert run(["validate", str(out)]) == 0

    # mapping the circle onto the disk interior must be refused with exit 2
    disk_bundle = tmp_path / "disk_bundle.json"
    from stratabundle import strabundle

    cat, ff = corpus.bz2_category()
    b, s = corpus.fan_disk()
    jsonio.write_doc(
        disk_bundle,
        jsonio.bundle_to_doc(strabundle.product_bundle(b, s, cat, ff, "pt")),
    )
    refusal = write_example(tmp_path, "refusal_map_into_fan_disk")
    capsys.readouterr()
    assert run(["pullback", str(disk_bundle), refusal, "-o", str(tmp_path / "no.json")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "refused: map is not stratum-preserving: cell v0 has stratum 0 but its image w has stratum 1"
    ]


def test_fnspace_principal_coend_chain(tmp_path):
    bundle = write_example(tmp_path, "double_cover_c3")
    category = write_example(tmp_path, "perm2_category")
    fn = tmp_path / "fn.json"
    assert run(["fnspace", bundle, "-V", "set2", "-o", str(fn)]) == 0
    diagram = tmp_path / "diagram.json"
    assert run(["principal", bundle, "-o", str(diagram)]) == 0
    coend = tmp_path / "coend.json"
    assert run(["coend", str(diagram), "--category", category, "-o", str(coend)]) == 0
    assert run(["validate", str(coend)]) == 0
    assert run(["coend", str(diagram)]) == 2  # fibre functor is required


def test_attach_product_stratify_cover(tmp_path):
    y = write_example(tmp_path, "trivial_two_sheets_c3")
    from stratabundle import cellbase, strabundle

    cat, ff = corpus.bz2_category()
    m_base = cellbase.simplex_complex(["u0", "u1", "u2"])
    m = strabundle.product_bundle(m_base, cellbase.single_stratum(m_base), cat, ff, "pt")
    top = cellbase.simplex_name(["u0", "u1", "u2"])
    attachment = {
        "bundle": jsonio.bundle_to_doc(m),
        "attached_cells": sorted(c for c in m_base.cells if c != top),
        "map": {"vertex_map": {"u0": "v0", "u1": "v1", "u2": "v2"}},
        "fibre_morphisms": {c: "e" for c in m_base.cells if c != top},
    }
    att_path = tmp_path / "attachment.json"
    jsonio.write_doc(att_path, attachment)
    glued = tmp_path / "glued.json"
    assert run(["attach", y, str(att_path), "-o", str(glued)]) == 0
    assert run(["validate", str(glued)]) == 0

    other = write_example(tmp_path, "double_cover_c3")
    prod = tmp_path / "prod.json"
    assert run(["product", y, other, "-o", str(prod)]) == 0
    assert run(["validate", str(prod)]) == 0

    strat_doc = tmp_path / "strat.json"
    glue_doc = json.loads(Path(glued).read_text())
    jsonio.write_doc(
        strat_doc,
        {"strata": {c["id"]: c["stratum"] for c in glue_doc["base"]["cells"]}},
    )
    flat = dict(glue_doc)
    flat["base"] = {
        "cells": [dict(c, stratum=0) for c in glue_doc["base"]["cells"]]
    }
    flat_path = tmp_path / "flat.json"
    jsonio.write_doc(flat_path, flat)
    restrat = tmp_path / "restrat.json"
    assert run(["stratify", str(flat_path), str(strat_doc), "-o", str(restrat)]) == 0
    assert json.loads(Path(restrat).read_text()) == glue_doc

    cover = tmp_path / "cover.json"
    assert run(["cover", other, "-o", str(cover), "--dot", str(tmp_path / "g.dot")]) == 0
    cov = json.loads(Path(cover).read_text())
    assert cov["components"] == 1
    assert (tmp_path / "g.dot").read_text().startswith("graph total {")


def test_total_dot_goes_to_the_out_path_or_to_stdout(tmp_path, capsys):
    bundle = write_example(tmp_path, "double_cover_c3")
    x = jsonio.bundle_from_doc(jsonio.read_doc(bundle))
    dot = jsonio.total_to_dot(strabundle.realize_total(x))
    out = tmp_path / "total.dot"
    assert run(["total", bundle, "--dot", "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == dot
    assert capsys.readouterr().out == ""
    assert run(["total", bundle, "--dot"]) == 0
    assert capsys.readouterr().out == dot
    # written by rename, so no temp file is left beside it
    assert sorted(p.name for p in tmp_path.iterdir()) == ["double_cover_c3.json", "total.dot"]


def test_trivialize_and_certify(tmp_path):
    bundle = write_example(tmp_path, "double_cover_c3")
    out = tmp_path / "t.json"
    assert run(["trivialize", bundle, "--star", "v0", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["kind"] == "trivialization"
    assert run(["trivialize", bundle, "-o", str(out)]) == 0
    assert json.loads(out.read_text())["kind"] == "obstruction"
    assert run(["certify", bundle, "-o", str(out)]) == 0
    assert len(json.loads(out.read_text())["stars"]) == 6
    orbit = write_example(tmp_path, "orbit_free_bundle_c3")
    assert run(["certify", orbit, "-o", str(out)]) == 2


def test_associate_kills_monodromy(tmp_path):
    bundle = write_example(tmp_path, "bz2_double_cover_c3")
    functor = write_example(tmp_path, "bz2_trivializer_functor")
    out = tmp_path / "assoc.json"
    assert run(["associate", bundle, functor, "-o", str(out)]) == 0
    cover = tmp_path / "cov.json"
    assert run(["cover", str(out), "-o", str(cover)]) == 0
    assert json.loads(cover.read_text())["components"] == 2


def test_verify_subcommand_writes_report(tmp_path):
    out = tmp_path / "report.json"
    assert run([
        "verify", "--suite", "pullback", "--seeds", "5", "--seed", "3",
        "--max-cells", "25", "-o", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["suite"] == "pullback"
    assert doc["passes"] == 5
    assert doc["rng"] == "splitmix64"
    assert doc["wall_time"] is None


def test_verify_with_fewer_than_one_seed_exits_1(tmp_path):
    for seeds in ("0", "-5"):
        out = tmp_path / f"report{seeds}.json"
        assert run(["verify", "--suite", "pullback", "--seeds", seeds, "-o", str(out)]) == 1
        assert not out.exists()


# sha256 of each report of `scripts/run_suites.py --seeds 3`, recorded
# before the suites shared one driver
RUN_SUITES_SHA256 = {
    "pullback.json": "ff5482908b41dbd1a53e2786e3f36bb29848a4a6375be92260800aa15703ff1c",
    "bundle.json": "68db8c70d4d5582cc0ab779989989d733377e8cf95a7fe743c9b3845ff2114d4",
    "principal.json": "60a78c185f22e39e142db38892d35f3bed230bf1b041b4584756e3515c3bc24d",
    "fiberwise.json": "e1ee0d2a776619095746080425fb551ab5afdf7fdc02a5614861aec8ae21faf3",
    "associated.json": "7e27b66620224aa103c7ff4774b2930c58d8c57dd33b92344360f8ab55e74049",
}


def test_run_suites_script_writes_the_recorded_reports(tmp_path):
    script = Path(SRC).parent / "scripts" / "run_suites.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--seeds", "3", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == RUN_SUITES_SHA256


def test_manifest_roundtrip(tmp_path):
    write_example(tmp_path, "double_cover_c3")
    write_example(tmp_path, "c3_complex")
    assert run(["manifest", str(tmp_path)]) == 0
    assert run(["manifest", str(tmp_path), "--check"]) == 0
    (tmp_path / "c3_complex.json").write_text("{}", encoding="utf-8")
    assert run(["manifest", str(tmp_path), "--check"]) == 1


def test_module_entry_point_runs_in_subprocess(tmp_path):
    proc = run_module("example", "--list")
    assert proc.returncode == 0
    assert "double_cover_c3" in proc.stdout


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "options",
    [[], ["--cells", "v0", "--star", "v0"]],
    ids=["neither", "both"],
)
def test_restrict_needs_exactly_one_region_option(options):
    proc = run_module("restrict", str(GOLDEN / "double_cover_c3.json"), *options)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_restrict_to_an_empty_star_name_is_a_named_violation(tmp_path):
    bundle = str(GOLDEN / "double_cover_c3.json")
    assert run(["restrict", bundle, "--star", "", "-o", str(tmp_path / "out.json")]) == 1


def test_trivialize_takes_at_most_one_region_option():
    bundle = str(GOLDEN / "double_cover_c3.json")
    proc = run_module("trivialize", bundle, "--star", "v0", "--region", "v0")
    assert proc.returncode == 2
    assert "not allowed with argument" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("option", ["--star", "--region"])
def test_trivialize_over_an_empty_name_is_a_named_violation(option):
    # an empty value names no cell; it must not fall through to the whole base
    proc = run_module("trivialize", str(GOLDEN / "double_cover_c3.json"), option, "")
    assert proc.returncode == 1
    assert "invalid: unknown cell" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_spurious_identity_entry_is_a_violation(tmp_path):
    doc = jsonio.read_doc(GOLDEN / "perm2_category.json")
    doc["identities"]["ghost"] = "p2:10"
    path = tmp_path / "ghost.json"
    jsonio.write_doc(path, doc)
    out = tmp_path / "report.json"
    assert run(["validate", str(path), "-o", str(out)]) == 1
    assert json.loads(out.read_text())["violations"] == [
        {"code": "identity-spurious", "detail": "identity given for ghost, which is not an object"}
    ]


# a compose row naming an id that no morphism has, and the violations of
# perm2_category it gives; the reader maps known ids to the morphisms' own
# strings and keeps an unknown id's text
UNKNOWN_COMPOSE_IDS = {
    "g": (
        lambda doc: doc["compose"].append(["ghost", "p2:10", "p2:10"]),
        [("compose-spurious", "(ghost, p2:10) -> p2:10")],
    ),
    "composite": (
        lambda doc: doc["compose"][4].__setitem__(2, "ghost"),
        [
            ("compose-typing", "(p2:10, p2:10) -> ghost"),
            ("associativity", "(p2:10, p2:10, p2:01)"),
            ("associativity", "(p2:01, p2:10, p2:10)"),
            ("associativity", "(p2:10, p2:10, p2:10)"),
        ],
    ),
}


@pytest.mark.parametrize("damage", UNKNOWN_COMPOSE_IDS)
def test_unknown_id_in_compose_is_a_violation(tmp_path, damage):
    mutate, expected = UNKNOWN_COMPOSE_IDS[damage]
    doc = jsonio.read_doc(GOLDEN / "perm2_category.json")
    mutate(doc)
    path = tmp_path / "ghost.json"
    jsonio.write_doc(path, doc)
    out = tmp_path / "report.json"
    assert run(["validate", str(path), "-o", str(out)]) == 1
    assert json.loads(out.read_text())["violations"] == [
        {"code": code, "detail": detail} for code, detail in expected
    ]



def test_product_with_colliding_pair_ids_is_refused(tmp_path):
    # ("i", "s,j") and ("i,s", "j") both format as "(i,s,j)"; so do the
    # elements ("x", "y,z") and ("x,y", "z")
    from stratabundle import strabundle

    base, strat = corpus.c3()
    paths = []
    factors = [("A", ("x", "x,y"), "i", "i,s"), ("B", ("y,z", "z"), "j", "s,j")]
    for obj, (a, b), ident, swap in factors:
        cat, ff = fincat.concrete_category(
            {obj: (a, b)}, [(ident, obj, obj), (swap, obj, obj)],
            {ident: {a: a, b: b}, swap: {a: b, b: a}},
        )
        x = strabundle.product_bundle(base, strat, cat, ff, obj)
        path = tmp_path / f"{obj}.json"
        jsonio.write_doc(path, jsonio.bundle_to_doc(x))
        assert run(["validate", str(path)]) == 0
        paths.append(str(path))
    out = tmp_path / "product.json"
    proc = run_module("product", *paths, "-o", str(out))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "invalid: morphism pairs ('i', 's,j') and ('i,s', 'j') both get the id (i,s,j)"
    ]
    assert not out.exists()

# sha256 of the `validate -o` report of every golden bundle and category
# document, recorded while the category validator still ran the exhaustive
# associativity loop on every input
VALID_REPORT = {
    "bundle": "290d90f83d02e1c1495e4cc6acd9e48247179bc8c82b74f7890fdcb4b5500164",
    "category": "6809ed04743ef674f7c9eeb6749896709fdcd14f1cd6d0ecf053e5ec7f1542c6",
}
GOLDEN_VALIDATE_SHA256 = {
    "bz2_category.json": VALID_REPORT["category"],
    "bz2_double_cover_c3.json": VALID_REPORT["bundle"],
    "disk_collapse_two_strata.json": VALID_REPORT["bundle"],
    "disk_trivial_two_strata.json": VALID_REPORT["bundle"],
    "double_cover_c3.json": VALID_REPORT["bundle"],
    "finset12_category.json": VALID_REPORT["category"],
    "orbit_free_bundle_c3.json": VALID_REPORT["bundle"],
    "orbit_z2_category.json": VALID_REPORT["category"],
    "perm2_category.json": VALID_REPORT["category"],
    "product_bundle_c3.json": VALID_REPORT["bundle"],
    "triple_cover_c3.json": VALID_REPORT["bundle"],
    "trivial_two_sheets_c3.json": VALID_REPORT["bundle"],
}
# the same, for the invalid mutants of ``mutate_golden``; these pin the
# order of the violations
MUTANT_VALIDATE_SHA256 = {
    "bz2_category.json": "bd84b3b283f730161c10607b894f0b9e0fc72cb2882d282b53ab244c5235579a",
    "disk_trivial_two_strata.json": "c2259f75357fdd9c4ccec9c3bae9544677594acc50e7a4c1d64a452d1096d9de",
    "finset12_category.json": "aab84024de0f4fded6e751a27301bddd860be14ecd52d6b7d056850de9420f9a",
    "orbit_z2_category.json": "bd84b3b283f730161c10607b894f0b9e0fc72cb2882d282b53ab244c5235579a",
    "perm2_category.json": "133fd06ced820ee49e7ad0c8e59999574508a818b383957d164c3a29401aaf72",
}


def _other_parallel(cat_doc, mid):
    """The next morphism after ``mid``, in sorted order, with its endpoints."""
    ends = {m["id"]: (m["src"], m["tgt"]) for m in cat_doc["morphisms"]}
    parallel = sorted(m for m, e in ends.items() if e == ends[mid])
    if len(parallel) < 2:
        return None
    return parallel[(parallel.index(mid) + 1) % len(parallel)]


def mutate_golden(doc):
    """Re-point the last re-pointable composite of a category document, or
    the first re-pointable transition of a bundle document."""
    doc = json.loads(json.dumps(doc))
    if "transitions" not in doc:
        for entry in reversed(doc["compose"]):
            other = _other_parallel(doc, entry[2])
            if other:
                entry[2] = other
                return doc
    for t in doc.get("transitions", []):
        other = _other_parallel(doc["category"], t["mor"])
        if other:
            t["mor"] = other
            return doc
    return None


def validate_report_sha256(path, tmp_path):
    out = tmp_path / "report.json"
    run(["validate", str(path), "-o", str(out)])
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_golden_validate_reports_are_unchanged(tmp_path):
    docs = {
        p.name: p
        for p in sorted(GOLDEN.glob("*.json"))
        if jsonio.detect_kind(jsonio.read_doc(p)) in ("bundle", "category")
    }
    assert set(docs) == set(GOLDEN_VALIDATE_SHA256)
    for name, path in docs.items():
        assert validate_report_sha256(path, tmp_path) == GOLDEN_VALIDATE_SHA256[name], name
    for name, expected in MUTANT_VALIDATE_SHA256.items():
        mutant = tmp_path / name
        jsonio.write_doc(mutant, mutate_golden(jsonio.read_doc(docs[name])))
        assert validate_report_sha256(mutant, tmp_path) == expected, name


def test_broken_fibre_functor_is_a_report_not_a_traceback(tmp_path):
    doc = jsonio.read_doc(GOLDEN / "double_cover_c3.json")
    missing = json.loads(json.dumps(doc))
    del missing["category"]["actions"]["p2:10"]
    escaping = json.loads(json.dumps(doc))
    escaping["category"]["actions"]["p2:10"]["set2.0"] = "nowhere"
    cases = [("missing", missing, "action-missing"), ("escaping", escaping, "action-codomain")]
    for name, bad, code in cases:
        path = tmp_path / f"{name}.json"
        jsonio.write_doc(path, bad)
        for command in ("validate", "reconstruct"):
            proc = run_module(command, str(path))
            assert proc.returncode == 1, (name, command)
            assert "Traceback" not in proc.stderr
            report = json.loads(proc.stdout)
            assert report["subject"] == "bundle"
            assert code in {v["code"] for v in report["violations"]}


def _drop_one_entry(actions):
    del actions["p2:10"]["set2.1"]


@pytest.mark.parametrize("damage, message", [
    (lambda actions: actions.pop("p2:10"), "action-missing: p2:10"),
    (_drop_one_entry, "action-domain: p2:10: table keys differ from fibre of set2"),
    (lambda actions: actions["p2:10"].update({"set2.0": "nowhere"}),
     "action-codomain: p2:10: values escape fibre of set2"),
], ids=["missing-table", "missing-entry", "escaping-value"])
def test_coend_against_a_damaged_fibre_functor_is_a_named_violation(tmp_path, damage, message):
    diagram, category = tmp_path / "diagram.json", tmp_path / "category.json"
    assert run(["principal", str(GOLDEN / "double_cover_c3.json"), "-o", str(diagram)]) == 0
    cat_doc = jsonio.read_doc(GOLDEN / "double_cover_c3.json")["category"]
    damage(cat_doc["actions"])
    jsonio.write_doc(category, cat_doc)
    proc = run_module("coend", str(diagram), "--category", str(category))
    assert proc.returncode == 1
    assert f"invalid: fibre-functor invalid: {message}" in proc.stderr.splitlines()
    assert "Traceback" not in proc.stderr


def test_diagram_with_a_missing_composite_is_a_report(tmp_path):
    diagram, report = tmp_path / "diagram.json", tmp_path / "report.json"
    assert run(["principal", str(GOLDEN / "double_cover_c3.json"), "-o", str(diagram)]) == 0
    doc = jsonio.read_doc(diagram)
    first = sorted(doc["components"])[0]
    doc["components"][first]["category"]["compose"].pop()
    jsonio.write_doc(diagram, doc)
    proc = run_module("validate", str(diagram), "-o", str(report))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    # the diagram's category is its first component's, so set2's differs;
    # the references come before the category's laws
    assert jsonio.read_doc(report) == {
        "subject": "diagram",
        "ok": False,
        "violations": [{"code": "component-category", "detail": "set2"}],
    }


def test_a_diagram_category_without_a_composite_names_the_law(tmp_path):
    # every component misses the composite, so the category's laws are the first failing stage
    diagram, report = tmp_path / "diagram.json", tmp_path / "report.json"
    assert run(["principal", str(GOLDEN / "double_cover_c3.json"), "-o", str(diagram)]) == 0
    doc = jsonio.read_doc(diagram)
    for sub in doc["components"].values():
        sub["category"]["compose"].pop()
    jsonio.write_doc(diagram, doc)
    assert run(["validate", str(diagram), "-o", str(report)]) == 1
    assert jsonio.read_doc(report) == {
        "subject": "diagram",
        "ok": False,
        "violations": [
            {"code": "compose-missing", "detail": "(p2:10, p2:10)"},
            {"code": "associativity", "detail": "(p2:10, p2:01, p2:10)"},
        ],
    }


def test_component_with_another_category_is_a_named_violation(tmp_path):
    # the diagram's category is its first component's; set2 is the second
    diagram, report = tmp_path / "diagram.json", tmp_path / "report.json"
    assert run(["principal", str(GOLDEN / "double_cover_c3.json"), "-o", str(diagram)]) == 0
    doc = jsonio.read_doc(diagram)
    doc["components"]["set2"]["category"]["compose"].pop()
    jsonio.write_doc(diagram, doc)
    violation = {"code": "component-category", "detail": "set2"}
    proc = run_module("validate", str(diagram), "-o", str(report))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert jsonio.read_doc(report) == {"subject": "diagram", "ok": False, "violations": [violation]}
    category = str(GOLDEN / "perm2_category.json")
    proc = run_module("coend", str(diagram), "--category", category, "-o", str(report))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert violation in jsonio.read_doc(report)["violations"]


def test_coend_reads_an_equal_category_as_the_diagrams(tmp_path, monkeypatch):
    diagram = tmp_path / "diagram.json"
    assert run(["principal", str(GOLDEN / "double_cover_c3.json"), "-o", str(diagram)]) == 0
    built = []
    original = fincat.category
    monkeypatch.setattr(fincat, "category", lambda *args: built.append(args) or original(*args))
    category = str(GOLDEN / "perm2_category.json")
    assert run(["coend", str(diagram), "--category", category, "-o", str(tmp_path / "y.json")]) == 0
    assert len(built) == 1  # the diagram's; the --category document reuses it


def _cut_to_one_composite(cat_doc):
    cat_doc["compose"] = cat_doc["compose"][:1]
    cat_doc["identities"] = {}


def _other_composite(cat_doc):
    # (p2:10, p2:10) -> p2:10 instead of the identity: a table of another category
    g, f, _ = cat_doc["compose"][-1]
    cat_doc["compose"][-1] = [g, f, "p2:10"]


@pytest.mark.parametrize("damage", [_cut_to_one_composite, _other_composite],
                         ids=["cut-table", "other-composite"])
def test_coend_against_another_category_is_a_named_violation(tmp_path, damage):
    diagram, category, report = (tmp_path / f"{n}.json" for n in ("diagram", "category", "report"))
    assert run(["principal", str(GOLDEN / "double_cover_c3.json"), "-o", str(diagram)]) == 0
    cat_doc = jsonio.read_doc(GOLDEN / "perm2_category.json")
    damage(cat_doc)
    jsonio.write_doc(category, cat_doc)
    proc = run_module("coend", str(diagram), "--category", str(category), "-o", str(report))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "coend computed" not in proc.stderr
    assert [v["code"] for v in jsonio.read_doc(report)["violations"]] == ["category-mismatch"]


def law_broken_away_from_the_fibre(tmp_path):
    """Diagram and category documents whose category fails a law only on m: A -> B.

    idB.m = m2, so the left identity fails on m.  The one cell has fibre
    object A, and every action of the diagram is read into A, where the
    actions stay lawful.
    """
    cat = fincat.category(
        ["A", "B"],
        [("idA", "A", "A"), ("idB", "B", "B"), ("m", "A", "B"), ("m2", "A", "B")],
        {
            ("idA", "idA"): "idA", ("idB", "idB"): "idB", ("m", "idA"): "m",
            ("m2", "idA"): "m2", ("idB", "m"): "m2", ("idB", "m2"): "m2",
        },
        {"A": "idA", "B": "idB"},
    )
    ff = fincat.fibre_functor(
        {"A": ["a"], "B": ["b"]},
        {"idA": {"a": "a"}, "idB": {"b": "b"}, "m": {"a": "b"}, "m2": {"a": "b"}},
    )
    base = cellbase.complex_from_cells([("pt", 0, [])])
    strat, fibre_obj = cellbase.single_stratum(base), {"pt": "A"}
    components = {
        v: strabundle.StratBundle(base, strat, cat, fincat.hom_fibre_functor(cat, v), fibre_obj, {})
        for v in cat.objects
    }
    actions = funcspace._precomposition_tables(cat, fibre_obj, base.sorted_cells())
    d = funcspace.DiagramBundle(cat, base, strat, fibre_obj, {}, components, actions)
    diagram, category = tmp_path / "diagram.json", tmp_path / "category.json"
    jsonio.write_doc(diagram, jsonio.diagram_to_doc(d))
    jsonio.write_doc(category, jsonio.category_to_doc(cat, ff))
    return str(diagram), str(category)


LEFT_IDENTITY = {"code": "identity-law", "detail": "left identity fails on m"}


def test_validate_names_a_law_broken_away_from_the_fibre(tmp_path):
    diagram, _ = law_broken_away_from_the_fibre(tmp_path)
    report = tmp_path / "report.json"
    assert run(["validate", diagram, "-o", str(report)]) == 1
    assert jsonio.read_doc(report) == {"subject": "diagram", "ok": False, "violations": [LEFT_IDENTITY]}


def test_coend_writes_no_bundle_for_a_law_broken_away_from_the_fibre(tmp_path, capsys):
    diagram, category = law_broken_away_from_the_fibre(tmp_path)
    out = tmp_path / "out.json"
    assert run(["coend", diagram, "--category", category, "-o", str(out)]) == 1
    assert "identity-law: left identity fails on m" in capsys.readouterr().err
    assert jsonio.read_doc(out)["violations"] == [LEFT_IDENTITY]


def test_coend_gates_its_bundle_without_the_diagram_check(tmp_path, capsys, monkeypatch):
    # the bundle coend builds passes the stage list whatever the diagram
    # check let through; with that check passing everything, the law is
    # still refused before the coend runs
    diagram, category = law_broken_away_from_the_fibre(tmp_path)
    monkeypatch.setattr(funcspace, "validate_diagram", lambda d: ValidationReport("diagram"))
    out = tmp_path / "out.json"
    assert run(["coend", diagram, "--category", category, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "invalid: category invalid: identity-law: left identity fails on m" in err.splitlines()
    assert not out.exists()


@pytest.mark.parametrize("field", ["dim", "stratum"])
@pytest.mark.parametrize("value", [float("inf"), 1.5, True], ids=["Infinity", "1.5", "true"])
def test_non_integer_cell_number_is_a_document_error(tmp_path, field, value):
    doc = jsonio.read_doc(GOLDEN / "double_cover_c3.json")
    doc["base"]["cells"][0][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # json.dumps writes inf as Infinity
    proc = run_module("validate", str(path))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert f"{field} of cell 'v0' must be an integer" in proc.stderr


@pytest.mark.parametrize("command", ["validate", "cover", "certify", "total"])
@pytest.mark.parametrize("index, field, message", [
    (0, "id", "cell id must be a string, not 0"),
    (1, "faces", "face 0 of cell 'v0.v1' must be a string"),
], ids=["cell-id", "face-id"])
def test_non_string_cell_id_is_a_document_error(tmp_path, command, index, field, message):
    # integer ids used to reach sorted() next to string ids and raise TypeError
    doc = jsonio.read_doc(GOLDEN / "double_cover_c3.json")
    cell = doc["base"]["cells"][index]
    cell[field] = 0 if field == "id" else [0, *cell["faces"][1:]]
    path = tmp_path / "bad.json"
    jsonio.write_doc(path, doc)
    proc = run_module(command, str(path))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert f"document error: {message}" in proc.stderr.splitlines()


def test_cover_of_an_empty_complex_is_a_named_violation(tmp_path):
    doc = jsonio.read_doc(GOLDEN / "double_cover_c3.json")
    doc["base"]["cells"], doc["fibres"], doc["transitions"] = [], {}, []
    path = tmp_path / "empty.json"
    jsonio.write_doc(path, doc)
    proc = run_module("cover", str(path))
    assert proc.returncode == 1
    assert "invalid: bundle invalid: empty: complex has no cells" in proc.stderr.splitlines()
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["cover"], ["certify"], ["trivialize"], ["total"], ["principal"], ["fnspace", "-V", "set2"],
], ids=lambda argv: argv[0])
def test_commands_that_read_tables_gate_a_missing_table(tmp_path, argv):
    doc = jsonio.read_doc(GOLDEN / "double_cover_c3.json")
    del doc["category"]["actions"]["p2:10"]
    path = tmp_path / "bad.json"
    jsonio.write_doc(path, doc)
    command, *options = argv
    proc = run_module(command, str(path), *options)
    assert proc.returncode == 1
    assert "invalid: fibre-functor invalid: action-missing: p2:10" in proc.stderr.splitlines()
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _unknown_mor(doc):
    doc["transitions"][0]["mor"] = "nope"


def _unknown_fibre_object(doc):
    doc["fibres"]["v0"] = "nope"


def _unknown_identity(doc):
    doc["category"]["identities"]["set2"] = "zz"


def _missing_transition(doc):
    del doc["transitions"][0]


def _no_cells(doc):
    doc["base"]["cells"], doc["fibres"], doc["transitions"] = [], {}, []


def _missing_composite(doc):
    doc["category"]["compose"].pop()


# each damage of double_cover_c3 and the line the bundle loader refuses it with
LOADER_REFUSALS = {
    "unknown-mor": (_unknown_mor, "bundle invalid: transition-unknown: (v0, v0.v1) -> nope"),
    "unknown-fibre-object": (
        _unknown_fibre_object, "bundle invalid: fibre-object: cell v0 carries no object"
    ),
    "unknown-identity": (
        _unknown_identity, "category invalid: identity-missing: object set2 has no identity morphism"
    ),
    "missing-transition": (
        _missing_transition, "bundle invalid: transition-missing: [('v0', 'v0.v1')]"
    ),
    "no-cells": (_no_cells, "bundle invalid: empty: complex has no cells"),
    "missing-composite": (
        _missing_composite, "category invalid: compose-missing: (p2:10, p2:10)"
    ),
}


@pytest.mark.parametrize("damage", LOADER_REFUSALS)
@pytest.mark.parametrize("argv", [
    ["cover"], ["certify"], ["trivialize"], ["total"], ["principal"], ["fnspace", "-V", "set2"],
    ["restrict", "--star", "v0"], ["stratify", "strat.json"],
], ids=lambda argv: argv[0])
def test_every_bundle_command_refuses_unresolved_references(tmp_path, argv, damage):
    doc = jsonio.read_doc(GOLDEN / "double_cover_c3.json")
    jsonio.write_doc(tmp_path / "strat.json", {"strata": {c["id"]: 0 for c in doc["base"]["cells"]}})
    mutate, line = LOADER_REFUSALS[damage]
    mutate(doc)
    path = tmp_path / "bad.json"
    jsonio.write_doc(path, doc)
    command, *options = argv
    options = [str(tmp_path / o) if o.endswith(".json") else o for o in options]
    proc = run_module(command, str(path), *options)
    assert proc.returncode == 1
    assert "invalid: " + line in proc.stderr.splitlines()
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_associate_refuses_a_functor_whose_target_is_no_category(tmp_path, capsys):
    # the target category was read unchecked, and a bundle built over it
    doc = jsonio.read_doc(GOLDEN / "bz2_trivializer_functor.json")
    assert doc["target"]["compose"].pop() == ["g", "g", "e"]
    functor, out = tmp_path / "functor.json", tmp_path / "out.json"
    jsonio.write_doc(functor, doc)
    bundle = str(GOLDEN / "bz2_double_cover_c3.json")
    assert run(["associate", bundle, str(functor), "-o", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert "invalid: category invalid: compose-missing: (g, g)" in err
    assert not out.exists()


def _set(*path_and_value):
    *path, key, value = path_and_value

    def damage(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value

    return damage


def _first_key(mapping):
    return sorted(mapping)[0]


# each damage of double_cover_c3 and the document error it is refused with
NON_STRING_IDS = {
    "transition-mor": (
        lambda doc: doc["transitions"][0].__setitem__("mor", ["x"]),
        "transition morphism must be a string, not ['x']",
    ),
    # an endpoint of another type used to reach the engine, which died
    # sorting it among the string ids, or named it as a spurious transition
    "transition-face": (
        lambda doc: doc["transitions"][0].__setitem__("face", 3),
        "transition face must be a string, not 3",
    ),
    "transition-cell": (
        lambda doc: doc["transitions"][0].__setitem__("cell", None),
        "transition cell must be a string, not None",
    ),
    "transition-face-int-and-string": (
        lambda doc: (
            doc["transitions"][0].__setitem__("face", 3),
            doc["transitions"][1].__setitem__("face", "zz"),
        ),
        "transition face must be a string, not 3",
    ),
    "fibre-object": (_set("fibres", "v0", ["x"]), "fibre object must be a string, not ['x']"),
    "category-object": (
        _set("category", "objects", [["set2"]]), "category object must be a string, not ['set2']"
    ),
    "identity": (
        _set("category", "identities", "set2", ["x"]), "identity must be a string, not ['x']"
    ),
    "fibre-element": (
        _set("category", "fibres", "set2", [["a"], "b"]), "fibre element must be a string, not ['a']"
    ),
    "category-fibres": (
        _set("category", "fibres", []), "category fibres must be an object, not []"
    ),
    "action-table": (
        _set("category", "actions", "p2:10", [["set2.0", "set2.1"]]),
        "action table of 'p2:10' must be an object, not [['set2.0', 'set2.1']]",
    ),
    "category-number": (_set("category", 5), "category document must be an object, not 5"),
    "composed-morphism": (
        lambda doc: doc["category"]["compose"][0].__setitem__(0, 5),
        "morphism in compose must be a string, not 5",
    ),
    "composite": (
        lambda doc: doc["category"]["compose"][0].__setitem__(2, ["x"]),
        "morphism in compose must be a string, not ['x']",
    ),
    # leaves are checked before any row is read as a pair: a list used to
    # die hashing it, and a row whose pair a later row repeats went unread
    "composed-list": (
        lambda doc: doc["category"]["compose"][0].__setitem__(0, ["x"]),
        "morphism in compose must be a string, not ['x']",
    ),
    "overridden-composite": (
        lambda doc: doc["category"]["compose"].insert(0, [*doc["category"]["compose"][0][:2], 5]),
        "morphism in compose must be a string, not 5",
    ),
    "compose-pair": (
        lambda doc: doc["category"]["compose"].__setitem__(0, ["p1:0", "p1:0"]),
        "malformed category document: "
        "ValueError('not enough values to unpack (expected 3, got 2)')",
    ),
}


@pytest.mark.parametrize("damage", NON_STRING_IDS)
@pytest.mark.parametrize("command", ["validate", "cover"])
def test_non_string_id_or_wrong_container_in_a_bundle_is_a_document_error(
    tmp_path, capsys, command, damage
):
    # a list where an id belongs used to die hashing it, with a traceback
    doc = jsonio.read_doc(GOLDEN / "double_cover_c3.json")
    mutate, message = NON_STRING_IDS[damage]
    mutate(doc)
    path = tmp_path / "bad.json"
    jsonio.write_doc(path, doc)
    assert run([command, str(path)]) == 3
    assert f"document error: {message}" in capsys.readouterr().err.splitlines()


# each damage of a morphism row of bz2_double_cover_c3 and its document error
MISTYPED_MORPHISMS = {
    # an id of another type used to die sorting ids, or hashing a list
    "int-id": (0, "id", 5, "morphism id must be a string, not 5"),
    "null-id": (0, "id", None, "morphism id must be a string, not None"),
    "list-id": (1, "id", ["g"], "morphism id must be a string, not ['g']"),
    "list-tgt": (1, "tgt", ["pt"], "morphism tgt must be a string, not ['pt']"),
    # and an int src read as an endpoint ended in law violations, exit 1
    "int-src": (1, "src", 5, "morphism src must be a string, not 5"),
}


@pytest.mark.parametrize("damage", MISTYPED_MORPHISMS)
@pytest.mark.parametrize("command", ["validate", "certify"])
def test_a_mistyped_morphism_row_is_a_document_error(tmp_path, capsys, command, damage):
    doc = jsonio.read_doc(GOLDEN / "bz2_double_cover_c3.json")
    index, field, value, message = MISTYPED_MORPHISMS[damage]
    doc["category"]["morphisms"][index][field] = value
    path = tmp_path / "bad.json"
    jsonio.write_doc(path, doc)
    assert run([command, str(path)]) == 3
    assert f"document error: {message}" in capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("morphisms, message", [
    ({"e": "pt"}, "category morphisms must be a list, not {'e': 'pt'}"),
    ([{"id": "e", "src": "pt", "tgt": "pt"}, "g"], "morphism must be an object, not 'g'"),
], ids=["object", "string-row"])
def test_morphisms_that_are_no_list_of_objects_are_a_document_error(
    tmp_path, capsys, morphisms, message
):
    doc = jsonio.read_doc(GOLDEN / "bz2_double_cover_c3.json")
    doc["category"]["morphisms"] = morphisms
    path = tmp_path / "bad.json"
    jsonio.write_doc(path, doc)
    assert run(["validate", str(path)]) == 3
    assert f"document error: {message}" in capsys.readouterr().err.splitlines()


def _per_cell_table_list(doc):
    per_cell = doc["actions"][_first_key(doc["actions"])]
    per_cell[_first_key(per_cell)] = [["a", "b"]]


# each damage of the principal diagram of double_cover_c3 and its document error
DIAGRAM_CONTAINERS = {
    "components-list": (_set("components", []), "diagram components must be an object, not []"),
    "actions-list": (_set("actions", []), "diagram actions must be an object, not []"),
    "component-number": (
        lambda doc: doc["components"].__setitem__("set1", 3),
        "bundle document must be an object, not 3",
    ),
    "per-cell-table-list": (
        _per_cell_table_list, "action table of 'p1:0' over 'v0' must be an object, not [['a', 'b']]"
    ),
}


@pytest.mark.parametrize("damage", DIAGRAM_CONTAINERS)
@pytest.mark.parametrize("command", ["validate", "coend"])
def test_wrong_container_in_a_diagram_is_a_document_error(tmp_path, capsys, command, damage):
    diagram = tmp_path / "diagram.json"
    assert run(["principal", str(GOLDEN / "double_cover_c3.json"), "-o", str(diagram)]) == 0
    doc = jsonio.read_doc(diagram)
    mutate, message = DIAGRAM_CONTAINERS[damage]
    mutate(doc)
    jsonio.write_doc(diagram, doc)
    options = ["--category", str(GOLDEN / "perm2_category.json")] if command == "coend" else []
    capsys.readouterr()
    assert run([command, str(diagram), *options]) == 3
    assert f"document error: {message}" in capsys.readouterr().err.splitlines()


# each damage of bz2_trivializer_functor and its document error
FUNCTOR_CONTAINERS = {
    "on-objects-triples": (
        _set("on_objects", [["a", "b", "c"]]),
        "functor on_objects must be an object, not [['a', 'b', 'c']]",
    ),
    "on-morphisms-string": (
        _set("on_morphisms", "e"), "functor on_morphisms must be an object, not 'e'"
    ),
    "on-objects-value-list": (
        _set("on_objects", "pt", ["x"]), "functor image must be a string, not ['x']"
    ),
    "target-fibres-list": (
        _set("target", "fibres", []), "category fibres must be an object, not []"
    ),
    "target-actions-list": (
        _set("target", "actions", []), "category actions must be an object, not []"
    ),
}


@pytest.mark.parametrize("damage", FUNCTOR_CONTAINERS)
def test_wrong_container_in_a_functor_is_a_document_error(tmp_path, capsys, damage):
    doc = jsonio.read_doc(GOLDEN / "bz2_trivializer_functor.json")
    mutate, message = FUNCTOR_CONTAINERS[damage]
    mutate(doc)
    path = tmp_path / "functor.json"
    jsonio.write_doc(path, doc)
    assert run(["associate", str(GOLDEN / "bz2_double_cover_c3.json"), str(path)]) == 3
    assert f"document error: {message}" in capsys.readouterr().err.splitlines()


def test_strata_that_are_not_an_object_are_a_document_error(tmp_path, capsys):
    path = tmp_path / "strat.json"
    jsonio.write_doc(path, {"strata": []})
    assert run(["stratify", str(GOLDEN / "double_cover_c3.json"), str(path)]) == 3
    assert "document error: strata must be an object, not []" in capsys.readouterr().err.splitlines()


def test_the_parser_is_built_once_and_usage_errors_still_exit_2(capsys):
    assert cli.build_parser() is cli.build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run(["restrict", str(GOLDEN / "double_cover_c3.json")])
        assert exc.value.code == 2
        assert "usage: stratabundle restrict" in capsys.readouterr().err


# argv and exit code of a command that ends in each documented way
EXITS = {
    "ok": (["example", "--list"], 0),
    "invalid": (["verify", "--suite", "pullback", "--seeds", "0"], 1),
    "refused": (["certify", str(GOLDEN / "orbit_free_bundle_c3.json")], 2),
    "unreadable": (["validate", str(GOLDEN / "no_such_document.json")], 3),
}


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("argv, code", EXITS.values(), ids=EXITS)
def test_main_leaves_the_collector_as_it_found_it(collector, capsys, argv, code):
    assert run(argv) == code
    assert gc.isenabled() is collector


def test_a_usage_error_leaves_the_collector_as_it_found_it(collector, capsys):
    with pytest.raises(SystemExit):
        run(["restrict", str(GOLDEN / "double_cover_c3.json")])
    assert gc.isenabled() is collector


def test_an_unexpected_exception_leaves_the_collector_as_it_found_it(collector, monkeypatch):
    paused = []

    def failing_read(path):
        paused.append(not gc.isenabled())
        raise RuntimeError("unexpected")

    monkeypatch.setattr(jsonio, "read_shared", failing_read)
    with pytest.raises(RuntimeError, match="unexpected"):
        run(["validate", str(GOLDEN / "double_cover_c3.json")])
    assert paused == [True]
    assert gc.isenabled() is collector


def _attachment_doc():
    """A filled triangle glued onto the boundary circle of ``trivial_two_sheets_c3``."""
    from stratabundle import cellbase, strabundle

    cat, ff = corpus.bz2_category()
    m_base = cellbase.simplex_complex(["u0", "u1", "u2"])
    m = strabundle.product_bundle(m_base, cellbase.single_stratum(m_base), cat, ff, "pt")
    top = cellbase.simplex_name(["u0", "u1", "u2"])
    return {
        "bundle": jsonio.bundle_to_doc(m),
        "attached_cells": sorted(c for c in m_base.cells if c != top),
        "map": {"vertex_map": {"u0": "v0", "u1": "v1", "u2": "v2"}},
        "fibre_morphisms": {c: "e" for c in m_base.cells if c != top},
    }


def _golden(name):
    return str(GOLDEN / f"{name}.json")


# one successful run of every subcommand; "@name" is a document the test writes
EVERY_COMMAND = [
    ["validate", _golden("double_cover_c3")],
    ["attach", _golden("trivial_two_sheets_c3"), "@attachment"],
    ["pullback", _golden("double_cover_c3"), _golden("c6_fold_map")],
    ["restrict", _golden("double_cover_c3"), "--star", "v0"],
    ["product", _golden("trivial_two_sheets_c3"), _golden("double_cover_c3")],
    ["fnspace", _golden("double_cover_c3"), "-V", "set2"],
    ["principal", _golden("double_cover_c3")],
    ["coend", "@diagram", "--category", _golden("perm2_category")],
    ["reconstruct", _golden("double_cover_c3")],
    ["associate", _golden("bz2_double_cover_c3"), _golden("bz2_trivializer_functor")],
    ["trivialize", _golden("double_cover_c3")],
    ["certify", _golden("double_cover_c3")],
    ["cover", _golden("double_cover_c3"), "--dot", "@cover_dot"],
    ["stratify", _golden("double_cover_c3"), "@strat"],
    ["verify", "--suite", "all", "--seeds", "1"],
    ["example", "double_cover_c3"],
    ["total", _golden("double_cover_c3")],
    ["manifest", str(GOLDEN), "--check"],
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_no_command_leaves_cyclic_garbage(collector_off, tmp_path, capsys, argv):
    # engine data are freed by reference counting alone, which is what lets
    # main pause the collector; a reference cycle would stay until the next collection
    bundle = jsonio.read_doc(GOLDEN / "double_cover_c3.json")
    strata = {c["id"]: 0 for c in bundle["base"]["cells"]}
    jsonio.write_doc(tmp_path / "@strat", {"strata": strata})
    jsonio.write_doc(tmp_path / "@attachment", _attachment_doc())
    assert run(["principal", _golden("double_cover_c3"), "-o", str(tmp_path / "@diagram")]) == 0
    argv = [str(tmp_path / a) if a.startswith("@") else a for a in argv]
    gc.collect()
    assert run([*argv, "-o", str(tmp_path / "out")]) == 0
    assert gc.collect() == 0


# every command that reads a bundle, with the arguments after the bundle
BUNDLE_COMMANDS = [
    ["validate"],
    ["attach", "@attachment"],
    ["pullback", _golden("c6_fold_map")],
    ["restrict", "--star", "v0"],
    ["product", _golden("double_cover_c3")],
    ["fnspace", "-V", "set2"],
    ["principal"],
    ["reconstruct"],
    ["associate", _golden("bz2_trivializer_functor")],
    ["trivialize"],
    ["certify"],
    ["cover"],
    ["stratify", "@strat"],
    ["total"],
]


@pytest.mark.parametrize("argv", BUNDLE_COMMANDS, ids=lambda argv: argv[0])
def test_a_composite_that_is_no_string_is_a_document_error(tmp_path, argv):
    # a list composite used to die hashing it in check_composition, with a traceback
    doc = jsonio.read_doc(GOLDEN / "double_cover_c3.json")
    jsonio.write_doc(tmp_path / "@strat", {"strata": {c["id"]: 0 for c in doc["base"]["cells"]}})
    jsonio.write_doc(tmp_path / "@attachment", _attachment_doc())
    doc["category"]["compose"][0][2] = ["x"]
    path = tmp_path / "bad.json"
    jsonio.write_doc(path, doc)
    command, *options = argv
    options = [str(tmp_path / o) if o.startswith("@") else o for o in options]
    proc = run_module(command, str(path), *options)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "document error: morphism in compose must be a string, not ['x']" in proc.stderr.splitlines()


def _faces_as_one_string(doc):
    cell = next(c for c in doc["base"]["cells"] if c["id"] == "v0.v1")
    cell["faces"] = "v0v1"


# each string put where double_cover_c3 has a list of ids, and its document
# error; read as a list, the string used to give its characters one by one
STRING_FOR_A_LIST = {
    "compose-entry": (
        lambda doc: doc["category"]["compose"].__setitem__(0, "p2:"),
        "compose entry must be a list, not 'p2:'",
    ),
    "faces": (_faces_as_one_string, "faces of cell 'v0.v1' must be a list, not 'v0v1'"),
    "category-fibre": (
        _set("category", "fibres", "set2", "ab"), "fibre of 'set2' must be a list, not 'ab'"
    ),
    "category-objects": (
        _set("category", "objects", "set2"), "category objects must be a list, not 'set2'"
    ),
}


@pytest.mark.parametrize("damage", STRING_FOR_A_LIST)
@pytest.mark.parametrize("argv", BUNDLE_COMMANDS, ids=lambda argv: argv[0])
def test_a_string_where_a_list_is_due_is_a_document_error(tmp_path, capsys, argv, damage):
    doc = jsonio.read_doc(GOLDEN / "double_cover_c3.json")
    jsonio.write_doc(tmp_path / "@strat", {"strata": {c["id"]: 0 for c in doc["base"]["cells"]}})
    jsonio.write_doc(tmp_path / "@attachment", _attachment_doc())
    mutate, message = STRING_FOR_A_LIST[damage]
    mutate(doc)
    path = tmp_path / "bad.json"
    jsonio.write_doc(path, doc)
    command, *options = argv
    options = [str(tmp_path / o) if o.startswith("@") else o for o in options]
    # in process, so an uncaught error fails the test as a traceback would
    assert run([command, str(path), *options]) == 3
    assert f"document error: {message}" in capsys.readouterr().err.splitlines()


def _with_a_duplicate_compose_row(category, before):
    """``category`` with ``[p2:10, p2:10, p2:10]`` put next to the true row of that pair."""
    rows = category["compose"]
    true = next(i for i, r in enumerate(rows) if r[:2] == ["p2:10", "p2:10"])
    rows.insert(true if before else true + 1, ["p2:10", "p2:10", "p2:10"])


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
@pytest.mark.parametrize("kind", ["category", "bundle", "coend-category"])
def test_a_repeated_compose_pair_is_a_document_error(tmp_path, capsys, kind, before):
    # read into a dict, the later row used to replace the earlier one without a
    # word, so a duplicate before the true row passed validate with exit 0
    if kind == "bundle":
        doc = jsonio.read_doc(GOLDEN / "double_cover_c3.json")
        _with_a_duplicate_compose_row(doc["category"], before)
    else:
        doc = jsonio.read_doc(GOLDEN / "perm2_category.json")
        _with_a_duplicate_compose_row(doc, before)
    path = tmp_path / "bad.json"
    jsonio.write_doc(path, doc)
    if kind == "coend-category":
        diagram = tmp_path / "diagram.json"
        assert run(["principal", _golden("double_cover_c3"), "-o", str(diagram)]) == 0
        argv = ["coend", str(diagram), "--category", str(path)]
    else:
        argv = ["validate", str(path)]
    capsys.readouterr()
    assert run(argv) == 3
    message = "document error: category compose lists the pair (p2:10, p2:10) more than once"
    assert message in capsys.readouterr().err.splitlines()


# each table of double_cover_c3 with a row listed twice, and its document error
REPEATED_ROWS = {
    "cells": (
        lambda doc: doc["base"]["cells"].append(doc["base"]["cells"][0]),
        "complex cells lists 'v0' more than once",
    ),
    "morphisms": (
        lambda doc: doc["category"]["morphisms"].append(doc["category"]["morphisms"][2]),
        "category morphisms lists 'p2:10' more than once",
    ),
    "compose": (
        lambda doc: doc["category"]["compose"].append(doc["category"]["compose"][3]),
        "category compose lists the pair (p2:10, p2:01) more than once",
    ),
    "transitions": (
        lambda doc: doc["transitions"].append({"cell": "v0.v1", "face": "v0", "mor": "p2:10"}),
        "bundle transitions lists the face 'v0' of cell 'v0.v1' more than once",
    ),
}


@pytest.mark.parametrize("table", REPEATED_ROWS)
@pytest.mark.parametrize("command", ["validate", "cover"])
def test_a_repeated_row_is_a_document_error(tmp_path, capsys, command, table):
    # read into a dict, the later row used to replace the earlier one without a
    # word: a second (v0, v0.v1) transition through p2:10 split the cover in two
    doc = jsonio.read_doc(GOLDEN / "double_cover_c3.json")
    damage, message = REPEATED_ROWS[table]
    damage(doc)
    path = tmp_path / "bad.json"
    jsonio.write_doc(path, doc)
    assert run([command, str(path)]) == 3
    assert f"document error: {message}" in capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("cells, message", [
    ("u0u1", "attached cells must be a list, not 'u0u1'"),
    ([["u0"]], "attached cell must be a string, not ['u0']"),
], ids=["string", "list-member"])
def test_attached_cells_that_are_no_list_of_ids_are_a_document_error(tmp_path, capsys, cells, message):
    doc = _attachment_doc()
    doc["attached_cells"] = cells
    path = tmp_path / "attachment.json"
    jsonio.write_doc(path, doc)
    assert run(["attach", _golden("trivial_two_sheets_c3"), str(path)]) == 3
    assert f"document error: {message}" in capsys.readouterr().err.splitlines()


def _diagram_without_an_action_entry(tmp_path):
    """The principal diagram of double_cover_c3 with one action entry of set2 removed."""
    path = tmp_path / "diagram.json"
    assert run(["principal", _golden("double_cover_c3"), "-o", str(path)]) == 0
    doc = jsonio.read_doc(path)
    del doc["components"]["set2"]["category"]["actions"]["p2:01"]["p2:01"]
    jsonio.write_doc(path, doc)
    return str(path)


@pytest.mark.parametrize(
    "options", [["validate"], ["coend", "--category", _golden("perm2_category")]],
    ids=["validate", "coend"],
)
def test_a_diagram_component_with_a_missing_action_is_a_named_violation(tmp_path, options):
    # the component's bundle checks used to look up the missing entry, with a KeyError traceback
    command, *rest = options
    proc = run_module(command, _diagram_without_an_action_entry(tmp_path), *rest)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "  component-functor: set2" in proc.stderr.splitlines()


@pytest.mark.parametrize("fibre_morphisms, message", [
    (3, "fibre morphisms must be an object, not 3"),
    (None, "fibre morphisms must be an object, not None"),
    (True, "fibre morphisms must be an object, not True"),
    ("e", "fibre morphisms must be an object, not 'e'"),
    (["e"], "fibre morphisms must be an object, not ['e']"),
    ({"u0": ["e"]}, "fibre morphism must be a string, not ['e']"),
    ({"u0": {"e": "e"}}, "fibre morphism must be a string, not {'e': 'e'}"),
], ids=["number", "null", "bool", "string", "list", "list-value", "object-value"])
def test_attachment_fibre_morphisms_of_another_type_are_a_document_error(
    tmp_path, fibre_morphisms, message
):
    # dict() of them raised TypeError or ValueError, and an unhashable value a TypeError later
    doc = _attachment_doc()
    doc["fibre_morphisms"] = fibre_morphisms
    path = tmp_path / "attachment.json"
    jsonio.write_doc(path, doc)
    proc = run_module("attach", _golden("trivial_two_sheets_c3"), str(path))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert f"document error: {message}" in proc.stderr.splitlines()


def test_a_vertex_map_that_is_no_object_is_a_document_error(tmp_path):
    # a list used to die in dict() with a ValueError traceback
    doc = jsonio.read_doc(GOLDEN / "c6_fold_map.json")
    doc["vertex_map"] = [doc["vertex_map"]]
    path = tmp_path / "map.json"
    jsonio.write_doc(path, doc)
    proc = run_module("pullback", _golden("double_cover_c3"), str(path))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("document error: vertex map must be an object, not [{")


@pytest.mark.parametrize("vertex_map, message", [
    ([{"u0": "v0"}], "vertex map must be an object, not [{'u0': 'v0'}]"),
    ({"u0": ["v0"], "u1": "v1", "u2": "v2"}, "vertex image must be a string, not ['v0']"),
], ids=["list", "list-image"])
def test_an_attachment_vertex_map_of_another_type_is_a_document_error(
    tmp_path, capsys, vertex_map, message
):
    doc = _attachment_doc()
    doc["map"]["vertex_map"] = vertex_map
    path = tmp_path / "attachment.json"
    jsonio.write_doc(path, doc)
    assert run(["attach", _golden("trivial_two_sheets_c3"), str(path)]) == 3
    assert f"document error: {message}" in capsys.readouterr().err.splitlines()
