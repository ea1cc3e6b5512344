"""Guards for the scripts that drive the package from outside."""
import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from stratabundle import (
    cellbase,
    cli,
    corpus,
    fincat,
    funcspace,
    jsonio,
    oracle,
    strabundle,
    triviality,
)
from stratabundle.validation import StructureError

from conftest import build_twisted_circle

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_name_resolves():
    # the traced benchmark run wraps these names by attribute; a renamed or
    # deleted function would only fail there, long after the change
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.WRAPPED.items()
        for name in names
        if not callable(getattr(spans.LAYERS[layer], name, None))
    ]
    assert missing == []


# perfbench/spans.py wraps poset_spanning_tree by name, and no program code calls it
UNREFERENCED_EXPORTS = {"poset_spanning_tree"}


def test_every_exported_name_has_a_caller():
    # a public name that only the tests call is dead weight in the engine
    package = ROOT / "src" / "stratabundle"
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    modules = {p.stem for p in sources}
    used = set()
    for path in sources + sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):  # a bare name, as in its own module
                used.add(node.id)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):  # module.name
                used.add(node.attr)
    assert sorted(exported - used - UNREFERENCED_EXPORTS) == []
    assert UNREFERENCED_EXPORTS <= exported - used


# these two write the full violation report of a bundle, so they merge every
# stage's report instead of raising at the first failing one
UNGATED_COMMANDS = {"cmd_validate", "cmd_reconstruct"}


def test_bundle_commands_read_bundles_through_the_loader():
    # a command that parses a bundle itself would skip the reference gate
    # of cli._load_bundle and could die on an unknown id with a traceback
    tree = ast.parse((ROOT / "src" / "stratabundle" / "cli.py").read_text(encoding="utf-8"))
    direct = sorted(
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute)
        and node.attr == "bundle_from_doc"
        and isinstance(node.value, ast.Name)
        and node.value.id == "jsonio"
    )
    assert sorted(set(direct)) == sorted(UNGATED_COMMANDS)


# the loaders of a command's first bundle, and the readers a command may call
# after one, each of which builds a category from a second category document
BUNDLE_LOADERS = {"_load_bundle", "_load_bundle_pair"}
SECOND_CATEGORY_READERS = BUNDLE_LOADERS | {"functor_from_doc", "attachment_from_doc"}


def test_a_second_category_read_is_handed_the_first_bundles_category():
    # without the known pair an equal category is built and gated twice
    tree = ast.parse((ROOT / "src" / "stratabundle" / "cli.py").read_text(encoding="utf-8"))
    second_reads, unpaired = set(), []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
            continue
        calls = sorted(
            (node for node in ast.walk(fn) if isinstance(node, ast.Call)),
            key=lambda node: (node.lineno, node.col_offset),
        )
        names = [getattr(c.func, "attr", getattr(c.func, "id", None)) for c in calls]
        first = next((i for i, name in enumerate(names) if name in BUNDLE_LOADERS), None)
        if first is None:
            continue
        for call, name in list(zip(calls, names))[first + 1:]:
            if name in SECOND_CATEGORY_READERS:
                second_reads.add(fn.name)
                if not any(k.arg == "known" for k in call.keywords):
                    unpaired.append(f"{fn.name}: {name}")
    assert unpaired == []
    assert second_reads == {"cmd_associate", "cmd_attach", "cmd_product"}


def test_no_command_runs_a_validator_of_its_own():
    # every bundle comes through _load_bundle or the merged stage list; a
    # check called beside them would be a second, partial gate
    tree = ast.parse((ROOT / "src" / "stratabundle" / "cli.py").read_text(encoding="utf-8"))
    direct = sorted(
        f"{fn.name}: {node.value.id}.{node.attr}"
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("fincat", "strabundle")
        and node.attr.startswith(("check_", "validate_"))
    )
    assert direct == []


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((ROOT / "src" / "stratabundle" / f"{module}.py").read_text(encoding="utf-8"))
    return next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == name)


@pytest.mark.parametrize("function", ["coend", "reconstruct_check"])
def test_the_coend_runs_no_validator_of_its_own(function):
    # every bundle that reaches the coend has passed the gate; a check here
    # would be a second gate, paid on every call
    names = (
        node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
        for node in ast.walk(_function("funcspace", function))
    )
    assert sorted(n for n in names if n.lstrip("_").startswith(("check_", "validate_"))) == []


def test_the_coend_command_gates_its_bundle_first():
    # cmd_coend builds its bundle from the diagram and --category; the coend
    # must read it only as the gate returns it
    calls = [
        node
        for node in ast.walk(_function("cli", "cmd_coend"))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and (node.func.value.id, node.func.attr) == ("funcspace", "coend")
    ]
    assert len(calls) == 1
    (bundle,) = calls[0].args
    assert isinstance(bundle, ast.Call) and isinstance(bundle.func, ast.Name)
    assert bundle.func.id == "_valid_bundle"


def test_string_checks_read_a_container_not_an_iterator():
    # _strings reads its argument twice: one C-level pass, then a loop that
    # names the culprit.  On a one-shot iterator the loop finds nothing left,
    # and a value that is no string passes the check
    one_shot = {"_flatten", "map", "filter", "zip", "iter"}
    source = (ROOT / "src" / "stratabundle" / "jsonio.py").read_text(encoding="utf-8")
    offenders = [
        f"jsonio.py:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", "") == "_strings"
        and (
            isinstance(node.args[0], ast.GeneratorExp)
            or getattr(getattr(node.args[0], "func", None), "id", "") in one_shot
        )
    ]
    assert offenders == []


def _stage_list(node) -> bool:
    """Whether ``node`` is a call of a ``*_stages`` function."""
    func = getattr(node, "func", None)
    return getattr(func, "attr", getattr(func, "id", "")).endswith("_stages")


def test_only_validation_reads_a_stage_list_for_its_first_failure():
    # validation.first_failure is the one walk that stops at the first
    # failing stage; a loop of one's own is a second copy of it.  A loop
    # that yields every stage on builds a longer stage list.
    offenders = []
    for path in sorted((ROOT / "src" / "stratabundle").glob("*.py")):
        if path.name == "validation.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.For) and _stage_list(node.iter):
                body = ast.Module(body=node.body, type_ignores=[])
                if not any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(body)):
                    offenders.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.comprehension) and _stage_list(node.iter):
                offenders.append(f"{path.name}:{node.iter.lineno}")
    assert offenders == []


def _names(function: ast.FunctionDef) -> list[str]:
    return [
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(function)
        if isinstance(node, (ast.Attribute, ast.Name))
    ]


def test_the_suites_filter_their_inputs_through_the_gate():
    # stages 6-8 alone would file an unlawful generated category as a
    # theorem violation, or pass it
    instance = _names(_function("oracle", "_valid_instance"))
    assert "bundle_stages" in instance and "validate_bundle" not in instance
    fiberwise = _function("oracle", "_check_fiberwise")
    assert "bundle_stages" in _names(fiberwise)
    checked = [
        ast.unparse(node.args[0])
        for node in ast.walk(fiberwise)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "validate_bundle"
    ]
    assert checked == ["prod"]  # the product, built from gated factors


def test_loading_a_bundle_runs_no_exhaustive_loop(exhaustive_calls, tmp_path):
    # Light's generators decide associativity and the functor laws of a valid
    # bundle; a cubic or all-pairs loop would only show as slower commands
    cat, ff = corpus.perm_category(4)
    base = cellbase.cycle_complex(3)
    x = strabundle.product_bundle(base, cellbase.single_stratum(base), cat, ff, "set4")
    path = tmp_path / "perm4.json"
    jsonio.write_doc(path, jsonio.bundle_to_doc(x))
    assert cli._load_bundle(str(path)).cat == cat
    assert exhaustive_calls == {"_check_associativity": 0, "_failing_pairs": 0}
    # a table that breaks a law fails the generator check, and only then does
    # the exhaustive loop run, to name every pair
    doc = jsonio.bundle_to_doc(x)
    doc["category"]["actions"]["p4:1023"] = doc["category"]["actions"]["p4:0132"]
    jsonio.write_doc(path, doc)
    with pytest.raises(StructureError, match="^fibre-functor invalid: action-composition: "):
        cli._load_bundle(str(path))
    assert exhaustive_calls == {"_check_associativity": 0, "_failing_pairs": 1}


def test_associate_checks_the_functor_on_generators(exhaustive_calls, tmp_path):
    # a functor between lawful categories is proved lawful from its source's
    # generators; only a broken image pays for the all-pairs pass
    cat, ff = corpus.perm_category(4)
    base = cellbase.cycle_complex(3)
    x = strabundle.product_bundle(base, cellbase.single_stratum(base), cat, ff, "set4")
    bundle, functor = str(tmp_path / "perm4.json"), tmp_path / "functor.json"
    jsonio.write_doc(bundle, jsonio.bundle_to_doc(x))
    doc = jsonio.functor_to_doc(fincat.identity_cat_functor(cat), ff)
    jsonio.write_doc(functor, doc)
    out = str(tmp_path / "out.json")
    assert cli.main(["associate", bundle, str(functor), "-o", out]) == 0
    assert exhaustive_calls == {"_check_associativity": 0, "_failing_pairs": 0}
    doc["on_morphisms"]["p4:1023"] = "p4:0132"
    jsonio.write_doc(functor, doc)
    assert cli.main(["associate", bundle, str(functor), "-o", out]) == 1
    assert exhaustive_calls == {"_check_associativity": 0, "_failing_pairs": 1}


def _callers(tree: ast.Module, name: str) -> list[str]:
    """Qualified names of the functions in ``tree`` that call ``name``, once per call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "attr", getattr(func, "id", None)) == name:
                    found.append(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def test_only_the_laws_property_decides_a_category():
    # a category's laws are decided once, on the category; a second call
    # site would run Light's test again on a category already decided
    callers = [
        f"{path.stem}.{caller}"
        for path in sorted((ROOT / "src" / "stratabundle").glob("*.py"))
        for caller in _callers(ast.parse(path.read_text(encoding="utf-8")), "validate_category")
    ]
    assert callers == ["fincat.FiniteCategory.laws"]


# what a category or fibre functor is made of; ``FiniteCategory.laws`` and
# the category's image-inverse tables keep answers about them
BUILT_ONCE = {"morphisms", "compose_table", "identities", "on_objects", "on_morphisms"}
DICT_EDITS = {"clear", "pop", "popitem", "setdefault", "update"}


def test_no_code_edits_a_category_or_fibre_functor_after_building_it():
    # an edit would leave a kept answer stale; code that wants a changed
    # category or functor builds a new one
    def part(node, aliases):
        # ``ff.on_morphisms``, ``ff.on_morphisms[m]``, or a name bound to one
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id in aliases
        return isinstance(node, ast.Attribute) and node.attr in BUILT_ONCE

    def own_nodes(scope):
        # the nodes of ``scope`` outside the functions defined in it
        todo = list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                todo += ast.iter_child_nodes(node)

    offenders = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.Lambda)):
                continue
            nodes = list(own_nodes(scope))
            aliases = set()
            for node in nodes:
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        pairs = [(target, node.value)]
                        if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                            pairs = zip(target.elts, node.value.elts)
                        aliases |= {t.id for t, v in pairs if isinstance(t, ast.Name) and part(v, ())}
            for node in nodes:
                if isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
                    edited = (
                        isinstance(node, ast.Attribute) and node.attr in BUILT_ONCE
                        or isinstance(node, ast.Subscript) and part(node.value, aliases)
                    )
                else:
                    edited = (
                        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in DICT_EDITS and part(node.func.value, aliases)
                    )
                if edited:
                    offenders.add(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert sorted(offenders) == []


def test_coend_decides_its_category_once(category_validations, tmp_path):
    # the diagram check and the bundle gate read one category object
    x = corpus.double_cover_c3()
    diagram, category = tmp_path / "diagram.json", tmp_path / "category.json"
    jsonio.write_doc(diagram, jsonio.diagram_to_doc(funcspace.principal_diagram(x)))
    jsonio.write_doc(category, jsonio.category_to_doc(x.cat, x.ff))
    argv = ["coend", str(diagram), "--category", str(category), "-o", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0
    assert len(category_validations) == 1


@pytest.fixture
def recorded(monkeypatch):
    """``record(module, name)`` wraps that function to append its arguments to a list."""

    def record(module, name):
        calls, original = [], getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
        return calls

    return record


def test_associate_reads_an_equal_target_as_the_bundles_category(
    category_validations, recorded, tmp_path
):
    # the wide category's identity functor: one perm_category(5), decided once
    cat, ff = corpus.perm_category(5)
    bundle, functor = tmp_path / "bundle.json", tmp_path / "functor.json"
    jsonio.write_doc(bundle, jsonio.bundle_to_doc(build_twisted_circle(cat, ff, "set5", "p5:12340")))
    jsonio.write_doc(functor, jsonio.functor_to_doc(fincat.identity_cat_functor(cat), ff))
    associated = recorded(funcspace, "associated_bundle")
    out = tmp_path / "out.json"
    assert cli.main(["associate", str(bundle), str(functor), "-o", str(out)]) == 0
    (x, phi, _), = associated
    assert phi.target is x.cat
    assert category_validations == [x.cat]
    assert out.read_bytes() == bundle.read_bytes()


def test_associate_builds_a_target_that_differs_by_one_composite(
    category_validations, tmp_path, capsys
):
    # the refusal of test_associate_refuses_a_functor_whose_target_is_no_category,
    # reached through a target category of its own
    doc = jsonio.read_doc(ROOT / "tests" / "golden" / "bz2_trivializer_functor.json")
    assert doc["target"]["compose"].pop() == ["g", "g", "e"]
    functor, out = tmp_path / "functor.json", tmp_path / "out.json"
    jsonio.write_doc(functor, doc)
    bundle = str(ROOT / "tests" / "golden" / "bz2_double_cover_c3.json")
    assert cli.main(["associate", bundle, str(functor), "-o", str(out)]) == 1
    assert len(category_validations) == 2
    assert category_validations[0] is not category_validations[1]
    assert "invalid: category invalid: compose-missing: (g, g)" in capsys.readouterr().err.splitlines()
    assert not out.exists()


def test_product_reads_the_second_bundles_equal_category_as_the_first(
    category_validations, recorded, tmp_path
):
    products = recorded(strabundle, "fiberwise_product")
    golden = ROOT / "tests" / "golden"
    argv = ["product", str(golden / "double_cover_c3.json"), str(golden / "product_bundle_c3.json")]
    assert cli.main([*argv, "-o", str(tmp_path / "out.json")]) == 0
    (x, x2), = products
    assert x2.cat is x.cat
    assert category_validations == [x.cat]


def test_attach_reads_the_piece_bundles_equal_category_as_the_bundles(
    category_validations, recorded, tmp_path
):
    cat, ff = corpus.bz2_category()
    m_base = cellbase.simplex_complex(["u0", "u1", "u2"])
    m = strabundle.product_bundle(m_base, cellbase.single_stratum(m_base), cat, ff, "pt")
    top = cellbase.simplex_name(["u0", "u1", "u2"])
    attachment = tmp_path / "attachment.json"
    jsonio.write_doc(attachment, {
        "bundle": jsonio.bundle_to_doc(m),
        "attached_cells": sorted(c for c in m_base.cells if c != top),
        "map": {"vertex_map": {"u0": "v0", "u1": "v1", "u2": "v2"}},
        "fibre_morphisms": {c: "e" for c in m_base.cells if c != top},
    })
    attached = recorded(strabundle, "attach_bundle")
    y = ROOT / "tests" / "golden" / "trivial_two_sheets_c3.json"
    assert cli.main(["attach", str(y), str(attachment), "-o", str(tmp_path / "out.json")]) == 0
    (y, m, *_), = attached
    assert m.cat is y.cat
    assert category_validations == [y.cat]


@pytest.fixture
def category_validations(monkeypatch):
    calls = []
    original = fincat.validate_category

    def counting(cat):
        calls.append(cat)
        return original(cat)

    monkeypatch.setattr(fincat, "validate_category", counting)
    return calls


@pytest.mark.parametrize("document", ["double_cover_c3.json", "perm2_category.json"])
def test_validate_calls_the_traced_category_validator(category_validations, tmp_path, document):
    # the traced run times `fincat.validate_category` by replacing the module
    # attribute, so the CLI must reach the validator through it
    out = tmp_path / "report.json"
    assert cli.main(["validate", str(ROOT / "tests" / "golden" / document), "-o", str(out)]) == 0
    assert len(category_validations) == 1


@pytest.fixture
def principal_diagram_calls(monkeypatch):
    calls = []
    original = funcspace.principal_diagram

    def counting(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(funcspace, "principal_diagram", counting)
    return calls


@pytest.mark.parametrize("argv, expected", [
    (["reconstruct", "double_cover_c3.json"], 0),
    (["associate", "bz2_double_cover_c3.json", "bz2_trivializer_functor.json"], 0),
    (["principal", "double_cover_c3.json"], 1),
], ids=["reconstruct", "associate", "principal"])
def test_only_the_principal_command_builds_a_diagram(principal_diagram_calls, tmp_path, argv, expected):
    # the coend reads the bundle itself; the diagram is only ever a document
    command, *docs = argv
    paths = [str(ROOT / "tests" / "golden" / doc) for doc in docs]
    assert cli.main([command, *paths, "-o", str(tmp_path / "out.json")]) == 0
    assert len(principal_diagram_calls) == expected


def test_principal_suite_builds_no_diagram(principal_diagram_calls):
    rep = oracle.run_suite("principal", oracle.InstanceSpec(seed=1), 10)
    assert rep.passes == rep.instances == 10
    assert principal_diagram_calls == []


def test_documents_are_written_only_by_the_canonical_writer():
    # a stray json.dump(s) would write bytes that no golden hash or manifest
    # pins, and a canon_dumps call in the package would hold the whole text
    # of a document that write_doc or canon_chunks streams
    calls = {
        "src": re.compile(r"\bjson\.dumps?\(|\bcanon_dumps\("),
        "scripts": re.compile(r"\bjson\.dumps?\("),
    }
    offenders = [
        f"{path.relative_to(ROOT)}:{n}"
        for folder, call in calls.items()
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "jsonio.py"
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if call.search(line)
    ]
    assert offenders == []


def test_files_are_written_only_by_the_temp_and_rename_helper():
    # every output is written atomically; a file written anywhere else would
    # leave a half-written output where a command fails midway
    writes = re.compile(r"\bopen\(|\.write_(text|bytes)\(")
    hits = [
        f"{path.relative_to(ROOT)}: {line.strip()}"
        for folder in ("src", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if writes.search(line)
    ]
    assert hits == ['src/stratabundle/jsonio.py: with open(tmp, "w", encoding="utf-8") as f:']  # write_atomic


def test_documents_are_read_only_by_jsonio():
    # read_doc and read_diagram turn every unreadable text into a document
    # error, and read_diagram parses a diagram's repeated containers once; a
    # json.load(s) elsewhere in the package would bypass both
    call = re.compile(r"\bjson\.loads?\(")
    offenders = [
        f"{path.relative_to(ROOT)}:{n}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        if path.name != "jsonio.py"
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if call.search(line)
    ]
    assert offenders == []


def test_certificate_copies_no_star_and_composes_once_per_chart_triple(monkeypatch, torus_cover):
    # a per-star subcomplex copy or an unmemoised compatibility test would
    # only show as a slower certify op in the benchmark
    x = torus_cover(15)
    calls = {"subcomplex": 0, "compose_tables": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            # image_inverse composes inside fincat, a few times per distinct
            # transition morphism; count the compositions asked for outside it
            if sys._getframe(1).f_globals["__name__"] != fincat.__name__:
                calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(cellbase, "subcomplex")
    counting(fincat, "compose_tables")
    cert = triviality.local_triviality_certificate(x)
    triples = {
        (t.charts[f], x.transition[(f, c)], t.charts[c])
        for t in cert.stars.values()
        for c in t.region
        for f in x.base.cells[c].faces
    }
    assert len(cert.stars) == len(x.base.cells)
    assert calls["subcomplex"] == 0
    assert 0 < calls["compose_tables"] <= len(triples)


def test_certificate_finds_each_inverse_once_and_sorts_no_incidences(monkeypatch, torus_cover):
    # the groupoid check works out every morphism's image inverse once, in the
    # uncached kernel, and the stars reuse them; a per-star invertibility scan
    # or incidence sort would only show as a slower certify op
    x = torus_cover(15)
    x.base.adjacency  # the complex's own index, sorted once per complex
    asked, sorted_pairs = [], []
    find_image_inverse = fincat._find_image_inverse

    def counting_inverse(table, mid):
        asked.append(mid)
        return find_image_inverse(table, mid)

    def counting_sorted(items, **kwargs):
        out = sorted(items, **kwargs)
        if out and isinstance(out[0], tuple):
            sorted_pairs.append(out)
        return out

    monkeypatch.setattr(fincat, "_find_image_inverse", counting_inverse)
    for module in (triviality, cellbase):
        monkeypatch.setattr(module, "sorted", counting_sorted, raising=False)
    cert = triviality.local_triviality_certificate(x)
    assert len(cert.stars) == len(x.base.cells)
    assert 0 < len(asked) == len(set(asked))
    assert set(asked) == set(x.cat.morphisms)
    assert sorted_pairs == []


def test_triviality_builds_stars_only_through_star_cells():
    # the traced cellbase.star_cells span must see every closed star the
    # sweep builds, so triviality reads no cofaces (``above``) to make one
    tree = ast.parse((ROOT / "src" / "stratabundle" / "triviality.py").read_text(encoding="utf-8"))
    offenders = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "above"
    ]
    assert offenders == []
    sweep = next(
        f for f in tree.body
        if isinstance(f, ast.FunctionDef) and f.name == "local_triviality_certificate"
    )
    calls = {ast.unparse(node.func) for node in ast.walk(sweep) if isinstance(node, ast.Call)}
    assert "cellbase.star_cells" in calls


def test_cover_builds_no_union_find_beyond_the_basepoint_fibre(monkeypatch, torus_cover):
    # over a connected base the components are monodromy orbits; a union-find
    # over the total space or the base would only show as a slower cover op
    x = torus_cover(15)
    sizes = []

    class Counting(cellbase.UnionFind):
        def __init__(self, nodes):
            super().__init__(nodes)
            sizes.append(len(self.parent))

    monkeypatch.setattr(cellbase, "UnionFind", Counting)
    cert = triviality.covering_space(x)
    assert cert.components == 1 and len(cert.monodromy) > 0
    assert 0 < max(sizes) <= len(x.fibre_set(cert.basepoint))


SHARED_MARKERS = {"_Rows", "_RowsByKey"}


def test_only_jsonio_builds_shared_containers():
    # canon_dumps caches the text of a shared container and writes a row
    # table by the template of its shape; that is only sound for the
    # documents jsonio builds and never mutates afterwards
    offenders = []
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name == "jsonio.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name in SHARED_MARKERS:
                    offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert offenders == []


def test_only_cli_main_touches_the_collector():
    # commands run with the cyclic collector paused in one place; a pause,
    # collection or threshold elsewhere would hide a reference cycle that the
    # engine must not make, or undo the pause
    offenders = []
    for path in sorted((ROOT / "src" / "stratabundle").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "cli.py":
            main = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "main")
            # and the plain module-level ``import gc`` that main uses
            allowed = set(ast.walk(main)) | {
                node
                for node in tree.body
                if isinstance(node, ast.Import)
                and [(a.name, a.asname) for a in node.names] == [("gc", None)]
            }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                touches = any(a.name == "gc" for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                touches = node.module == "gc"
            else:
                touches = isinstance(node, ast.Name) and node.id == "gc"
            if touches and node not in allowed:
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert offenders == []
