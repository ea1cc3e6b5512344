import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratabundle import cellbase, cli, corpus, fincat, funcspace, jsonio, oracle, strabundle, triviality
from stratabundle.validation import StructureError
from test_fincat import broken_associativity_category


class TestFunctionBundle:
    def test_perm_fibres_have_group_size(self):
        x = corpus.product_bundle_c3()
        fb = funcspace.function_bundle(x, "set2")
        assert all(len(fb.fibre_set(c)) == 2 for c in x.base.cells)
        assert strabundle.validate_bundle(fb).ok

    def test_orbit_toy_free_and_fixed_points(self):
        x = corpus.orbit_free_bundle_c3()
        free = funcspace.function_bundle(x, "Ge")
        assert all(len(free.fibre_set(c)) == 2 for c in x.base.cells)
        fixed = funcspace.function_bundle(x, "GG")
        # a free action has no fixed points
        assert all(len(fixed.fibre_set(c)) == 0 for c in x.base.cells)

    def test_fixed_points_of_fixed_fibre(self):
        cat, ff = corpus.orbit_z2_category()
        base, strat = corpus.c3()
        x = strabundle.product_bundle(base, strat, cat, ff, "GG")
        fixed = funcspace.function_bundle(x, "GG")
        assert all(len(fixed.fibre_set(c)) == 1 for c in base.cells)

    def test_commutes_with_restrict(self):
        x = corpus.double_cover_c3()
        star = cellbase.star_cells(x.base, "v0")
        a = funcspace.function_bundle(strabundle.restrict(x, star), "set2")
        b = strabundle.restrict(funcspace.function_bundle(x, "set2"), star)
        assert strabundle.bundle_eq(a, b) and a.transition == b.transition


class TestPrincipalDiagram:
    def test_single_object_group_recovers_right_action(self):
        x = corpus.bz2_double_cover_c3()
        d = funcspace.principal_diagram(x)
        assert set(d.components) == {"pt"}
        # right action of the involution on itself by pre-composition
        assert d.actions["g"]["v0"] == {"e": "g", "g": "e"}
        assert funcspace.validate_diagram(d).ok

    def test_one_point_bundle_components_count_hom_sets(self):
        cat, ff = corpus.orbit_z2_category()
        base, strat = corpus.c3()
        x = strabundle.product_bundle(base, strat, cat, ff, "Ge")
        d = funcspace.principal_diagram(x)
        assert all(
            len(d.components[v].fibre_set(c)) == len(cat.hom(v, "Ge"))
            for v in cat.objects
            for c in base.cells
        )

    def test_identity_action_is_identity(self):
        x = corpus.double_cover_c3()
        d = funcspace.principal_diagram(x)
        for v in x.cat.objects:
            ident = x.cat.identities[v]
            for c in x.base.cells:
                elems = d.components[v].fibre_set(c)
                assert d.actions[ident][c] == fincat.identity_table(elems)

    def test_actions_are_natural_cellwise_maps(self):
        x = corpus.bz2_double_cover_c3()
        d = funcspace.principal_diagram(x)
        for g in x.cat.morphisms.values():
            source, target = d.components[g.tgt], d.components[g.src]
            act = d.actions[g.id]
            for f, c in x.base.incidences:
                assert fincat.compose_tables(act[f], source.transition_table(f, c)) == (
                    fincat.compose_tables(target.transition_table(f, c), act[c])
                )
            # in a group every action permutes the admissible maps
            assert all(fincat.is_bijective_table(act[c], target.fibre_set(c)) for c in act)


def brute_force_coend_classes(cat, ff2, w):
    """Independent oracle: BFS closure of the generating relation, as sorted classes."""
    pairs = [
        (v, alpha, y)
        for v in cat.objects
        for alpha in cat.hom(v, w)
        for y in ff2.on_objects[v]
    ]
    neighbours = {p: set() for p in pairs}
    for g in cat.morphisms.values():
        for alpha in cat.hom(g.tgt, w):
            for y in ff2.on_objects[g.src]:
                a = (g.src, cat.compose(alpha, g.id), y)
                b = (g.tgt, alpha, ff2.on_morphisms[g.id][y])
                neighbours[a].add(b)
                neighbours[b].add(a)
    seen = set()
    classes = []
    for p in pairs:
        if p in seen:
            continue
        members = []
        frontier = [p]
        while frontier:
            q = frontier.pop()
            if q in seen:
                continue
            seen.add(q)
            members.append(q)
            frontier.extend(neighbours[q])
        classes.append(tuple(sorted(members)))
    return tuple(sorted(classes))


class TestCoend:
    def test_point_diagram_of_involution_has_two_classes(self):
        cat, ff = corpus.bz2_category()
        base = cellbase.complex_from_cells([("pt0", 0, [])])
        x = strabundle.StratBundle(
            base, cellbase.single_stratum(base), cat, ff, {"pt0": "pt"}, {}
        )
        res = funcspace.coend(x)
        assert res.report.ok
        assert len(res.classes["pt0"]) == 2
        frozen = {
            (("pt", "e", "pt.0"), ("pt", "g", "pt.1")),
            (("pt", "e", "pt.1"), ("pt", "g", "pt.0")),
        }
        assert set(res.classes["pt0"]) == frozen

    def test_one_point_fibre_functor_gives_one_class_per_cell(self):
        x = corpus.double_cover_c3()
        one = fincat.fibre_functor(
            {v: ["*"] for v in x.cat.objects}, {m: {"*": "*"} for m in x.cat.morphisms}
        )
        res = funcspace.coend(dataclasses.replace(x, ff=one))
        assert all(len(res.classes[c]) == 1 for c in x.base.cells)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_class_counts_match_brute_force_closure(self, seed):
        spec = oracle.InstanceSpec(seed=seed)
        rng = oracle.SplitMix64(seed)
        cat, ff = oracle.gen_category(spec, rng)
        gen = oracle.gen_bundle(spec, cat, ff, rng)
        res = funcspace.coend(gen.bundle)
        for w in sorted(set(gen.bundle.fibre_obj.values())):
            cell = min(c for c, o in gen.bundle.fibre_obj.items() if o == w)
            assert res.classes[cell] == brute_force_coend_classes(cat, ff, w)


    @pytest.mark.parametrize("seed", range(1, 21))
    def test_each_class_is_named_by_its_least_member(self, seed):
        _, _, _, gen = oracle._gen_instance(oracle.InstanceSpec(seed=seed))
        res = funcspace.coend(gen.bundle)
        for c, classes in res.classes.items():
            assert list(classes) == sorted(classes)
            assert set(res.class_of[c]) == {t for members in classes for t in members}
            for members in classes:
                assert list(members) == sorted(members)
                assert all(res.class_of[c][t] == members[0] for t in members)


def assert_coend_matches_union(y):
    """``coend`` names and orders exactly the union-find classes at every cell."""
    res = funcspace.coend(y)
    for c, w in y.fibre_obj.items():
        ordered, reps = funcspace._coend_classes_by_union(y.cat, y.ff, w)
        assert res.classes[c] == tuple(ordered)
        assert res.class_of[c] == reps
    return res


def assert_evaluation_matches_union(cat, ff2):
    for w in cat.objects:
        assert funcspace._coend_classes(cat, ff2, w) == funcspace._coend_classes_by_union(cat, ff2, w), w


def example_structures():
    """(category, fibre functor, bundle or None) of every example category and bundle."""
    for name in corpus.example_names():
        doc = corpus.example_doc(name)
        kind = jsonio.detect_kind(doc)
        if kind == "category":
            yield *jsonio.category_from_doc(doc), None
        elif kind == "bundle":
            x = funcspace._faithful_input(jsonio.bundle_from_doc(doc))
            yield x.cat, x.ff, x


def point_bundle(cat, ff, w):
    base = cellbase.complex_from_cells([("pt0", 0, [])])
    return strabundle.StratBundle(base, cellbase.single_stratum(base), cat, ff, {"pt0": w}, {})


def perm3_with_table(mid, edit):
    """perm_category(3) and its fibre functor with one table edited, at set3."""
    cat, ff = corpus.perm_category(3)
    tables = {m: dict(t) for m, t in ff.on_morphisms.items()}
    edit(tables[mid])
    return cat, fincat.FibreFunctor(dict(ff.on_objects), tables), "set3"


def left_identity_counterexample():
    """One object X; e is the identity, but e.x = e; both act trivially on {0, 1}."""
    cat = fincat.category(
        ["X"],
        [("e", "X", "X"), ("x", "X", "X")],
        {("e", "e"): "e", ("e", "x"): "e", ("x", "e"): "x", ("x", "x"): "x"},
        {"X": "e"},
    )
    ff2 = fincat.fibre_functor({"X": ["0", "1"]}, {"e": {"0": "0", "1": "1"}, "x": {"0": "0", "1": "1"}})
    return cat, ff2, "X"


def idempotent_identity():
    """One object X and its identity e acting as the constant map 0: only (i) fails."""
    cat = fincat.category(["X"], [("e", "X", "X")], {("e", "e"): "e"}, {"X": "e"})
    ff2 = fincat.fibre_functor({"X": ["0", "1"]}, {"e": {"0": "0", "1": "0"}})
    return cat, ff2, "X"


def identity_elsewhere():
    """identities[W] = k1: U1 -> W, a left identity on hom(-, W), which has no endomorphism."""
    cat = fincat.category(
        ["U1", "U2", "W"],
        [("i1", "U1", "U1"), ("i2", "U2", "U2"), ("k1", "U1", "W"), ("k2", "U2", "W")],
        {
            ("i1", "i1"): "i1", ("i2", "i2"): "i2", ("k1", "i1"): "k1", ("k2", "i2"): "k2",
            ("k1", "k1"): "k1", ("k1", "k2"): "k2",
        },
        {"U1": "i1", "U2": "i2", "W": "k1"},
    )
    point = {"0": "0"}
    ff2 = fincat.fibre_functor(
        {"U1": ["0"], "U2": ["0"], "W": ["0"]}, {m: point for m in ("i1", "i2", "k1", "k2")}
    )
    return cat, ff2, "W"


def ill_typed_composite():
    """k.iU is recorded as iW, whose source is not U: (U, iW, 0) is no triple."""
    cat = fincat.category(
        ["U", "W"],
        [("iU", "U", "U"), ("iW", "W", "W"), ("k", "U", "W")],
        {("iU", "iU"): "iU", ("iW", "iW"): "iW", ("iW", "k"): "k", ("k", "iU"): "iW"},
        {"U": "iU", "W": "iW"},
    )
    ff2 = fincat.fibre_functor({"U": ["0"], "W": ["0"]}, {m: {"0": "0"} for m in ("iU", "iW", "k")})
    return cat, ff2, "W"


def swap_first_two_values(table):
    a, b = sorted(table)[:2]
    table[a], table[b] = table[b], table[a]


# each breaks one condition the evaluation kernel relies on, with the gate
# stage whose violation code refuses it first
MUTANTS = {
    "identity-moves": (lambda: perm3_with_table(
        "p3:012", lambda t: t.update({"set3.0": "set3.1", "set3.1": "set3.0"})
    ), "action-identity"),
    "identity-idempotent": (idempotent_identity, "action-identity"),
    "identity-elsewhere": (identity_elsewhere, "identity-endpoints"),
    "swapped-entry": (lambda: perm3_with_table("p3:120", swap_first_two_values), "action-composition"),
    "left-identity": (left_identity_counterexample, "identity-law"),
    "truncated": (lambda: perm3_with_table("p3:120", lambda t: t.pop("set3.2")), "action-domain"),
    "ill-typed": (ill_typed_composite, "compose-typing"),
}


@pytest.fixture
def union_calls(monkeypatch):
    calls = []
    original = funcspace._coend_classes_by_union

    def counting(cat, ff2, w):
        calls.append(w)
        return original(cat, ff2, w)

    monkeypatch.setattr(funcspace, "_coend_classes_by_union", counting)
    return calls


class TestCoendByEvaluation:
    def test_equals_union_on_perm4_and_example_structures(self):
        assert_evaluation_matches_union(*corpus.perm_category(4))
        for cat, ff, x in example_structures():
            assert_evaluation_matches_union(cat, ff)
            if x is not None:
                assert_coend_matches_union(x)

    def test_equals_union_on_200_oracle_categories(self):
        for seed in range(1, 201):
            _, cat, ff, gen = oracle._gen_instance(oracle.InstanceSpec(seed=seed))
            assert_evaluation_matches_union(cat, ff)
            assert_coend_matches_union(gen.bundle)

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_gate_refuses_each_mutant(self, name):
        # coend has no guard of its own: each of these must stop at the gate
        make, code = MUTANTS[name]
        with pytest.raises(StructureError, match=f"^(category|fibre-functor) invalid: {code}: "):
            cli._valid_bundle(point_bundle(*make()))

    def test_left_identity_counterexample_passes_the_functor_check(self):
        cat, ff2, w = left_identity_counterexample()
        assert fincat.validate_fibre_functor(cat, ff2).ok
        ordered, _ = funcspace._coend_classes_by_union(cat, ff2, w)
        assert len(ordered) == 4
        evaluations = {ff2.on_morphisms[alpha][y] for alpha in cat.hom(w, w) for y in ff2.on_objects[w]}
        assert len(evaluations) == 2

    def test_union_path_never_runs_on_the_wide_category_ops(self, union_calls, tmp_path):
        cat, ff = corpus.perm_category(5)
        base, strat = corpus.c3()
        twisted = {base.incidences[0]: "p5:12340"}
        transition = {inc: twisted.get(inc, cat.identities["set5"]) for inc in base.incidences}
        x = strabundle.StratBundle(base, strat, cat, ff, {c: "set5" for c in base.cells}, transition)
        bundle, category, functor = (str(tmp_path / f"{n}.json") for n in ("bundle", "category", "functor"))
        jsonio.write_doc(bundle, jsonio.bundle_to_doc(x))
        jsonio.write_doc(category, jsonio.category_to_doc(cat, ff))
        jsonio.write_doc(functor, jsonio.functor_to_doc(fincat.identity_cat_functor(cat), ff))
        diagram, out = str(tmp_path / "principal.json"), str(tmp_path / "out.json")
        for argv in (
            ["validate", bundle, "-o", out],
            ["principal", bundle, "-o", diagram],
            ["coend", diagram, "--category", category, "-o", out],
            ["reconstruct", bundle, "-o", out],
            ["associate", bundle, functor, "-o", out],
            ["fnspace", bundle, "-V", "set5", "-o", out],
        ):
            assert cli.main(argv) == 0, argv[0]
        assert union_calls == []

    def test_union_path_never_runs_on_the_golden_chain(self, union_calls, tmp_path):
        bundle, category = tmp_path / "bundle.json", tmp_path / "category.json"
        jsonio.write_doc(bundle, corpus.example_doc("double_cover_c3"))
        jsonio.write_doc(category, corpus.example_doc("perm2_category"))
        diagram, coend = str(tmp_path / "diagram.json"), str(tmp_path / "coend.json")
        assert cli.main(["fnspace", str(bundle), "-V", "set2", "-o", str(tmp_path / "fn.json")]) == 0
        assert cli.main(["principal", str(bundle), "-o", diagram]) == 0
        assert cli.main(["coend", diagram, "--category", str(category), "-o", coend]) == 0
        assert jsonio.read_doc(coend) == jsonio.read_doc(bundle)
        assert union_calls == []


class TestReconstruct:
    def test_product_bundle(self):
        res = funcspace.reconstruct_check(corpus.product_bundle_c3())
        assert res.ok
        for c, table in res.iso.items():
            assert sorted(table.values()) == sorted(res.bundle.fibre_set(c))

    def test_double_cover(self):
        assert funcspace.reconstruct_check(corpus.double_cover_c3()).ok

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_random_bundles(self, seed):
        spec = oracle.InstanceSpec(seed=seed)
        rng = oracle.SplitMix64(seed)
        cat, ff = oracle.gen_category(spec, rng)
        gen = oracle.gen_bundle(spec, cat, ff, rng)
        assert funcspace.reconstruct_check(gen.bundle).ok


class TestAssociated:
    def test_identity_functor_reproduces_the_bundle(self):
        x = corpus.double_cover_c3()
        y = funcspace.associated_bundle(x, fincat.identity_cat_functor(x.cat), x.ff)
        assert strabundle.bundle_eq(y, x) and y.transition == x.transition

    def test_collapse_to_one_point_category(self):
        x = corpus.bz2_double_cover_c3()
        one_cat = fincat.category(["*"], [("one", "*", "*")], {("one", "one"): "one"}, {"*": "one"})
        one_ff = fincat.fibre_functor({"*": ["*.0"]}, {"one": {"*.0": "*.0"}})
        phi = fincat.CatFunctor(x.cat, one_cat, {"pt": "*"}, {"e": "one", "g": "one"})
        y = funcspace.associated_bundle(x, phi, one_ff)
        assert all(len(y.fibre_set(c)) == 1 for c in x.base.cells)

    def test_trivializing_homomorphism_kills_monodromy(self):
        x = corpus.bz2_double_cover_c3()
        assert [m.cycle_type for m in triviality.covering_space(x).monodromy] == [(2,)]
        phi, gg = corpus.bz2_trivializer()
        cov = triviality.covering_space(funcspace.associated_bundle(x, phi, gg))
        assert [m.cycle_type for m in cov.monodromy] == [(1, 1)]
        assert cov.components == 2

    def test_functor_composition_through_a_real_homomorphism(self):
        # the symmetric group on two letters maps onto the abstract involution;
        # transporting along that and then crushing it agrees with the crush
        # of the composite
        x = corpus.double_cover_c3()
        bz2, bz2_ff = corpus.bz2_category()
        phi = fincat.CatFunctor(
            x.cat,
            bz2,
            {"set1": "pt", "set2": "pt"},
            {"p1:0": "e", "p2:01": "e", "p2:10": "g"},
        )
        assert fincat.validate_cat_functor(phi).ok
        psi, gg = corpus.bz2_trivializer()
        composite = fincat.CatFunctor(
            x.cat,
            bz2,
            {v: psi.on_objects[phi.on_objects[v]] for v in x.cat.objects},
            {m: psi.on_morphisms[phi.on_morphisms[m]] for m in x.cat.morphisms},
        )
        via_two = funcspace.associated_bundle(funcspace.associated_bundle(x, phi, bz2_ff), psi, gg)
        via_one = funcspace.associated_bundle(x, composite, gg)
        assert strabundle.bundle_eq(via_one, via_two)
        assert triviality.covering_space(via_one).components == 2

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_functor_composition_on_instances(self, seed):
        # transporting twice along crush-to-a-point equals one transport
        spec = oracle.InstanceSpec(seed=seed)
        rng = oracle.SplitMix64(seed)
        cat, ff = oracle.gen_category(spec, rng)
        gen = oracle.gen_bundle(spec, cat, ff, rng)
        x = gen.bundle
        one_cat = fincat.category(["*"], [("one", "*", "*")], {("one", "one"): "one"}, {"*": "one"})
        one_ff = fincat.fibre_functor({"*": ["*.0"]}, {"one": {"*.0": "*.0"}})
        phi = fincat.CatFunctor(
            x.cat, one_cat,
            {v: "*" for v in x.cat.objects},
            {m: "one" for m in x.cat.morphisms},
        )
        once = funcspace.associated_bundle(x, phi, one_ff)
        ident = fincat.identity_cat_functor(one_cat)
        twice = funcspace.associated_bundle(once, ident, one_ff)
        assert strabundle.bundle_eq(once, twice)


def right_identity_broken_category():
    # i is a left identity, but a.i = b; b.b = a keeps the hom functor faithful
    return fincat.category(
        ["X"],
        [("i", "X", "X"), ("a", "X", "X"), ("b", "X", "X")],
        {
            ("i", "i"): "i", ("i", "a"): "a", ("i", "b"): "b",
            ("a", "i"): "b", ("a", "a"): "a", ("a", "b"): "b",
            ("b", "i"): "b", ("b", "a"): "a", ("b", "b"): "a",
        },
        {"X": "i"},
    )


def one_cell_principal_diagram(cat):
    """Principal diagram of the one-cell bundle whose fibre functor is hom(X, -)."""
    base = cellbase.complex_from_cells([("pt0", 0, [])])
    x = strabundle.StratBundle(
        base, cellbase.single_stratum(base), cat, fincat.hom_fibre_functor(cat, "X"), {"pt0": "X"}, {}
    )
    return funcspace.principal_diagram(x)


def contravariance_failures(d):
    """The identity and composition laws of the actions, over one cell per fibre object."""
    failures = []
    for w in sorted(set(d.fibre_obj.values())):
        c = min(c for c, o in d.fibre_obj.items() if o == w)
        for v in d.cat.objects:
            ident = d.cat.identities[v]
            if d.actions[ident][c] != fincat.identity_table(d.components[v].fibre_set(c)):
                failures.append((ident, w))
        for (g2, g1), comp in d.cat.compose_table.items():
            if d.actions[comp][c] != fincat.compose_tables(d.actions[g1][c], d.actions[g2][c]):
                failures.append((g2, g1, w))
    return failures


class TestContravarianceGate:
    # contravariance restates the category's laws, so the diagram names the
    # category's own violations where the actions fail
    def test_broken_associativity_names_the_pairs(self):
        d = one_cell_principal_diagram(broken_associativity_category())
        assert contravariance_failures(d) == [("a", "a", "X"), ("b", "a", "X")]
        assert funcspace.validate_diagram(d).to_doc() == {
            "subject": "diagram",
            "ok": False,
            "violations": [
                {"code": "associativity", "detail": "(a, a, a)"},
                {"code": "associativity", "detail": "(a, b, a)"},
            ],
        }

    def test_broken_right_identity_names_the_identity(self):
        d = one_cell_principal_diagram(right_identity_broken_category())
        assert contravariance_failures(d)[0] == ("i", "X")
        assert funcspace.validate_diagram(d).to_doc() == {
            "subject": "diagram",
            "ok": False,
            "violations": [
                {"code": "identity-law", "detail": "right identity fails on a"},
                {"code": "associativity", "detail": "(b, a, i)"},
                {"code": "associativity", "detail": "(b, b, i)"},
                {"code": "associativity", "detail": "(a, i, b)"},
                {"code": "associativity", "detail": "(b, a, b)"},
                {"code": "associativity", "detail": "(b, b, b)"},
            ],
        }

    def test_valid_diagram_skips_the_loops(self, exhaustive_calls):
        d = funcspace.principal_diagram(corpus.double_cover_c3())
        assert funcspace.validate_diagram(d).ok
        assert exhaustive_calls == {"_check_associativity": 0, "_failing_pairs": 0}

    def test_coend_command_skips_the_loops(self, exhaustive_calls, tmp_path):
        x = corpus.double_cover_c3()
        diagram, category = tmp_path / "diagram.json", tmp_path / "category.json"
        jsonio.write_doc(diagram, jsonio.diagram_to_doc(funcspace.principal_diagram(x)))
        jsonio.write_doc(category, jsonio.category_to_doc(x.cat, x.ff))
        out = tmp_path / "coend.json"
        argv = ["coend", str(diagram), "--category", str(category), "-o", str(out)]
        assert cli.main(argv) == 0
        assert jsonio.read_doc(out) == jsonio.bundle_to_doc(x)
        assert exhaustive_calls == {"_check_associativity": 0, "_failing_pairs": 0}

    @pytest.mark.parametrize("seed", range(1, 41))
    def test_loops_find_nothing_on_generated_diagrams(self, seed):
        for groupoid_only in (False, True):
            spec = oracle.InstanceSpec(seed=seed, groupoid_only=groupoid_only)
            _, _, _, gen = oracle._gen_instance(spec)
            d = funcspace.principal_diagram(gen.bundle)
            assert funcspace.validate_diagram(d).ok
            assert contravariance_failures(d) == []
