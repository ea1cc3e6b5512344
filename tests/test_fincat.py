import copy
import dataclasses
import hashlib
import itertools
import random
from pathlib import Path

import pytest
from conftest import is_groupoid
from hypothesis import given, settings
from hypothesis import strategies as st

from stratabundle import corpus, fincat, jsonio, oracle
from stratabundle.validation import StructureError, ValidationReport, Violation

GOLDEN = Path(__file__).resolve().parent / "golden"


def z2_category():
    return fincat.category(
        ["X"],
        [("e", "X", "X"), ("g", "X", "X")],
        {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"},
        {"X": "e"},
    )


def broken_associativity_category():
    # a*a = b but a*b = b and b*a = a, so (a,a,a) associates two ways
    return fincat.category(
        ["X"],
        [("i", "X", "X"), ("a", "X", "X"), ("b", "X", "X")],
        {
            ("i", "i"): "i",
            ("i", "a"): "a",
            ("a", "i"): "a",
            ("i", "b"): "b",
            ("b", "i"): "b",
            ("a", "a"): "b",
            ("a", "b"): "b",
            ("b", "a"): "a",
            ("b", "b"): "b",
        },
        {"X": "i"},
    )


def test_z2_is_valid_category():
    rep = fincat.validate_category(z2_category())
    assert rep.ok


def test_broken_associativity_names_the_triple():
    cat = broken_associativity_category()
    rep = fincat.validate_category(cat)
    assert not rep.ok
    assoc = [v for v in rep.violations if v.code == "associativity"]
    assert assoc and "(a, a, a)" in assoc[0].detail


def test_perm_category_hom_count():
    cat, _ = corpus.perm_category(2)
    assert fincat.validate_category(cat).ok
    assert len(cat.hom("set2", "set2")) == 2
    assert cat.hom("set1", "set2") == ()


def trivial_ff_on_z2():
    return fincat.fibre_functor(
        {"X": ["X.0"]},
        {"e": {"X.0": "X.0"}, "g": {"X.0": "X.0"}},
    )


def swap_ff_on_z2():
    return fincat.fibre_functor(
        {"X": ["X.0", "X.1"]},
        {"e": {"X.0": "X.0", "X.1": "X.1"}, "g": {"X.0": "X.1", "X.1": "X.0"}},
    )


class TestFaithfulImage:
    def test_total_collapse(self):
        cat = z2_category()
        fi = fincat.faithful_image(cat, trivial_ff_on_z2())
        assert len(fi.category.morphisms) == 1
        assert fi.quotient == {"e": "e", "g": "e"}
        assert fincat.validate_category(fi.category).ok

    def test_faithful_input_is_untouched(self):
        cat = z2_category()
        fi = fincat.faithful_image(cat, swap_ff_on_z2())
        assert fi.quotient == {"e": "e", "g": "g"}
        assert set(fi.category.morphisms) == {"e", "g"}

    def test_parallel_morphisms_merge_by_table_comparison(self):
        # two parallel constant morphisms with one function table; composition
        # is left-absorbing, which keeps the table associative
        cat = fincat.category(
            ["X"],
            [("i", "X", "X"), ("a", "X", "X"), ("b", "X", "X")],
            {
                ("i", "i"): "i",
                ("i", "a"): "a",
                ("a", "i"): "a",
                ("i", "b"): "b",
                ("b", "i"): "b",
                ("a", "a"): "a",
                ("a", "b"): "a",
                ("b", "a"): "b",
                ("b", "b"): "b",
            },
            {"X": "i"},
        )
        ff = fincat.fibre_functor(
            {"X": ["X.0", "X.1"]},
            {
                "i": {"X.0": "X.0", "X.1": "X.1"},
                "a": {"X.0": "X.0", "X.1": "X.0"},
                "b": {"X.0": "X.0", "X.1": "X.0"},
            },
        )
        assert fincat.validate_category(cat).ok
        assert fincat.validate_fibre_functor(cat, ff).ok
        pairs = [
            (m1, m2)
            for m1 in cat.morphisms
            for m2 in cat.morphisms
            if m1 < m2 and ff.on_morphisms[m1] == ff.on_morphisms[m2]
        ]
        assert pairs == [("a", "b")]
        fi = fincat.faithful_image(cat, ff)
        assert fi.quotient["b"] == "a"
        assert len(fi.category.morphisms) == 2

    def test_idempotent(self):
        cat = z2_category()
        fi = fincat.faithful_image(cat, trivial_ff_on_z2())
        again = fincat.faithful_image(fi.category, fi.ff)
        assert again.category == fi.category
        assert all(k == v for k, v in again.quotient.items())


class TestGroupoid:
    def test_group_is_groupoid(self):
        ok, witness = is_groupoid(z2_category())
        assert ok and witness is None

    def test_orbit_category_is_not(self):
        cat, _ = corpus.orbit_z2_category()
        ok, witness = is_groupoid(cat)
        assert not ok
        # independent oracle: exhaustive two-sided inverse search
        found = set()
        for m in cat.morphisms.values():
            has = any(
                cat.compose_table.get((u, m.id)) == cat.identities[m.src]
                and cat.compose_table.get((m.id, u)) == cat.identities[m.tgt]
                for u in cat.hom(m.tgt, m.src)
            )
            if not has:
                found.add(m.id)
        assert witness in found

    def test_collapse_witness(self):
        cat, _ = corpus.finset_category((1, 2))
        ok, witness = is_groupoid(cat)
        assert not ok and witness is not None


class TestHomFibreFunctor:
    def test_sizes_in_perm_category(self):
        cat, _ = corpus.perm_category(2)
        ffv = fincat.hom_fibre_functor(cat, "set2")
        assert len(ffv.on_objects["set2"]) == 2
        assert ffv.on_objects["set1"] == ()

    def test_identity_acts_as_identity(self):
        cat, _ = corpus.perm_category(2)
        ffv = fincat.hom_fibre_functor(cat, "set2")
        ident = cat.identities["set2"]
        assert ffv.on_morphisms[ident] == fincat.identity_table(ffv.on_objects["set2"])

    def test_post_composition_table_for_involution(self):
        cat = z2_category()
        ffv = fincat.hom_fibre_functor(cat, "X")
        assert ffv.on_morphisms["g"] == {"e": "g", "g": "e"}

    def test_functor_laws_reverified(self):
        cat, _ = corpus.orbit_z2_category()
        for v in cat.objects:
            ffv = fincat.hom_fibre_functor(cat, v)
            assert fincat.validate_fibre_functor(cat, ffv).ok


def swap_category(obj, elems, ident, swap):
    """One object whose fibre has two elements, acted on by its identity and the swap."""
    a, b = elems
    return fincat.concrete_category(
        {obj: elems},
        [(ident, obj, obj), (swap, obj, obj)],
        {ident: {a: a, b: b}, swap: {a: b, b: a}},
    )


class TestProductCategory:
    def test_unit_counts(self):
        z2 = z2_category()
        triv = fincat.category(["*"], [("one", "*", "*")], {("one", "one"): "one"}, {"*": "one"})
        cat, ff = fincat.product_category(
            z2, swap_ff_on_z2(), triv,
            fincat.fibre_functor({"*": ["*.0"]}, {"one": {"*.0": "*.0"}}),
        )
        assert len(cat.objects) == 1
        assert len(cat.morphisms) == 2
        assert fincat.validate_category(cat).ok
        assert fincat.validate_fibre_functor(cat, ff).ok

    def test_hom_sizes_multiply(self):
        ca, fa = corpus.perm_category(2)
        cb, fb = corpus.bz2_category()
        cat, _ = fincat.product_category(ca, fa, cb, fb)
        for (a, b), pair_obj in [(("set2", "pt"), fincat.pair_id("set2", "pt"))]:
            assert len(cat.hom(pair_obj, pair_obj)) == len(ca.hom(a, a)) * len(cb.hom(b, b))

    def test_swap_times_identity_acts_on_first_coordinate(self):
        # oracle: enumerate the product function table directly
        z2 = z2_category()
        ff = swap_ff_on_z2()
        triv = fincat.category(["*"], [("one", "*", "*")], {("one", "one"): "one"}, {"*": "one"})
        tff = fincat.fibre_functor({"*": ["*.0"]}, {"one": {"*.0": "*.0"}})
        _, prod_ff = fincat.product_category(z2, ff, triv, tff)
        mid = fincat.pair_id("g", "one")
        expected = {
            fincat.pair_id(x, "*.0"): fincat.pair_id(ff.on_morphisms["g"][x], "*.0")
            for x in ff.on_objects["X"]
        }
        assert prod_ff.on_morphisms[mid] == expected

    @pytest.mark.parametrize("a, b, message", [
        (
            swap_category("A", ("x", "y"), "i", "i,s"),
            swap_category("B", ("z", "w"), "j", "s,j"),
            "morphism pairs ('i', 's,j') and ('i,s', 'j') both get the id (i,s,j)",
        ),
        (
            fincat.concrete_category({"a": ("p",), "a,b": ("q",)},
                                     [("ia", "a", "a"), ("iab", "a,b", "a,b")],
                                     {"ia": {"p": "p"}, "iab": {"q": "q"}}),
            fincat.concrete_category({"b,c": ("r",), "c": ("s",)},
                                     [("ibc", "b,c", "b,c"), ("ic", "c", "c")],
                                     {"ibc": {"r": "r"}, "ic": {"s": "s"}}),
            "object pairs ('a', 'b,c') and ('a,b', 'c') both get the id (a,b,c)",
        ),
        (
            swap_category("A", ("x", "x,y"), "i", "s"),
            swap_category("B", ("y,z", "z"), "j", "t"),
            "element pairs ('x', 'y,z') and ('x,y', 'z') both get the id (x,y,z)",
        ),
    ], ids=["morphisms", "objects", "elements"])
    def test_colliding_pair_ids_are_refused(self, a, b, message):
        for cat, ff in (a, b):
            assert fincat.validate_category(cat).ok
            assert fincat.validate_fibre_functor(cat, ff).ok
        with pytest.raises(StructureError) as err:
            fincat.product_category(*a, *b)
        assert str(err.value) == message


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_constructions_stay_valid(seed):
    spec = oracle.InstanceSpec(seed=seed)
    cat, ff = oracle.gen_category(spec)
    assert fincat.validate_category(cat).ok
    assert fincat.validate_fibre_functor(cat, ff).ok
    fi = fincat.faithful_image(cat, ff)
    assert fincat.validate_category(fi.category).ok
    assert fincat.validate_fibre_functor(fi.category, fi.ff).ok
    for v in cat.objects:
        assert fincat.validate_fibre_functor(cat, fincat.hom_fibre_functor(cat, v)).ok


def test_cat_functor_validation():
    phi, _ = corpus.bz2_trivializer()
    assert fincat.validate_cat_functor(phi).ok
    broken = fincat.CatFunctor(phi.source, phi.target, {"pt": "pt"}, {"e": "g", "g": "g"})
    assert not fincat.validate_cat_functor(broken).ok


def reference_validate_cat_functor(phi):
    """The all-pairs ``validate_cat_functor``, checking every composite of the source."""
    rep = ValidationReport("functor")
    src, tgt = phi.source, phi.target
    for v in src.objects:
        if phi.on_objects.get(v) not in tgt.objects:
            rep.add("functor-object", f"{v} has no image object")
    for m in src.morphisms.values():
        img = phi.on_morphisms.get(m.id)
        if img is None or img not in tgt.morphisms:
            rep.add("functor-morphism", f"{m.id} has no image morphism")
            continue
        im = tgt.morphisms[img]
        if (im.src, im.tgt) != (phi.on_objects.get(m.src), phi.on_objects.get(m.tgt)):
            rep.add("functor-typing", f"{m.id} image has wrong endpoints")
    for v in src.objects:
        i = src.identities[v]
        if phi.on_morphisms.get(i) != tgt.identities.get(phi.on_objects.get(v)):
            rep.add("functor-identity", f"identity of {v} not preserved")
    for (g, f), gf in src.compose_table.items():
        pg, pf, pgf = (phi.on_morphisms.get(x) for x in (g, f, gf))
        if pg is None or pf is None:
            continue
        if tgt.compose_table.get((pg, pf)) != pgf:
            rep.add("functor-composition", f"({g}, {f})")
    return rep


def conjugation_functor(cat, seed):
    """The automorphism p -> s p s^-1 of ``corpus.perm_category``, one random s per set."""
    rng = random.Random(seed)
    sigma, images = {}, {}
    for m in sorted(cat.morphisms):
        k, digits = m[1:].split(":")
        n = int(k)
        if n not in sigma:
            sigma[n] = rng.sample(range(n), n)
        s = sigma[n]
        inverse = {v: i for i, v in enumerate(s)}
        images[m] = f"p{k}:" + "".join(str(s[int(digits[inverse[i]])]) for i in range(n))
    return fincat.CatFunctor(cat, cat, {v: v for v in cat.objects}, images)


def lawful_functor(name):
    """``bz2-identity``, ``bz2-trivializer``, or ``perm<n>-identity``/``-conjugation``."""
    if name == "bz2-identity":
        return fincat.identity_cat_functor(corpus.bz2_category()[0])
    if name == "bz2-trivializer":
        return corpus.bz2_trivializer()[0]
    n, kind = int(name[4]), name[6:]
    cat, _ = corpus.perm_category(n)
    return fincat.identity_cat_functor(cat) if kind == "identity" else conjugation_functor(cat, n)


def _mutant(phi, rng):
    """``phi`` with one to three morphism images changed; some keep their hom-set."""
    images = dict(phi.on_morphisms)
    for m in rng.sample(sorted(images), min(len(images), rng.randint(1, 3))):
        old = phi.target.morphisms[images[m]]
        choice = rng.random()
        if choice < 0.6:
            images[m] = rng.choice(phi.target.hom(old.src, old.tgt))
        elif choice < 0.9:
            images[m] = rng.choice(sorted(phi.target.morphisms))
        else:
            images[m] = "nope"
    return fincat.CatFunctor(phi.source, phi.target, dict(phi.on_objects), images)


@pytest.mark.parametrize("name", [
    "bz2-identity", "bz2-trivializer",
    "perm3-identity", "perm3-conjugation", "perm4-identity", "perm4-conjugation",
])
def test_cat_functor_validation_matches_all_pairs(exhaustive_calls, name):
    # the composition law is checked on the source's generators; the report
    # must equal the all-pairs loop's, and a lawful functor must never pay
    # for the exhaustive pass
    phi = lawful_functor(name)
    assert fincat.validate_cat_functor(phi).ok
    assert exhaustive_calls["_failing_pairs"] == 0
    rng = random.Random(name)
    lawful = 0
    for _ in range(40):
        mutant = _mutant(phi, rng)
        before = exhaustive_calls["_failing_pairs"]
        expected = reference_validate_cat_functor(mutant).to_doc()
        assert fincat.validate_cat_functor(mutant).to_doc() == expected
        if expected["ok"]:
            lawful += 1
            assert exhaustive_calls["_failing_pairs"] == before
    assert lawful < 40


def test_image_inverse_and_iso():
    cat, ff = corpus.orbit_z2_category()
    assert fincat.image_inverse(cat, ff, "g") == "g"
    assert fincat.image_inverse(cat, ff, "q") is None
    assert fincat.is_iso_in_image(cat, ff, "e")
    assert not fincat.is_iso_in_image(cat, ff, "q")


class TestImageInverseTable:
    """One table of image inverses per (category, fibre functor) pair, kept on the category."""

    def test_two_functors_on_one_category_keep_their_own_answers(self):
        swap = fincat.fibre_functor(
            {"X": ["a", "b"]}, {"e": {"a": "a", "b": "b"}, "g": {"a": "b", "b": "a"}}
        )
        collapse = fincat.fibre_functor(
            {"X": ["a", "b"]}, {"e": {"a": "a", "b": "b"}, "g": {"a": "a", "b": "a"}}
        )
        for first, second in ((swap, collapse), (collapse, swap)):
            cat = z2_category()
            for ff in (first, second, first):
                assert fincat.image_inverse(cat, ff, "g") == ("g" if ff is swap else None)
        assert fincat.image_inverses(cat, swap) is not fincat.image_inverses(cat, collapse)

    def test_one_functor_on_two_categories_keeps_their_own_answers(self):
        # the table reads only endpoints, hom-sets and actions, so no composites are needed
        ff = fincat.fibre_functor(
            {"X": ["a", "b"]},
            {m: {"a": "a", "b": "b"} if m == "e" else {"a": "b", "b": "a"} for m in "efg"},
        )
        two = fincat.category(["X"], [(m, "X", "X") for m in "eg"], {}, {"X": "e"})
        three = fincat.category(["X"], [(m, "X", "X") for m in "efg"], {}, {"X": "e"})
        assert fincat.image_inverse(two, ff, "g") == "g"
        assert fincat.image_inverse(three, ff, "g") == "f"
        assert fincat.image_inverse(two, ff, "g") == "g"

    def test_equality_repr_and_replace_ignore_the_table(self):
        cat, ff = corpus.orbit_z2_category()
        fresh, _ = corpus.orbit_z2_category()
        before = repr(cat)
        assert fincat.image_inverse(cat, ff, "g") == "g"
        assert cat.inverse_tables and not fresh.inverse_tables
        assert cat == fresh and repr(cat) == before == repr(fresh)
        replaced = dataclasses.replace(cat)
        assert replaced == cat and replaced.inverse_tables == {}

    def test_a_deep_copy_keeps_no_answer_for_the_original_functor(self):
        cat, ff = corpus.orbit_z2_category()
        fincat.image_inverse(cat, ff, "g")
        copied = copy.deepcopy(cat)  # its table is keyed by the id of ``ff``
        assert fincat.image_inverses(copied, ff).ff is ff


def copy_category(cat, compose=None):
    return fincat.FiniteCategory(
        cat.objects,
        dict(cat.morphisms),
        dict(cat.compose_table if compose is None else compose),
        dict(cat.identities),
    )


def copy_functor(ff):
    return fincat.FibreFunctor(
        dict(ff.on_objects), {m: dict(t) for m, t in ff.on_morphisms.items()}
    )


def structure_mutants(cat, ff, rng):
    """The input itself and four broken variants, all chosen by ``rng``."""
    yield "unchanged", cat, ff
    keys = sorted(cat.compose_table)
    key = rng.choice(keys)
    gf = cat.compose_table[key]
    m = cat.morphisms[gf]
    # another morphism with the same endpoints if there is one, else any other
    others = [x for x in cat.hom(m.src, m.tgt) if x != gf] or sorted(set(cat.morphisms) - {gf})
    if others:
        changed = dict(cat.compose_table)
        changed[key] = rng.choice(others)
        yield "compose-changed", copy_category(cat, changed), ff
    deleted = dict(cat.compose_table)
    del deleted[rng.choice(keys)]
    yield "compose-deleted", copy_category(cat, deleted), ff
    mid = rng.choice(sorted(cat.morphisms))
    dom = ff.on_objects[cat.morphisms[mid].src]
    cod = ff.on_objects[cat.morphisms[mid].tgt]
    if dom and len(cod) > 1:
        changed_ff = copy_functor(ff)
        x = rng.choice(sorted(dom))
        old = changed_ff.on_morphisms[mid][x]
        changed_ff.on_morphisms[mid][x] = rng.choice([y for y in cod if y != old])
        yield "action-changed", cat, changed_ff
    one_point = fincat.fibre_functor(
        {v: ["*"] for v in cat.objects}, {m: {"*": "*"} for m in cat.morphisms}
    )
    yield "one-point", cat, one_point


def corpus_structures():
    for n in (1, 2, 3, 4):
        yield f"perm{n}", *corpus.perm_category(n)
    yield "finset12", *corpus.finset_category()
    yield "finset123", *corpus.finset_category((1, 2, 3))
    yield "bz2", *corpus.bz2_category()
    yield "orbit_z2", *corpus.orbit_z2_category()
    yield "z2-swap", z2_category(), swap_ff_on_z2()
    yield "z2-trivial", z2_category(), trivial_ff_on_z2()


def oracle_structures():
    for seed in range(60):
        for groupoid_only in (False, True):
            spec = oracle.InstanceSpec(seed=seed, groupoid_only=groupoid_only)
            yield f"oracle{seed}-{groupoid_only}", *oracle.gen_category(spec)


def exhaustive_reference(cat):
    """The category axioms with the cubic associativity loop, run unconditionally."""
    rep = fincat.check_category_references(cat)
    rep.merge(fincat.check_composition(cat))
    fincat._check_associativity(cat, rep)
    return rep.violations


def unital_magma(n, index):
    """One-object category on ``n`` elements with identity ``e``.

    The products of the other elements are the base-``n`` digits of
    ``index``, so ``index`` ranges over all n ** ((n - 1) ** 2) tables.
    """
    elems = ["e", "a", "b", "c"][:n]
    compose = {}
    for x in elems:
        compose[("e", x)] = compose[(x, "e")] = x
    for x in elems[1:]:
        for y in elems[1:]:
            index, digit = divmod(index, n)
            compose[(x, y)] = elems[digit]
    return fincat.category(["X"], [(m, "X", "X") for m in elems], compose, {"X": "e"})


def all_pairs_composition(cat):
    """The coverage and typing loop of ``check_composition`` over every pair of morphisms."""
    found = []
    mors = cat.morphisms
    for f in mors.values():
        for g in mors.values():
            if f.tgt != g.src:
                continue
            gf = cat.compose_table.get((g.id, f.id))
            if gf is None:
                found.append(Violation("compose-missing", f"({g.id}, {f.id})"))
            elif gf not in mors or mors[gf].src != f.src or mors[gf].tgt != g.tgt:
                found.append(Violation("compose-typing", f"({g.id}, {f.id}) -> {gf}"))
    return found


class TestCheckComposition:
    @pytest.mark.parametrize("seed", range(6))
    def test_coverage_and_typing_follow_the_all_pairs_order(self, seed):
        rng = random.Random(seed)
        cat, _ = corpus.perm_category(3)
        compose = dict(cat.compose_table)
        for key in rng.sample(sorted(compose), len(compose) // 3):
            if rng.random() < 0.5:
                del compose[key]
            else:
                compose[key] = rng.choice(sorted(cat.morphisms) + ["nowhere"])
        broken = copy_category(cat, compose)
        stray = rng.choice(sorted(broken.morphisms))
        broken.morphisms[stray] = fincat.Morphism(stray, "ghost", broken.morphisms[stray].tgt)
        got = [
            v for v in fincat.check_composition(broken).violations
            if v.code in ("compose-missing", "compose-typing")
        ]
        assert len(got) > 5
        assert got == all_pairs_composition(broken)


    def test_a_spurious_composite_is_named_beside_a_missing_one(self):
        # the spurious keys are looked for only when the table holds keys that
        # no composable pair met; one missing pair must not hide one extra key
        cat, _ = corpus.perm_category(3)
        compose = dict(cat.compose_table)
        compose[("p2:10", "p3:021")] = "p3:021"

        def codes():
            rep = fincat.check_composition(copy_category(cat, compose))
            return [v.code for v in rep.violations]

        assert codes() == ["compose-spurious"]
        del compose[("p3:102", "p3:102")]
        assert codes() == ["compose-missing", "compose-spurious"]


def all_triples_associativity(cat):
    """The associativity loop of ``_check_associativity`` over every triple of morphisms."""
    found = []
    mors, compose = cat.morphisms, cat.compose_table
    for f in mors.values():
        for g in mors.values():
            if g.src != f.tgt or (g.id, f.id) not in compose:
                continue
            for h in mors.values():
                if h.src != g.tgt or (h.id, g.id) not in compose:
                    continue
                left = compose.get((h.id, compose[(g.id, f.id)]))
                if left is None or left != compose.get((compose[(h.id, g.id)], f.id)):
                    found.append(Violation("associativity", f"({h.id}, {g.id}, {f.id})"))
    return found


class TestMorphismsBySource:
    @pytest.mark.parametrize("seed", range(6))
    def test_associativity_follows_the_all_triples_order(self, seed):
        rng = random.Random(seed)
        cat, _ = corpus.perm_category(3)
        compose = dict(cat.compose_table)
        for key in rng.sample(sorted(compose), len(compose) // 4):
            compose[key] = rng.choice(sorted(cat.morphisms) + ["nowhere"])
        broken = copy_category(cat, compose)
        rep = ValidationReport("category")
        fincat._check_associativity(broken, rep)
        assert len(rep.violations) > 5
        assert rep.violations == all_triples_associativity(broken)

    def test_the_index_is_built_once_on_first_use(self):
        cat, ff = corpus.perm_category(3)
        assert "out_of" not in vars(cat)
        for _ in fincat.functor_stages(cat, ff):
            pass
        index = vars(cat)["out_of"]
        assert fincat.validate_category(cat).ok and cat.out_of is index
        assert index == {
            v: [m for m, mor in cat.morphisms.items() if mor.src == v] for v in cat.objects
        }


class TestLightAssociativity:
    def test_equals_reference_on_corpus_oracle_and_mutants(self):
        rng = random.Random(20)
        seen = set()
        checked = 0
        for name, cat, ff in (*corpus_structures(), *oracle_structures()):
            for kind, mcat, _ in structure_mutants(cat, ff, rng):
                rep = fincat.validate_category(mcat)
                assert rep.subject == "category"
                assert rep.violations == exhaustive_reference(mcat), (name, kind)
                seen.add((kind, rep.ok))
                checked += 1
        assert checked > 500
        # the mutants do break things, and the unchanged inputs pass
        assert ("unchanged", True) in seen and ("unchanged", False) not in seen
        for kind in ("compose-changed", "compose-deleted"):
            assert (kind, False) in seen

    def test_equals_reference_on_every_unital_magma_of_order_3(self):
        outcomes = set()
        for index in range(3**4):
            cat = unital_magma(3, index)
            rep = fincat.validate_category(cat)
            assert rep.violations == exhaustive_reference(cat), index
            outcomes.add(rep.ok)
            # only the identities of objects are known to associate with
            # everything; taking ``a`` for one would hide three failures
            cat.identities["ghost"] = "a"
            assert (fincat._light_generators(cat) is not None) == rep.ok, index
            ghost = Violation("identity-spurious", "identity given for ghost, which is not an object")
            assert fincat.validate_category(cat).violations == [ghost, *rep.violations], index
        assert outcomes == {True, False}

    def test_equals_reference_on_sampled_unital_magmas_of_order_4(self):
        outcomes = set()
        for index in random.Random(4).sample(range(4**9), 4096):
            cat = unital_magma(4, index)
            rep = fincat.validate_category(cat)
            assert rep.violations == exhaustive_reference(cat), index
            outcomes.add(rep.ok)
        assert outcomes == {True, False}

    def test_broken_associativity_still_names_the_triple(self):
        cat = broken_associativity_category()
        rep = fincat.validate_category(cat)
        assert rep.violations == exhaustive_reference(cat)
        assoc = [v for v in rep.violations if v.code == "associativity"]
        assert assoc and "(a, a, a)" in assoc[0].detail


def test_escaping_action_value_is_reported_not_raised():
    cat, ff = corpus.perm_category(2)
    ff.on_morphisms["p2:10"]["set2.0"] = "nowhere"
    codes = {v.code for v in fincat.validate_fibre_functor(cat, ff).violations}
    assert {"action-codomain", "action-composition"} <= codes


class TestAssociativityRouting:
    @pytest.fixture
    def calls(self, monkeypatch):
        count = []
        original = fincat._check_associativity

        def counting(cat, rep):
            count.append(cat)
            original(cat, rep)

        monkeypatch.setattr(fincat, "_check_associativity", counting)
        return count

    def test_faithful_functor_skips_the_triple_loop(self, calls):
        cat, ff = corpus.perm_category(4)
        assert fincat.is_faithful(cat, ff)
        assert fincat.validate_category(cat).ok
        assert calls == []

    def test_unfaithful_functor_skips_it_too(self, calls):
        # Light's test needs no fibre functor, so an unfaithful one costs nothing
        cat, ff = z2_category(), trivial_ff_on_z2()
        assert not fincat.is_faithful(cat, ff)
        assert fincat.validate_category(cat).ok
        assert calls == []

    def test_no_valid_structure_runs_it(self, calls):
        for name, cat, _ in (*corpus_structures(), *oracle_structures()):
            assert fincat.validate_category(cat).ok, name
        assert calls == []

    def test_corrupted_compose_table_runs_it_once(self, calls):
        cat, ff = corpus.perm_category(3)
        compose = dict(cat.compose_table)
        compose[("p3:102", "p3:102")] = "p3:120"
        rep = fincat.validate_category(copy_category(cat, compose))
        assert not rep.ok
        assert len(calls) == 1


def composition_disagreements(cat, ff):
    """Composable pairs whose recorded composite does not act as the composed tables."""
    bad = []
    for g in cat.morphisms.values():
        for f in cat.morphisms.values():
            if f.tgt != g.src:
                continue
            gf = cat.morphisms[cat.compose(g.id, f.id)]
            table = fincat.compose_tables(ff.on_morphisms[g.id], ff.on_morphisms[f.id])
            if (gf.src, gf.tgt) != (f.src, g.tgt) or ff.on_morphisms[gf.id] != table:
                bad.append((g.id, f.id))
    return bad


def oracle_categories():
    for seed in range(25):
        for groupoid_only in (False, True):
            spec = oracle.InstanceSpec(seed=seed, groupoid_only=groupoid_only)
            yield f"gen{seed}-{groupoid_only}", *oracle.gen_category(spec)


def category_doc_sha256(cat, ff, digest=None):
    digest = digest or hashlib.sha256()
    digest.update(jsonio.canon_dumps(jsonio.category_to_doc(cat, ff)).encode())
    return digest


# recorded before the three builders shared ``concrete_category``:
# perm_category(5), and gen_category at seeds 0-199 hashed in seed order
PERM5_DOC_SHA256 = "205374b985e34369781c12cd8b0d3ef67572e468df3fc3660cb9229363f57d20"
GEN_DOCS_SHA256 = {
    False: "19ae87120157bfda0896f233d256a159e491a7ff4180d442567d863eb567a1a5",
    True: "d867b549c5dc3efa801e977f522d454cb9ee573ea02dd84ea6e0d4a2d159e123",
}


class TestConcreteCategory:
    @pytest.mark.parametrize(
        "name, cat, ff",
        [
            ("perm4", *corpus.perm_category(4)),
            ("finset123", *corpus.finset_category((1, 2, 3))),
            *oracle_categories(),
        ],
    )
    def test_composites_and_identities_agree_with_the_tables(self, name, cat, ff):
        assert composition_disagreements(cat, ff) == []
        for v, i in cat.identities.items():
            assert ff.on_morphisms[i] == fincat.identity_table(ff.on_objects[v])
        assert fincat.validate_category(cat).ok
        assert fincat.validate_fibre_functor(cat, ff).ok

    def test_perm_category_document_is_unchanged(self):
        digest = category_doc_sha256(*corpus.perm_category(5))
        assert digest.hexdigest() == PERM5_DOC_SHA256

    @pytest.mark.parametrize("groupoid_only", [False, True])
    def test_generated_category_documents_are_unchanged(self, groupoid_only):
        digest = hashlib.sha256()
        for seed in range(200):
            spec = oracle.InstanceSpec(seed=seed, groupoid_only=groupoid_only)
            category_doc_sha256(*oracle.gen_category(spec), digest)
        assert digest.hexdigest() == GEN_DOCS_SHA256[groupoid_only]


def reference_functor_laws(cat, ff):
    """The exhaustive identity and composition loop that checked every fibre functor before
    the generator check."""
    found = []
    for v in cat.objects:
        i = cat.identities.get(v)
        if i in ff.on_morphisms and v in ff.on_objects:
            if ff.on_morphisms[i] != fincat.identity_table(ff.on_objects[v]):
                detail = f"identity of {v} does not act as identity"
                found.append(Violation("action-identity", detail))
    for (g, f), gf in cat.compose_table.items():
        if g in ff.on_morphisms and f in ff.on_morphisms and gf in ff.on_morphisms:
            outer = ff.on_morphisms[g]
            composite = {e: outer.get(v) for e, v in ff.on_morphisms[f].items()}
            if ff.on_morphisms[gf] != composite:
                found.append(Violation("action-composition", f"({g}, {f})"))
    return found


def golden_structures():
    for path in sorted(GOLDEN.glob("*.json")):
        doc = jsonio.read_doc(path)
        kind = jsonio.detect_kind(doc)
        if kind == "category":
            yield path.stem, *jsonio.category_from_doc(doc)
        elif kind == "bundle":
            x = jsonio.bundle_from_doc(doc)
            yield path.stem, x.cat, x.ff


def single_table_corruptions(cat, ff):
    """``ff`` with one action table replaced by the table of another morphism of its hom-set."""
    for hom in cat.homs.values():
        for m in hom:
            for other in hom:
                if ff.on_morphisms[other] != ff.on_morphisms[m]:
                    broken = copy_functor(ff)
                    broken.on_morphisms[m] = dict(ff.on_morphisms[other])
                    yield f"{m}<-{other}", broken


def _lawful_on_generators(calls, cat, ff, generators):
    """The verdict on the generators alone: whether the law check ran no exhaustive pass."""
    before = calls["_failing_pairs"]
    fincat.check_functor_laws(cat, ff, generators)
    return calls["_failing_pairs"] == before


class TestFunctorLawsOnGenerators:
    def assert_same_as_exhaustive(self, calls, name, cat, ff):
        category = fincat.validate_category(cat)
        assert category.ok and category.generators is not None, name
        assert fincat.check_fibre_tables(cat, ff).ok, name
        expected = reference_functor_laws(cat, ff)
        # the verdict on the generators alone, then the report, which runs the
        # exhaustive pass when that verdict is a failure
        assert _lawful_on_generators(calls, cat, ff, category.generators) == (not expected), name
        assert fincat.check_functor_laws(cat, ff, category.generators).violations == expected, name
        assert fincat.check_functor_laws(cat, ff, None).violations == expected, name
        return expected

    def test_golden_categories(self, exhaustive_calls):
        names = []
        for name, cat, ff in golden_structures():
            assert self.assert_same_as_exhaustive(exhaustive_calls, name, cat, ff) == []
            names.append(name)
        assert len(names) == 12

    def test_generated_categories(self, exhaustive_calls):
        for seed in range(200):
            for groupoid_only in (False, True):
                spec = oracle.InstanceSpec(seed=seed, groupoid_only=groupoid_only)
                cat, ff = oracle.gen_category(spec)
                name = f"gen{seed}-{groupoid_only}"
                assert self.assert_same_as_exhaustive(exhaustive_calls, name, cat, ff) == [], name

    def test_every_single_table_corruption_of_perm3(self, exhaustive_calls):
        cat, ff = corpus.perm_category(3)
        corruptions = list(single_table_corruptions(cat, ff))
        assert len(corruptions) == 2 * 1 + 6 * 5
        lawful = [
            n
            for n, ff2 in corruptions
            if not self.assert_same_as_exhaustive(exhaustive_calls, n, cat, ff2)
        ]
        # the swap acting as the identity is still a functor, an unfaithful one
        assert lawful == ["p2:10<-p2:01"]

    def test_every_assignment_of_tables_to_the_permutations_of_set3(self, exhaustive_calls):
        # every morphism of set3 but the identity acting by any of the six
        # permutations: 6 ** 5 table assignments, wrong at several pairs at
        # once, which single-table corruptions are not
        cat, ff = corpus.perm_category(3)
        generators = fincat.validate_category(cat).generators
        hom = cat.hom("set3", "set3")
        tables = [ff.on_morphisms[m] for m in hom]
        moved = [m for m in hom if m != cat.identities["set3"]]
        lawful = 0
        for choice in itertools.product(tables, repeat=len(moved)):
            tables_of = {**ff.on_morphisms, **dict(zip(moved, choice))}
            assigned = fincat.FibreFunctor(ff.on_objects, tables_of)
            expected = reference_functor_laws(cat, assigned)
            verdict = _lawful_on_generators(exhaustive_calls, cat, assigned, generators)
            assert verdict == (not expected), choice
            lawful += not expected
        # the homomorphisms S3 -> S3: the trivial one, three onto a
        # subgroup of order 2, and six automorphisms
        assert lawful == 10

    def test_merged_stages_equal_the_two_validators(self):
        # validate writes this merge; it must stay the report of the two
        # validators run one after the other, on broken categories too
        rng = random.Random(18)
        for name, cat, ff in corpus_structures():
            for kind, mcat, mff in structure_mutants(cat, ff, rng):
                merged = [v for rep in fincat.functor_stages(mcat, mff) for v in rep.violations]
                expected = fincat.validate_category(mcat).violations
                expected += fincat.validate_fibre_functor(mcat, mff).violations
                assert merged == expected, (name, kind)
