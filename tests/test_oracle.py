import hashlib
from collections import Counter

import pytest
from conftest import is_groupoid
from hypothesis import given, settings
from hypothesis import strategies as st

from stratabundle import corpus, fincat, funcspace, jsonio, oracle, strabundle, triviality
from stratabundle.validation import StructureError, ValidationReport, Violation


class TestSplitMix64:
    def test_reference_sequence(self):
        # first outputs of splitmix64 seeded with 1234567, as fixed by the
        # reference constants
        rng = oracle.SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317
        assert rng.next_u64() == 3203168211198807973

    def test_below_is_modulo(self):
        a, b = oracle.SplitMix64(42), oracle.SplitMix64(42)
        assert [a.below(10) for _ in range(5)] == [b.next_u64() % 10 for _ in range(5)]


class TestGenCategory:
    def test_single_object_groupoid_on_two_points_is_subgroup_of_s2(self):
        spec = oracle.InstanceSpec(seed=1, max_objects=1, max_fibre_size=2, groupoid_only=True)
        for seed in range(20):
            cat, ff = oracle.gen_category(spec.with_seed(seed))
            obj = cat.objects[0]
            tables = {tuple(sorted(ff.on_morphisms[m].items())) for m in cat.morphisms}
            elems = ff.on_objects[obj]
            allowed = {tuple(sorted(fincat.identity_table(elems).items()))}
            if len(elems) == 2:
                allowed.add(tuple(sorted({elems[0]: elems[1], elems[1]: elems[0]}.items())))
            assert tables <= allowed

    def test_fibre_size_one_gives_singleton_homs(self):
        spec = oracle.InstanceSpec(seed=3, max_fibre_size=1)
        cat, _ = oracle.gen_category(spec)
        assert all(len(cat.hom(a, b)) <= 1 for a in cat.objects for b in cat.objects)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000), st.booleans())
    def test_every_output_validates(self, seed, groupoid_only):
        spec = oracle.InstanceSpec(seed=seed, groupoid_only=groupoid_only)
        cat, ff = oracle.gen_category(spec)
        assert fincat.validate_category(cat).ok
        assert fincat.validate_fibre_functor(cat, ff).ok
        assert fincat.is_faithful(cat, ff)
        if groupoid_only:
            assert is_groupoid(cat)[0]


# The ``_reference_*`` functions below are the implementations from before
# ``gen_category`` closed its tables semi-naively on fibre indices and
# ``concrete_category`` composed image tuples: a closure that recomposes
# every ordered pair of named tables each round, and a compose loop over
# every pair of morphisms.  The engine must build the same categories, in
# the same insertion orders, and leave the stream where they left it.


def _reference_concrete_category(fibres, morphisms, actions):
    by_table = {(s, t, tuple(actions[mid][e] for e in fibres[s])): mid for mid, s, t in morphisms}
    identities = {v: by_table[(v, v, tuple(elems))] for v, elems in fibres.items()}
    compose = {}
    for g, src_g, tgt_g in morphisms:
        outer = actions[g]
        for f, src_f, tgt_f in morphisms:
            if tgt_f == src_g:
                inner = actions[f]
                image = tuple(outer[inner[e]] for e in fibres[src_f])
                compose[(g, f)] = by_table[(src_f, tgt_g, image)]
    return fincat.category(fibres, morphisms, compose, identities), fincat.fibre_functor(fibres, actions)


def _reference_random_table(rng, src_elems, tgt_elems, bijective):
    if bijective:
        order = rng.sample_indices(len(tgt_elems), len(tgt_elems))
        return tuple(tgt_elems[i] for i in order)
    return tuple(rng.choice(tgt_elems) for _ in src_elems)


def _reference_gen_category(spec, rng, overflows):
    n_obj = 1 + rng.below(spec.max_objects)
    objects = [f"V{i}" for i in range(n_obj)]
    sizes = {v: 1 + rng.below(spec.max_fibre_size) for v in objects}
    elems = {v: tuple(f"{v}.{i}" for i in range(sizes[v])) for v in objects}

    for gen_budget in range(2 * n_obj, -1, -1):
        tables = {}
        for v in objects:
            tables[(v, v, tuple(elems[v]))] = None
        for k in range(gen_budget):
            src = rng.choice(objects)
            if spec.groupoid_only or k == 0:
                candidates = [w for w in objects if sizes[w] == sizes[src]]
                tgt = rng.choice(candidates)
                table = _reference_random_table(rng, elems[src], elems[tgt], True)
                tables[(src, tgt, table)] = None
                inverse = tuple(elems[src][list(table).index(e)] for e in elems[tgt])
                tables[(tgt, src, inverse)] = None
            else:
                tgt = rng.choice(objects)
                tables[(src, tgt, _reference_random_table(rng, elems[src], elems[tgt], False))] = None
        grown = True
        overflow = False
        while grown and not overflow:
            grown = False
            existing = list(tables)
            for (s1, t1, tab1) in existing:
                for (s2, t2, tab2) in existing:
                    if t1 != s2:
                        continue
                    lookup = dict(zip(elems[s2], tab2))
                    composite = tuple(lookup[v] for v in tab1)
                    key = (s1, t2, composite)
                    if key not in tables:
                        tables[key] = None
                        grown = True
                        if len(tables) > oracle._MORPHISM_CAP:
                            overflow = True
                            break
                if overflow:
                    break
        if not overflow:
            break
        overflows.append(spec)

    ordered = sorted(tables)
    ids = {}
    rank = {}
    for key in ordered:
        s, t, _ = key
        k = rank.get((s, t), 0)
        rank[(s, t)] = k + 1
        ids[key] = f"{s}>{t}#{k}"
    morphisms = [(ids[key], key[0], key[1]) for key in ordered]
    actions = {ids[key]: dict(zip(elems[key[0]], key[2])) for key in ordered}
    return _reference_concrete_category(elems, morphisms, actions)


def _assert_same_category(built, reference):
    (cat, ff), (ref_cat, ref_ff) = built, reference
    assert cat == ref_cat
    assert ff == ref_ff
    assert list(cat.morphisms) == list(ref_cat.morphisms)
    assert list(cat.compose_table) == list(ref_cat.compose_table)
    assert list(cat.identities) == list(ref_cat.identities)
    assert list(ff.on_morphisms) == list(ref_ff.on_morphisms)


REFERENCE_SEEDS = range(100)


@pytest.mark.parametrize("max_objects", [1, 2, 3, 4])
@pytest.mark.parametrize("groupoid_only", [False, True])
def test_gen_category_matches_the_round_based_reference(monkeypatch, max_objects, groupoid_only):
    closures, overflows = [], []
    close = oracle._close

    def counting(tables):
        closed = close(tables)
        closures.append(closed)
        return closed

    monkeypatch.setattr(oracle, "_close", counting)
    for max_fibre_size in range(1, 6):
        for seed in REFERENCE_SEEDS:
            spec = oracle.InstanceSpec(
                seed=seed, max_objects=max_objects, max_fibre_size=max_fibre_size,
                groupoid_only=groupoid_only,
            )
            rng, ref_rng = oracle.SplitMix64(seed), oracle.SplitMix64(seed)
            built = oracle.gen_category(spec, rng)
            _assert_same_category(built, _reference_gen_category(spec, ref_rng, overflows))
            assert rng.state == ref_rng.state
    assert closures.count(False) == len(overflows)
    assert closures.count(True) == 5 * len(REFERENCE_SEEDS)
    assert overflows  # the retry path is exercised, not only the first closure


@pytest.mark.parametrize("groupoid_only", [False, True])
def test_the_closure_composes_each_ordered_pair_once(monkeypatch, groupoid_only):
    composed, checked = Counter(), []
    close, compose = oracle._close, oracle._compose

    def counting_compose(inner, outer):
        composed[inner, outer] += 1
        return compose(inner, outer)

    def checking_close(tables):
        composed.clear()
        seeds = len(tables)
        closed = close(tables)
        if closed and len(tables) > seeds:
            expected = Counter(
                (inner, outer) for _, t, inner in tables for s, _, outer in tables if t == s
            )
            assert composed == expected
            checked.append(len(tables))
        return closed

    monkeypatch.setattr(oracle, "_compose", counting_compose)
    monkeypatch.setattr(oracle, "_close", checking_close)
    for seed in range(200):
        oracle.gen_category(oracle.InstanceSpec(seed=seed, groupoid_only=groupoid_only))
    assert len(checked) > 100 and max(checked) > 20


@pytest.mark.parametrize("build, arg", [
    (corpus.perm_category, 4),
    (corpus.finset_category, (1, 2, 3)),
    (corpus.finset_category, (2, 0, 1)),
])
def test_corpus_categories_match_the_reference_compose_loop(monkeypatch, build, arg):
    built = build(arg)
    monkeypatch.setattr(fincat, "concrete_category", _reference_concrete_category)
    _assert_same_category(built, build(arg))


class TestGenBundle:
    def test_same_seed_same_serialization(self):
        spec = oracle.InstanceSpec(seed=11)
        docs = []
        for _ in range(2):
            rng = oracle.SplitMix64(spec.seed)
            cat, ff = oracle.gen_category(spec, rng)
            gen = oracle.gen_bundle(spec, cat, ff, rng)
            docs.append(jsonio.canon_dumps(jsonio.bundle_to_doc(gen.bundle)))
        assert docs[0] == docs[1]

    def test_depth_one_gives_single_stratum(self):
        spec = oracle.InstanceSpec(seed=5, strata_depth=1)
        rng = oracle.SplitMix64(5)
        cat, ff = oracle.gen_category(spec, rng)
        gen = oracle.gen_bundle(spec, cat, ff, rng)
        assert gen.bundle.strat.depth == 0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_generators_never_rely_on_repair(self, seed):
        spec = oracle.InstanceSpec(seed=seed)
        rng = oracle.SplitMix64(seed)
        cat, ff = oracle.gen_category(spec, rng)
        gen = oracle.gen_bundle(spec, cat, ff, rng)
        assert strabundle.validate_bundle(gen.bundle).ok
        assert len(gen.bundle.base.cells) <= spec.max_cells


def generated_instances(stream):
    """The bundles the suites generate, in seed order."""
    if stream == "fiberwise":
        for seed in range(1, 51):
            yield from oracle._gen_pair(oracle.InstanceSpec(seed=seed))
        return
    for seed in range(1, 101):
        spec = oracle.InstanceSpec(seed=seed, groupoid_only=stream == "groupoid")
        yield oracle._gen_instance(spec)[3].bundle


# sha256 of the canonical documents of ``generated_instances``, recorded
# before this test existed: the default spec (pullback, principal,
# associated) and the groupoid spec (bundle) at seeds 1-100, and both
# factors of the fiberwise pairs at seeds 1-50.  The suite reports hold no
# fingerprint of their instances, so a change to the generators that still
# passes every theorem shows only here.
INSTANCE_SHA256 = {
    "default": "c490a65bd2c98a6e02babfbb8de85dd295a461d1e14a298a6a5634b3489971b4",
    "groupoid": "18ab15c4a84202d698e15b2e7a42ee9224588d4e1c2b3a8ce6c8dde97954a932",
    "fiberwise": "b5d0b2d8f5a47edf48e093d3f847e109d2cd053bb93e61c8f272b43929589976",
}


@pytest.mark.parametrize("stream", sorted(INSTANCE_SHA256))
def test_generated_instances_are_unchanged(stream):
    digest = hashlib.sha256()
    for x in generated_instances(stream):
        digest.update(jsonio.canon_dumps(jsonio.bundle_to_doc(x)).encode())
    assert digest.hexdigest() == INSTANCE_SHA256[stream]


class TestSuites:
    def test_reports_are_deterministic(self):
        spec = oracle.InstanceSpec(seed=9)
        for name in oracle.SUITES:
            a = oracle.run_suite(name, spec, 6).to_doc()
            b = oracle.run_suite(name, spec, 6).to_doc()
            assert jsonio.canon_dumps(a) == jsonio.canon_dumps(b)

    def test_partition_of_seeds_merges_to_the_whole(self):
        # a 10-seed run records what ten 1-seed runs record, in seed order
        spec = oracle.InstanceSpec(seed=0)
        for name in oracle.SUITES:
            whole = oracle.run_suite(name, spec, 10)
            singles = [oracle.run_suite(name, spec.with_seed(s), 1) for s in range(10)]
            assert whole.instances == sum(r.instances for r in singles) == 10, name
            assert whole.passes == sum(r.passes for r in singles), name
            assert whole.failures == [d for r in singles for d in r.failures], name
            assert whole.invalid_inputs == [d for r in singles for d in r.invalid_inputs], name

    @pytest.mark.parametrize("name", sorted(oracle.SUITES))
    def test_each_image_inverse_is_worked_out_once(self, monkeypatch, name):
        # the generator, the gate, the attachment rounds and the suite's own
        # checks (the bundle suite's certificate, star checks and
        # stratify_bundle) share the category's table for each functor
        worked_out = []
        find_image_inverse = fincat._find_image_inverse

        def counting(table, mid):
            worked_out.append((table, mid))  # holds the table, so no id below is reused
            return find_image_inverse(table, mid)

        monkeypatch.setattr(fincat, "_find_image_inverse", counting)
        rep = oracle.run_suite(name, oracle.InstanceSpec(seed=1), 4)
        assert rep.passes == rep.instances == 4
        per_triple = Counter((id(t.mors), id(t.ff), mid) for t, mid in worked_out)
        assert per_triple and max(per_triple.values()) == 1

    def test_negative_control_is_classified_as_invalid(self):
        spec = oracle.InstanceSpec(seed=1, groupoid_only=True)
        rng = oracle.SplitMix64(1)
        cat, ff = oracle.gen_category(spec, rng)
        gen = oracle.gen_bundle(spec, cat, ff, rng)
        x = gen.bundle
        broken = None
        for (f, c), m in sorted(x.transition.items()):
            others = [
                o
                for o in cat.hom(x.fibre_obj[c], x.fibre_obj[f])
                if ff.on_morphisms[o] != ff.on_morphisms[m]
            ]
            if others and x.base.cells[c].dim >= 2:
                t = dict(x.transition)
                t[(f, c)] = others[0]
                cand = strabundle.StratBundle(x.base, x.strat, cat, ff, dict(x.fibre_obj), t)
                if not strabundle.validate_bundle(cand).ok:
                    broken = cand
                    break
        assert broken is not None
        outcome, _ = oracle.classify_principal_instance(broken)
        assert outcome == "invalid-input"

    def test_unlawful_category_is_invalid_input(self):
        # p2:10 . p2:10 recorded as p2:10 breaks the functor law but no stage
        # after it; such an input is defective, not a theorem violation
        x = corpus.double_cover_c3()
        x.cat.compose_table[("p2:10", "p2:10")] = "p2:10"
        x = strabundle.StratBundle(x.base, x.strat, x.cat, x.ff, x.fibre_obj, x.transition)
        assert strabundle.validate_bundle(x).ok
        assert oracle.classify_principal_instance(x) == (
            "invalid-input",
            "Violation(code='action-composition', detail='(p2:10, p2:10)')",
        )

    def test_unknown_suite_is_rejected(self):
        with pytest.raises(StructureError):
            oracle.run_suite("nope", oracle.InstanceSpec(seed=1), 1)

    @pytest.mark.parametrize("seeds", [0, -5])
    def test_fewer_than_one_seed_is_rejected(self, seeds):
        with pytest.raises(StructureError):
            oracle.run_suite("pullback", oracle.InstanceSpec(seed=1), seeds)


def _raise(*args, **kwargs):
    raise RuntimeError("patched")


def _failing_report(*args, **kwargs):
    return ValidationReport("bundle", [Violation("patched", "failing report")])


def _invalid(stage, detail, seeds=(1, 2, 3)):
    return [{"seed": s, "stage": stage, "detail": detail} for s in seeds]


PATCHED = "RuntimeError('patched')"
FAILING = "Violation(code='patched', detail='failing report')"  # a refused input's first violation
# the first theorem-stage call of each suite, made on a valid instance
THEOREM_STAGE = {
    "pullback": (strabundle, "pullback"),
    "bundle": (triviality, "local_triviality_certificate"),
    "principal": (funcspace, "reconstruct_check"),
    "fiberwise": (strabundle, "fiberwise_product"),
    "associated": (funcspace, "associated_bundle"),
}
# (instances, passes, failures, invalid_inputs) over seeds 1..3, recorded
# before the suites shared one driver; the principal and fiberwise theorem
# stages raised out of the driver until they recorded their exceptions
FAILURE_PATHS = {
    ("pullback", "generator"): (3, 2, [], _invalid("generate", PATCHED, [2])),
    ("pullback", "validate"): (3, 0, [], _invalid("generate", FAILING)),
    ("pullback", "theorem"): (3, 0, _invalid("pullback", PATCHED), []),
    ("bundle", "generator"): (3, 2, [], _invalid("generate", PATCHED, [2])),
    ("bundle", "validate"): (3, 0, [], _invalid("generate", FAILING)),
    ("bundle", "theorem"): (3, 0, _invalid("certificate", PATCHED), []),
    ("principal", "generator"): (3, 2, [], _invalid("generate", PATCHED, [2])),
    ("principal", "validate"): (3, 0, [], _invalid("reconstruct", FAILING)),
    ("principal", "theorem"): (3, 0, _invalid("reconstruct", PATCHED), []),
    ("fiberwise", "generator"): (3, 2, [], _invalid("generate", PATCHED, [2])),
    ("fiberwise", "validate"): (3, 0, [], _invalid("generate", FAILING)),
    ("fiberwise", "theorem"): (3, 0, _invalid("product", PATCHED), []),
    ("associated", "generator"): (3, 2, [], _invalid("generate", PATCHED, [2])),
    ("associated", "validate"): (3, 0, [], _invalid("generate", FAILING)),
    ("associated", "theorem"): (3, 0, _invalid("identity-transport", PATCHED), []),
}


class TestFailurePaths:
    """Generated instances never fail, so each failure path is forced.

    Depth 1 keeps generation clear of ``attach_bundle``; the outcomes
    were recorded on those instances.
    """

    SPEC = oracle.InstanceSpec(seed=1, strata_depth=1)

    @pytest.mark.parametrize("name, path", sorted(FAILURE_PATHS))
    def test_recorded_outcomes(self, monkeypatch, name, path):
        if path == "generator":
            real = oracle.gen_category

            def gen_category(spec, rng=None):
                if spec.seed == 2:
                    _raise()
                return real(spec, rng)

            monkeypatch.setattr(oracle, "gen_category", gen_category)
        elif path == "validate":
            # every suite filters its inputs through the whole gate
            monkeypatch.setattr(strabundle, "bundle_stages", lambda x: [_failing_report()])
        else:
            monkeypatch.setattr(*THEOREM_STAGE[name], _raise)
        expected = FAILURE_PATHS[(name, path)]
        rep = oracle.run_suite(name, self.SPEC, 3)
        assert (rep.instances, rep.passes, rep.failures, rep.invalid_inputs) == expected


def _rerecord_one_composite(cat: fincat.FiniteCategory) -> bool:
    """Record another parallel morphism as the first composite of two non-identities.

    True if the category changed.  The fibre functor still acts by the old
    composite's table, so the category or the functor breaks a law.
    """
    identities = set(cat.identities.values())
    for (g, f), gf in sorted(cat.compose_table.items()):
        m = cat.morphisms[gf]
        others = [h for h in cat.hom(m.src, m.tgt) if h != gf]
        if g not in identities and f not in identities and others:
            cat.compose_table[(g, f)] = others[0]
            return True
    return False


@pytest.mark.parametrize("name", sorted(oracle.SUITES))
def test_an_unlawful_generated_category_is_an_invalid_input(monkeypatch, name):
    # stages 6-8 alone would file such a category as a theorem violation,
    # or pass it
    real, changed = oracle.gen_category, set()

    def gen_category(spec, rng=None):
        cat, ff = real(spec, rng)
        if _rerecord_one_composite(cat):
            changed.add(spec.seed)
        return cat, ff

    monkeypatch.setattr(oracle, "gen_category", gen_category)
    rep = oracle.run_suite(name, oracle.InstanceSpec(seed=1), 5)
    assert changed
    assert rep.failures == []
    assert changed <= {entry["seed"] for entry in rep.invalid_inputs}


class TestCoendPartitionCheck:
    """The principal suite compares each point coend with the union-find closure."""

    def test_matching_partitions_pass(self):
        for seed in range(1, 6):
            assert oracle._check_principal(oracle.InstanceSpec(seed=seed)) == ("pass", "", "")

    def test_a_differing_partition_is_a_theorem_violation(self, monkeypatch):
        real = funcspace._coend_classes_by_union

        def one_class_too_many(cat, ff2, w):
            ordered, reps = real(cat, ff2, w)
            return ordered + [(("extra", "class", "member"),)], reps

        monkeypatch.setattr(funcspace, "_coend_classes_by_union", one_class_too_many)
        spec = oracle.InstanceSpec(seed=1)
        _, cat, _, _ = oracle._gen_instance(spec)
        expected = ("theorem-violation", "coend-partition", f"object {cat.objects[0]}")
        assert oracle._check_principal(spec) == expected


def test_instance_spec_bounds():
    with pytest.raises(StructureError):
        oracle.InstanceSpec(seed=1, max_cells=0)
    with pytest.raises(StructureError):
        oracle.InstanceSpec(seed=-1)
