import contextlib
import hashlib
import io
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratabundle import cellbase, cli, corpus, fincat, jsonio, oracle, strabundle, triviality
from stratabundle.validation import PreconditionError, StructureError, first_failure

from conftest import build_shuffled_torus_cover, build_twisted_circle


class TestTrivializeOver:
    def test_product_bundle_gets_identity_charts(self):
        x = corpus.product_bundle_c3()
        res = triviality.trivialize_over(x, set(x.base.cells))
        assert res.ok
        ident = x.cat.identities["set2"]
        assert all(
            x.ff.on_morphisms[m] == x.ff.on_morphisms[ident]
            for m in res.trivialization.charts.values()
        )
        assert triviality.validate_trivialization(x, res.trivialization).ok

    def test_double_cover_is_obstructed_globally(self):
        x = corpus.double_cover_c3()
        res = triviality.trivialize_over(x, set(x.base.cells))
        assert not res.ok
        obs = res.obstruction
        # the loop closes with the swap
        assert x.ff.on_morphisms[obs.holonomy] == {"set2.0": "set2.1", "set2.1": "set2.0"}
        assert len(obs.loop) >= 3

    def test_every_star_of_the_double_cover_trivializes(self):
        x = corpus.double_cover_c3()
        for c in x.base.cells:
            res = triviality.trivialize_over(x, cellbase.star_cells(x.base, c))
            assert res.ok
            assert triviality.validate_trivialization(x, res.trivialization).ok

    def test_empty_region_is_refused(self):
        with pytest.raises(StructureError):
            triviality.trivialize_over(corpus.double_cover_c3(), [])

    def test_non_invertible_transition_is_refused(self):
        x = corpus.disk_collapse_two_strata()
        with pytest.raises(PreconditionError):
            triviality.trivialize_over(x, set(x.base.cells))

    def test_chart_iso_onto_product_bundle(self):
        x = corpus.double_cover_c3()
        star = cellbase.star_cells(x.base, "v1")
        t = triviality.trivialize_over(x, star).trivialization
        sub = strabundle.restrict(x, t.region)
        prod = strabundle.product_bundle(sub.base, sub.strat, x.cat, x.ff, t.object)
        iso = strabundle.FBundleMap(sub, prod, cellbase.identity_map(sub.base), dict(t.charts))
        assert strabundle.validate_fbundle_map(iso).ok
        assert all(
            fincat.is_bijective_table(
                iso.target.ff.on_morphisms[m], iso.target.fibre_set("v1")
            )
            for m in iso.fibre_morphisms.values()
        )


class TestCertificate:
    def test_double_cover_has_six_star_trivializations(self):
        cert = triviality.local_triviality_certificate(corpus.double_cover_c3())
        assert len(cert.stars) == 6

    def test_invertible_cross_stratum_bundle_is_certified(self):
        x = corpus.disk_trivial_two_strata()
        cert = triviality.local_triviality_certificate(x)
        assert set(cert.stars) == set(x.base.cells)
        for c, t in cert.stars.items():
            assert triviality.validate_trivialization(x, t).ok

    def test_non_groupoid_category_is_refused_with_witness(self):
        x = corpus.orbit_free_bundle_c3()
        with pytest.raises(PreconditionError) as err:
            triviality.local_triviality_certificate(x)
        assert "q" in str(err.value)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=50_000))
    def test_groupoid_instances_always_certify(self, seed):
        spec = oracle.InstanceSpec(seed=seed, groupoid_only=True)
        rng = oracle.SplitMix64(seed)
        cat, ff = oracle.gen_category(spec, rng)
        gen = oracle.gen_bundle(spec, cat, ff, rng)
        cert = triviality.local_triviality_certificate(gen.bundle)
        for c, t in cert.stars.items():
            assert triviality.validate_trivialization(gen.bundle, t).ok


class TestCoveringSpace:
    def test_double_cover_connected_with_transposition(self):
        cov = triviality.covering_space(corpus.double_cover_c3())
        assert cov.components == 1
        assert cov.even_cover
        assert cov.sheets == {"v0": 2}
        assert [m.cycle_type for m in cov.monodromy] == [(2,)]

    def test_trivial_two_sheets_has_two_components(self):
        cov = triviality.covering_space(corpus.trivial_two_sheets_c3())
        assert cov.components == 2

    def test_triple_cover_is_connected(self):
        cov = triviality.covering_space(corpus.triple_cover_c3())
        assert cov.components == 1
        assert [m.cycle_type for m in cov.monodromy] == [(3,)]

    def test_collapse_is_refused(self):
        with pytest.raises(PreconditionError):
            triviality.covering_space(corpus.disk_collapse_two_strata())

    def test_sheet_count_equals_fibre_cardinality(self):
        x = corpus.triple_cover_c3()
        cov = triviality.covering_space(x)
        assert cov.sheets["v0"] == len(x.fibre_set("v0")) == 3

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_components_over_a_circle_count_as_stirling_numbers(self, n):
        # a closed form the engine does not compute: the components of the
        # total space are the cycles of the one twist, and c(n, k) of the n!
        # permutations of n elements have k cycles; every twist is a bundle
        cat, ff = corpus.perm_category(n)
        components, trivialized = Counter(), []
        for perm in permutations(range(n)):
            x = build_twisted_circle(cat, ff, f"set{n}", f"p{n}:" + "".join(map(str, perm)))
            assert first_failure(strabundle.bundle_stages(x)) is None
            components[triviality.covering_space(x).components] += 1
            if triviality.trivialize_over(x, set(x.base.cells)).ok:
                trivialized.append(x.transition[x.base.incidences[0]])
        assert components == _stirling_first_kind(n)
        assert trivialized == [cat.identities[f"set{n}"]]


@pytest.mark.parametrize("n, counts", [
    (3, [2, 3, 1]),
    (4, [6, 11, 6, 1]),
    (5, [24, 50, 35, 10, 1]),
])
def test_the_stirling_recurrence_gives_the_tabled_numbers(n, counts):
    assert _stirling_first_kind(n) == dict(enumerate(counts, start=1))


def _stirling_first_kind(n: int) -> dict[int, int]:
    """The unsigned Stirling numbers c(n, k) > 0, by c(m + 1, k) = m c(m, k) + c(m, k - 1)."""
    row = {0: 1}
    for m in range(n):
        row = {k: m * row.get(k, 0) + row.get(k - 1, 0) for k in range(m + 2)}
    return {k: c for k, c in row.items() if c}


class TestStratify:
    def test_product_over_stratified_disk(self):
        x = corpus.disk_trivial_two_strata()
        flat = strabundle.StratBundle(
            x.base,
            cellbase.single_stratum(x.base),
            x.cat,
            x.ff,
            dict(x.fibre_obj),
            dict(x.transition),
        )
        res = triviality.stratify_bundle(flat, x.strat)
        assert strabundle.bundle_eq(res.bundle, x)
        assert len(res.decomposition) == 1
        piece = res.decomposition[0]
        assert strabundle.validate_bundle(piece.attached).ok
        assert set(piece.boundary.base.cells) <= set(piece.attached.base.cells)

    def test_double_cover_over_stratified_circle(self):
        x = corpus.double_cover_c3()
        strat = cellbase.Stratification(
            {c: (0 if x.base.cells[c].dim == 0 else 1) for c in x.base.cells}
        )
        res = triviality.stratify_bundle(x, strat)
        assert strabundle.validate_bundle(res.bundle).ok
        cov = triviality.covering_space(res.bundle)
        assert cov.components == 1

    def test_collapse_morphism_is_refused(self):
        x = corpus.disk_collapse_two_strata()
        with pytest.raises(PreconditionError):
            triviality.stratify_bundle(x, x.strat)


def test_cycle_type_helper():
    assert triviality.permutation_cycle_type({"a": "b", "b": "a", "c": "c"}) == (2, 1)
    assert triviality.permutation_cycle_type({}) == ()


def _walk_transport(x, walk) -> dict[str, str]:
    """Fibre bijection of walk[0] obtained by walking the closed walk once."""
    table = fincat.identity_table(x.fibre_set(walk[0]))
    for a, b in zip(walk, walk[1:] + walk[:1]):
        if (b, a) in x.transition:  # down from the cell a to its face b
            step = x.transition_table(b, a)
        else:  # up from the face a to the cell b
            step = {w: v for v, w in x.transition_table(a, b).items()}
        table = fincat.compose_tables(step, table)
    return table


# sha256 of the cover, certify and trivialize documents of the n = 9 torus
# cover, recorded before these commands moved onto the shared BFS tree
TORUS9_SHA256 = {
    "cover": "96c4b952deff6c68850a576df01583f98a5dacac8a8d051b1669de53a68aeeb4",
    "certify": "43694321a87068e961032f99ea0dcd71991351865f2eb0708dbe7a9f46990a00",
    "trivialize": "9dcd615057f421f46afecf31b49eca522fc693b1d0ad377eda9b699ec5412b4d",
}

# sha256 of the outputs on the n = 9 torus cover whose vertex names are
# shuffled by random.Random(7), recorded before the star sweep, the
# covering and the star and monodromy tables were rewritten; the shuffle
# changes every BFS tree, which grid-order names leave in one shape.
# The pullback runs along the torus's own map, so it writes the bundle.
SHUFFLED_TORUS9_SEED = 7
SHUFFLED_TORUS9_SHA256 = {
    "cover": "9bcaf4459c80ec4422f81f7ed9830f8a5290560634fec1df79665c4cccfd609e",
    "certify": "8ece42d5c9378be951d5b233d35895bda4cf17ffe64de49c1e2b2045f7bed648",
    "trivialize": "d4ba032a27df6eedf6f33c8f70f5d6f8bd6b9bd376bbafcd3279df30dfdc004f",
    "total": "37f774415832ee477302057b6b109f611b14f02d3f1cfbfdc397756508aa5984",
    "pullback": "ca8098d096a44e980cd685cd0620a3445f63d3e7fd5d1d61ab29481857057229",
}


class TestTorusCrossChecks:
    """Trivialization, covering and monodromy agree on double covers of tori."""

    @pytest.mark.parametrize("n, components", [(3, 1), (6, 2), (9, 1)])
    def test_components_are_monodromy_orbits(self, torus_cover, n, components):
        x = torus_cover(n)
        cov = triviality.covering_space(x)
        assert cov.components == components
        fibre = x.fibre_set(cov.basepoint)
        moves = [(v, w) for e in cov.monodromy for v, w in e.permutation.items()]
        assert cov.components == len(cellbase.connected_components(fibre, moves))
        assert len(cov.monodromy) == len(x.base.incidences) - len(x.base.cells) + 1

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_global_chart_exactly_when_monodromy_is_trivial(self, torus_cover, n):
        x = torus_cover(n)
        cov = triviality.covering_space(x)
        trivial = all(
            all(v == w for v, w in e.permutation.items()) for e in cov.monodromy
        )
        res = triviality.trivialize_over(x, set(x.base.cells))
        assert res.ok == trivial
        assert res.ok == (n == 6)
        if res.ok:
            assert triviality.validate_trivialization(x, res.trivialization).ok

    @pytest.mark.parametrize("n", [3, 9])
    def test_obstruction_loop_is_a_closed_walk(self, torus_cover, n):
        x = torus_cover(n)
        obs = triviality.trivialize_over(x, set(x.base.cells)).obstruction
        loop = list(obs.loop)
        assert len(set(loop)) == len(loop) >= 3
        incidences = set(x.base.incidences)
        for a, b in zip(loop, loop[1:]):
            assert (a, b) in incidences or (b, a) in incidences
        closing = (loop[-1], loop[0])
        assert closing in incidences
        assert f"incidence ({loop[-1]}, {loop[0]})" in obs.detail
        walked = _walk_transport(x, loop)
        holonomy = x.ff.on_morphisms[obs.holonomy]
        assert triviality.permutation_cycle_type(walked) == (2,)
        assert triviality.permutation_cycle_type(holonomy) == (2,)

    def test_documents_are_unchanged(self, torus_cover, tmp_path):
        bundle = tmp_path / "bundle.json"
        jsonio.write_doc(bundle, jsonio.bundle_to_doc(torus_cover(9)))
        for command, digest in TORUS9_SHA256.items():
            out = tmp_path / f"{command}.json"
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main([command, str(bundle), "-o", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_shuffled_label_documents_are_unchanged(self, tmp_path):
        x, fbar = build_shuffled_torus_cover(9, SHUFFLED_TORUS9_SEED)
        docs = {
            "bundle": jsonio.bundle_to_doc(x),
            "circle": jsonio.bundle_to_doc(corpus.double_cover_c3()),
            "map": jsonio.map_to_doc(fbar, x.strat),
        }
        for name, doc in docs.items():
            jsonio.write_doc(tmp_path / f"{name}.json", doc)
        for command, digest in SHUFFLED_TORUS9_SHA256.items():
            names = ["circle", "map"] if command == "pullback" else ["bundle"]
            out = tmp_path / f"{command}.json"
            argv = [command, *(str(tmp_path / f"{n}.json") for n in names), "-o", str(out)]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, command


class TestImageInverseCalls:
    """The certificate works out each morphism's inverse once, the validator each
    distinct transition morphism's; calls of the uncached kernel are counted."""

    @pytest.fixture
    def asked(self, monkeypatch):
        calls = []
        original = fincat._find_image_inverse

        def counting(table, mid):
            calls.append(mid)
            return original(table, mid)

        monkeypatch.setattr(fincat, "_find_image_inverse", counting)
        return calls

    @pytest.mark.parametrize("n", [3, 6])
    def test_certificate(self, torus_cover, asked, n):
        x = torus_cover(n)
        cert = triviality.local_triviality_certificate(x)
        assert len(cert.stars) == len(x.base.cells)
        assert len(asked) == len(set(asked)) == len(x.cat.morphisms)

    @pytest.mark.parametrize("n", [3, 6])
    def test_validator(self, torus_cover, asked, n):
        x = torus_cover(n)
        assert strabundle.validate_bundle(x).ok
        assert len(asked) == len(set(asked)) <= len(set(x.transition.values()))

    def test_stratum_iso_reported_per_incidence(self, asked):
        cat, ff = corpus.finset_category((2,))
        base, strat = corpus.c3()
        x = strabundle.product_bundle(base, strat, cat, ff, "n2")
        for i, key in enumerate(base.incidences):
            x.transition[key] = "f:n2>n2:00" if i % 2 else "f:n2>n2:11"  # two collapses
        rep = strabundle.validate_bundle(x)
        assert [(v.code, v.detail) for v in rep.violations] == [
            ("stratum-iso", f"within-stratum transition ({f}, {c}) -> {m} is not invertible")
            for (f, c), m in sorted(x.transition.items())
        ]
        assert sorted(asked) == ["f:n2>n2:00", "f:n2>n2:11"]

    def test_global_trivialization(self, torus_cover, asked):
        x = torus_cover(3)
        assert not triviality.trivialize_over(x, set(x.base.cells)).ok
        # one per transition morphism, plus the inverse of the closing chart
        assert len(asked) <= len(set(x.transition.values())) + 1
