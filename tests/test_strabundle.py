import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratabundle import cellbase, corpus, fincat, oracle, strabundle, triviality
from stratabundle.cellbase import SimplicialMap
from stratabundle.strabundle import StratBundle
from stratabundle.validation import PreconditionError, StructureError

from conftest import build_shuffled_torus_cover


def test_product_bundle_is_valid():
    x = corpus.product_bundle_c3()
    assert strabundle.validate_bundle(x).ok


def test_within_stratum_collapse_is_reported():
    cat, ff = corpus.finset_category((1, 2))
    base, strat = corpus.c3()
    fibres = {c: "n2" for c in base.cells}
    trans = {k: "f:n2>n2:01" for k in base.incidences}
    trans[("v0", "v0.v1")] = "f:n2>n2:00"  # constant map inside one stratum
    x = StratBundle(base, strat, cat, ff, fibres, trans)
    rep = strabundle.validate_bundle(x)
    assert any(v.code == "stratum-iso" for v in rep.violations)


def test_disk_collapse_bundle_is_valid_two_stratum():
    x = corpus.disk_collapse_two_strata()
    assert strabundle.validate_bundle(x).ok
    assert x.strat.depth == 1
    # independent coherence check: both descents from the triangle to each
    # vertex, composed as raw function tables
    tri = cellbase.simplex_name(["v0", "v1", "v2"])
    for vertex in ["v0", "v1", "v2"]:
        routes = []
        for edge in x.base.cells[tri].faces:
            if vertex in x.base.below[edge]:
                routes.append(
                    fincat.compose_tables(
                        x.transition_table(vertex, edge), x.transition_table(edge, tri)
                    )
                )
        assert len(routes) == 2
        assert routes[0] == routes[1]


class TestRestrict:
    def test_restrict_to_star_of_product_is_product(self):
        x = corpus.product_bundle_c3()
        star = cellbase.star_cells(x.base, "v0")
        sub = strabundle.restrict(x, star)
        assert strabundle.validate_bundle(sub).ok
        assert all(sub.fibre_obj[c] == "set2" for c in sub.base.cells)

    def test_restrict_to_everything_is_identity(self):
        x = corpus.double_cover_c3()
        sub = strabundle.restrict(x, set(x.base.cells))
        assert strabundle.bundle_eq(sub, x)

    def test_restrict_disk_to_boundary_is_the_circle_bundle(self):
        x = corpus.disk_collapse_two_strata()
        boundary = {c for c in x.base.cells if x.strat.strata[c] == 0}
        sub = strabundle.restrict(x, boundary)
        assert set(sub.base.cells) == boundary
        assert sub.strat.depth == 0
        assert strabundle.validate_bundle(sub).ok

    def test_not_a_subcomplex_raises(self):
        x = corpus.double_cover_c3()
        with pytest.raises(StructureError):
            strabundle.restrict(x, {"v0.v1"})


class TestAttachBundle:
    def test_identity_gluing_gives_trivial_two_stratum_bundle(self):
        x = corpus.disk_trivial_two_strata()
        assert strabundle.validate_bundle(x).ok
        assert x.strat.depth == 1
        tri = cellbase.simplex_name(["u0", "u1", "u2"])
        assert x.fibre_obj[tri] == "pt"
        assert all(x.ff.on_morphisms[m] == x.ff.on_morphisms["e"] for m in x.transition.values())

    def test_swap_gluing_threads_through_cross_transitions(self):
        y = corpus.trivial_two_sheets_c3()
        m_base = cellbase.simplex_complex(["u0", "u1"])
        m = strabundle.product_bundle(
            m_base, cellbase.single_stratum(m_base), y.cat, y.ff, "pt"
        )
        a = frozenset({"u0", "u1"})
        hmap = SimplicialMap.from_vertex_map(
            cellbase.subcomplex(m_base, a), y.base, {"u0": "v0", "u1": "v1"}
        )
        res = strabundle.attach_bundle(y, m, a, hmap, {"u0": "g", "u1": "g"})
        edge = cellbase.simplex_name(["u0", "u1"])
        assert res.bundle.transition[("v0", edge)] == "g"
        assert res.bundle.transition[("v1", edge)] == "g"
        assert strabundle.validate_bundle(res.bundle).ok

    def test_empty_attachment_is_coproduct(self):
        y = corpus.trivial_two_sheets_c3()
        m_base = cellbase.simplex_complex(["u0", "u1"])
        m = strabundle.product_bundle(
            m_base, cellbase.single_stratum(m_base), y.cat, y.ff, "pt"
        )
        hmap = SimplicialMap(cellbase.subcomplex(m_base, frozenset()), y.base, {}, {})
        res = strabundle.attach_bundle(y, m, frozenset(), hmap, {})
        assert set(res.bundle.base.cells) == set(y.base.cells) | set(m_base.cells)

    def test_attach_then_restrict_is_the_old_bundle(self):
        x = corpus.disk_trivial_two_strata()
        old = strabundle.restrict(x, {c for c in x.base.cells if x.strat.strata[c] == 0})
        assert strabundle.bundle_eq(old, corpus.trivial_two_sheets_c3())


class TestPullback:
    def test_pullback_along_identity_is_equal(self):
        x = corpus.double_cover_c3()
        res = strabundle.pullback(x, cellbase.identity_map(x.base), x.strat)
        assert strabundle.bundle_eq(res.bundle, x) and res.bundle.transition == x.transition
        assert strabundle.validate_fbundle_map(res.covering).ok

    def test_pullback_of_product_is_product(self):
        x = corpus.product_bundle_c3()
        smap, strat = corpus.c6_fold_map()
        res = strabundle.pullback(x, smap, strat)
        assert strabundle.validate_bundle(res.bundle).ok
        assert all(o == "set2" for o in res.bundle.fibre_obj.values())
        expected = strabundle.product_bundle(smap.source, strat, x.cat, x.ff, "set2")
        assert strabundle.bundle_eq(res.bundle, expected)

    def test_monodromy_is_conjugate_along_degree_one_fold(self):
        x = corpus.double_cover_c3()
        smap, strat = corpus.c6_fold_map()
        res = strabundle.pullback(x, smap, strat)
        up = triviality.covering_space(res.bundle)
        down = triviality.covering_space(x)
        # the fold hits the image cycle once, so the permutations agree on the nose
        assert [m.permutation for m in up.monodromy] == [
            m.permutation for m in down.monodromy
        ]

    def test_pullback_functoriality(self):
        # pulling back along a composite equals pulling back in two steps
        x = corpus.double_cover_c3()
        rot = SimplicialMap.from_vertex_map(
            x.base, x.base, {"v0": "v1", "v1": "v2", "v2": "v0"}
        )
        fold, fold_strat = corpus.c6_fold_map()
        composite = SimplicialMap.from_vertex_map(
            fold.source, x.base, {v: rot.vertex_map[w] for v, w in fold.vertex_map.items()}
        )
        direct = strabundle.pullback(x, composite, fold_strat).bundle
        rotated = strabundle.pullback(x, rot, x.strat).bundle
        two_step = strabundle.pullback(rotated, fold, fold_strat).bundle
        assert strabundle.bundle_eq(direct, two_step)

    def test_each_image_pairs_path_is_found_once(self, monkeypatch):
        # the pinned shuffled n = 9 torus: 486 cells over the 6 of the circle
        x, fbar = build_shuffled_torus_cover(9, 7)
        circle = corpus.double_cover_c3()
        cm, incidences = fbar.cell_map, fbar.source.incidences
        pairs = {(cm[c], cm[f]) for f, c in incidences}
        assert len(pairs) < len(incidences)
        calls = []
        original = strabundle.transition_path
        monkeypatch.setattr(
            strabundle, "transition_path", lambda *args: calls.append(args[1:]) or original(*args)
        )
        res = strabundle.pullback(circle, fbar, x.strat)
        assert sorted(calls) == sorted(pairs)
        expected = {(f, c): original(circle, cm[c], cm[f]) for f, c in incidences}
        assert list(res.bundle.transition.items()) == list(expected.items())
        calls.clear()
        assert strabundle.validate_fbundle_map(res.covering).ok
        assert sorted(calls) == sorted(pairs)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_paths_raise_at_the_first_failing_incidence(self, data):
        # the fold with up to two cells sent elsewhere, most often no
        # simplicial map: the memo gives the paths or the error that one
        # call per incidence, in order, gives
        x = corpus.double_cover_c3()
        fold, _ = corpus.c6_fold_map()
        cell_map = dict(fold.cell_map)
        moved = st.tuples(st.sampled_from(sorted(cell_map)), st.sampled_from(sorted(x.base.cells)))
        cell_map.update(data.draw(st.lists(moved, max_size=2)))
        incidences = fold.source.incidences

        def outcome(paths):
            try:
                return list(paths().items())
            except StructureError as exc:
                return str(exc)

        assert outcome(lambda: strabundle.transition_paths(x, cell_map, incidences)) == outcome(
            lambda: {
                (f, c): strabundle.transition_path(x, cell_map[c], cell_map[f])
                for f, c in incidences
            }
        )

    def test_non_stratum_preserving_is_refused(self):
        cat, ff = corpus.bz2_category()
        disk, strat = corpus.fan_disk()
        x = strabundle.product_bundle(disk, strat, cat, ff, "pt")
        src, src_strat = corpus.c3()
        smap = SimplicialMap.from_vertex_map(src, disk, {"v0": "w", "v1": "w", "v2": "w"})
        with pytest.raises(PreconditionError):
            strabundle.pullback(x, smap, src_strat)


class TestFiberwiseProduct:
    def test_unit_against_one_point_fibre(self):
        x = corpus.double_cover_c3()
        cat, ff = corpus.finset_category((1,))
        unit = strabundle.product_bundle(x.base, x.strat, cat, ff, "n1")
        prod = strabundle.fiberwise_product(x, unit)
        assert strabundle.validate_bundle(prod).ok
        for c in x.base.cells:
            assert len(prod.fibre_set(c)) == len(x.fibre_set(c))

    def test_cardinalities_multiply(self):
        a = corpus.double_cover_c3()
        b = corpus.triple_cover_c3()
        prod = strabundle.fiberwise_product(a, b)
        for c in a.base.cells:
            assert len(prod.fibre_set(c)) == 6

    def test_double_times_double_has_diagonal_monodromy(self):
        a = corpus.double_cover_c3()
        cov = triviality.covering_space(strabundle.fiberwise_product(a, a))
        assert len(cov.monodromy) == 1
        perm = cov.monodromy[0].permutation
        # oracle: enumerate the paired swap directly
        swap = {"set2.0": "set2.1", "set2.1": "set2.0"}
        expected = {
            fincat.pair_id(u, v): fincat.pair_id(swap[u], swap[v])
            for u in swap
            for v in swap
        }
        assert perm == expected

    def test_base_mismatch_raises(self):
        a = corpus.double_cover_c3()
        b = corpus.disk_collapse_two_strata()
        with pytest.raises(StructureError):
            strabundle.fiberwise_product(a, b)


class TestRealizeTotal:
    def test_product_bundle_element_count(self):
        x = corpus.product_bundle_c3()
        total = strabundle.realize_total(x)
        assert len(total.elements) == 12  # two points over each of six cells

    def test_one_point_fibres_reproduce_the_base(self):
        cat, ff = corpus.finset_category((1,))
        base, strat = corpus.c3()
        x = strabundle.product_bundle(base, strat, cat, ff, "n1")
        total = strabundle.realize_total(x)
        assert len(total.elements) == len(base.cells)
        assert len(total.relations) == len(base.incidences)

    def test_double_cover_total_is_connected(self):
        total = strabundle.realize_total(corpus.double_cover_c3())
        assert len(cellbase.connected_components(total.elements, total.relations)) == 1


def edge_attached_at_v0() -> strabundle.PushoutSquare:
    """The attachment square of the edge u0.u1 glued to the circle at u0 ~ v0."""
    y = corpus.trivial_two_sheets_c3()
    m_base = cellbase.simplex_complex(["u0", "u1"])
    m = strabundle.product_bundle(
        m_base, cellbase.single_stratum(m_base), y.cat, y.ff, "pt"
    )
    a = frozenset({"u0"})
    hmap = SimplicialMap.from_vertex_map(
        cellbase.subcomplex(m_base, a), y.base, {"u0": "v0"}
    )
    return strabundle.attach_bundle(y, m, a, hmap, {"u0": "e"}).square


def with_corner(sq: strabundle.PushoutSquare, z: StratBundle) -> strabundle.PushoutSquare:
    """The same square with its two legs re-aimed at another corner ``z``."""

    def widen(fmap):
        return strabundle.FBundleMap(
            fmap.source,
            z,
            SimplicialMap(
                fmap.base_map.source, z.base,
                dict(fmap.base_map.vertex_map), dict(fmap.base_map.cell_map),
            ),
            dict(fmap.fibre_morphisms),
        )

    return strabundle.PushoutSquare(
        sq.a, sq.m, sq.y, z, sq.incl_a, sq.h, widen(sq.char), widen(sq.incl_y)
    )


class TestPushoutUniversality:
    def test_attachment_square_passes(self):
        y = corpus.trivial_two_sheets_c3()
        m_base = cellbase.simplex_complex(["u0", "u1", "u2"])
        m = strabundle.product_bundle(
            m_base, cellbase.single_stratum(m_base), y.cat, y.ff, "pt"
        )
        top = cellbase.simplex_name(["u0", "u1", "u2"])
        a = frozenset(c for c in m_base.cells if c != top)
        hmap = SimplicialMap.from_vertex_map(
            cellbase.subcomplex(m_base, a), y.base, {"u0": "v0", "u1": "v1", "u2": "v2"}
        )
        res = strabundle.attach_bundle(y, m, a, hmap, {c: "e" for c in a})
        check = strabundle.pushout_universality_check(res.square)
        assert check.ok, check.witness

    def test_doubled_corner_fails_with_witness(self):
        sq = edge_attached_at_v0()
        extra_base = cellbase.complex_from_cells([("ghost", 0, [])])
        extra = strabundle.product_bundle(
            extra_base, cellbase.single_stratum(extra_base), sq.y.cat, sq.y.ff, "pt"
        )
        check = strabundle.pushout_universality_check(
            with_corner(sq, strabundle.disjoint_union_bundle(sq.z, extra))
        )
        assert not check.ok
        assert "ghost" in (check.witness or "")

    def test_corner_missing_a_leg_image_fails_with_witness(self):
        sq = edge_attached_at_v0()
        z = strabundle.restrict(sq.z, set(sq.z.base.cells) - {"u0.u1"})
        check = strabundle.pushout_universality_check(with_corner(sq, z))
        assert not check.ok
        assert "u0.u1" in (check.witness or "") and "not in the corner" in check.witness

    def test_corner_folding_the_edge_onto_the_circle_fails_with_witness(self):
        # the square commutes, but the comparison sends u0.u1 and v0.v1 to one cell
        sq = edge_attached_at_v0()
        y = sq.y
        fold = SimplicialMap(
            sq.m.base, y.base, {"u0": "v0", "u1": "v1"}, {"u0": "v0", "u1": "v1", "u0.u1": "v0.v1"}
        )
        char = strabundle.FBundleMap(sq.m, y, fold, {c: "e" for c in sq.m.base.cells})
        ident = strabundle.FBundleMap(
            y, y, cellbase.identity_map(y.base), {c: "e" for c in y.base.cells}
        )
        bad = strabundle.PushoutSquare(sq.a, sq.m, y, y, sq.incl_a, sq.h, char, ident)
        check = strabundle.pushout_universality_check(bad)
        assert (check.ok, check.witness) == (
            False, "canonical comparison is not injective near ('v0.v1', 'pt.0')"
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_generated_attachment_squares_pass(self, seed):
        spec = oracle.InstanceSpec(seed=seed)
        rng = oracle.SplitMix64(seed)
        cat, ff = oracle.gen_category(spec, rng)
        gen = oracle.gen_bundle(spec, cat, ff, rng)
        if gen.last_attachment is None:
            return
        check = strabundle.pushout_universality_check(gen.last_attachment.square)
        assert check.ok, check.witness


# the last attachment square of oracle seeds 1-200, one character per seed:
# "+" where a round attached and "-" where none did; every square passes
LAST_SQUARES = (
    "++++++++++++++++-++++++++---+-+++++++++-+++-++++++++++-+++++-+++++++++++++++++-+"
    "+-+++++++-++++++-+--+-+++++++++++-++++-++++++-+++-+++++++++++++++-++++-++-++++++"
    "-++++-++++++++++++++++++++++++++++++++++"
)


def test_last_attachment_squares_are_unchanged():
    seen = ""
    for seed in range(1, 201):
        _, _, _, gen = oracle._gen_instance(oracle.InstanceSpec(seed=seed))
        if gen.last_attachment is None:
            seen += "-"
            continue
        check = strabundle.pushout_universality_check(gen.last_attachment.square)
        assert (check.ok, check.witness) == (True, None), seed
        seen += "+"
    assert seen == LAST_SQUARES


def test_transition_path_composes_through_the_poset():
    x = corpus.disk_collapse_two_strata()
    tri = cellbase.simplex_name(["v0", "v1", "v2"])
    mid = strabundle.transition_path(x, tri, "v0")
    table = x.ff.on_morphisms[mid]
    assert set(table.values()) == {"n1.0"}


def test_to_faithful_rewrites_transitions():
    cat = fincat.category(
        ["X"],
        [("e", "X", "X"), ("g", "X", "X")],
        {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"},
        {"X": "e"},
    )
    ff = fincat.fibre_functor({"X": ["X.0"]}, {"e": {"X.0": "X.0"}, "g": {"X.0": "X.0"}})
    base, strat = corpus.c3()
    trans = {k: ("g" if i % 2 else "e") for i, k in enumerate(sorted(base.incidences))}
    x = StratBundle(base, strat, cat, ff, {c: "X" for c in base.cells}, trans)
    faithful, quotient = strabundle.to_faithful(x)
    assert quotient == {"e": "e", "g": "e"}
    assert strabundle.validate_bundle(faithful).ok
    assert all(m == "e" for m in faithful.transition.values())
