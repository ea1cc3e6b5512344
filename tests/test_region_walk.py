"""The in-place region walk against the per-region copies it replaced.

The ``_reference_*`` functions below are the earlier implementations: each
region is copied into a subcomplex, its incidence graph is rebuilt and
sorted per node, and every chart compatibility is composed afresh.  The
engine must give the same documents and the same error texts.
"""
import random
from functools import lru_cache
from pathlib import Path

import pytest
from conftest import build_torus, build_torus_cover, is_groupoid
from hypothesis import given, settings
from hypothesis import strategies as st

from stratabundle import cellbase, corpus, fincat, jsonio, oracle, strabundle, triviality
from stratabundle.validation import PreconditionError, StructureError

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_BUNDLES = sorted(
    p.stem for p in GOLDEN.glob("*.json") if jsonio.detect_kind(jsonio.read_doc(p)) == "bundle"
)
GOLDEN_BASES = sorted(
    p.stem
    for p in GOLDEN.glob("*.json")
    if jsonio.detect_kind(jsonio.read_doc(p)) in ("bundle", "complex")
)
ORACLE_SEEDS = range(200)


def _reference_bfs_tree(b):
    nodes = b.sorted_cells()
    if not nodes:
        return [], {}
    adj = {n: [] for n in nodes}
    for f, c in b.incidences:
        adj[f].append((c, (f, c)))
        adj[c].append((f, (f, c)))
    root = nodes[0]
    order = [root]
    parent = {root: None}
    for cur in order:
        for nxt, edge in sorted(adj[cur]):
            if nxt not in parent:
                parent[nxt] = (cur, edge)
                order.append(nxt)
    if len(order) != len(nodes):
        raise StructureError("incidence graph is disconnected")
    return order, parent


def _reference_closing(b, region):
    """The region's incidences that are not edges of its ``_reference_bfs_tree``, sorted."""
    sub = cellbase.subcomplex(b, region)
    _, parent = _reference_bfs_tree(sub)
    tree = {p[1] for p in parent.values() if p is not None}
    return sorted(set(sub.incidences) - tree)


def _reference_realize_total(x):
    elements = []
    for c in x.base.sorted_cells():
        for v in x.fibre_set(c):
            elements.append((c, v))
    relations = []
    for f, c in x.base.incidences:
        table = x.transition_table(f, c)
        for v in x.fibre_set(c):
            relations.append(((f, table[v]), (c, v)))
    return strabundle.TotalComplex(tuple(elements), tuple(sorted(relations)))


def _reference_inverse(x, mid, memo):
    if mid not in memo:
        memo[mid] = fincat.image_inverse(x.cat, x.ff, mid)
    return memo[mid]


def _reference_trivialize(x, region, memo):
    cells = sorted(set(region))
    if not cells:
        raise StructureError("region is empty")
    sub = cellbase.subcomplex(x.base, cells)
    inverses = {}
    for f, c in sub.incidences:
        mid = x.transition[(f, c)]
        inv = _reference_inverse(x, mid, memo)
        if inv is None:
            raise PreconditionError(
                f"transition ({f}, {c}) -> {mid} is not invertible over the region"
            )
        inverses[(f, c)] = inv
    order, parent = _reference_bfs_tree(sub)
    root = order[0]
    obj = x.fibre_obj[root]
    charts = {root: x.cat.identities[obj]}
    for nxt in order[1:]:
        cur, (f, c) = parent[nxt]
        if nxt == f:
            charts[nxt] = x.cat.compose(charts[cur], inverses[(f, c)])
        else:
            charts[nxt] = x.cat.compose(charts[cur], x.transition[(f, c)])
    tree = {parent[n][1] for n in order[1:]}
    for f, c in sub.incidences:
        if (f, c) in tree:
            continue
        lhs = fincat.compose_tables(x.ff.on_morphisms[charts[f]], x.transition_table(f, c))
        if lhs != x.ff.on_morphisms[charts[c]]:
            holonomy = x.cat.compose(
                x.cat.compose(charts[f], x.transition[(f, c)]),
                _reference_inverse(x, charts[c], memo),
            )
            obstruction = triviality.Obstruction(
                triviality._loop_through(parent, f, c),
                holonomy,
                f"incidence ({f}, {c}) closes a loop with non-identity holonomy {holonomy}",
            )
            return triviality.TrivializeResult(None, obstruction)
    return triviality.TrivializeResult(triviality.Trivialization(tuple(cells), obj, charts), None)


def _reference_certificate(x):
    fi = fincat.faithful_image(x.cat, x.ff)
    ok, witness = is_groupoid(fi.category)
    if not ok:
        raise PreconditionError(
            f"structure category is not a groupoid in its faithful image; witness {witness}"
        )
    stars = {}
    memo = {}
    for c in x.base.sorted_cells():
        res = _reference_trivialize(x, cellbase.star_cells(x.base, c), memo)
        if not res.ok:
            raise StructureError(
                f"closed star of {c} failed to trivialize: {res.obstruction.detail}; "
                "this contradicts coherence and indicates a defect in the bundle data"
            )
        stars[c] = res.trivialization
    return triviality.TrivialityCertificate(stars)


def _reference_covering_space(x):
    for (f, c), mid in sorted(x.transition.items()):
        if not fincat.is_bijective_table(x.ff.on_morphisms[mid], x.fibre_set(f)):
            raise PreconditionError(f"transition ({f}, {c}) -> {mid} is not a bijection")
    total = _reference_realize_total(x)
    base_nodes = x.base.sorted_cells()
    base_comps = cellbase.connected_components(base_nodes, list(x.base.incidences))
    sheets = {}
    for comp in base_comps:
        sizes = {len(x.fibre_set(c)) for c in comp}
        if len(sizes) != 1:
            raise StructureError(f"sheet count is not constant on component of {min(comp)}")
        sheets[min(comp)] = sizes.pop()
    total_comps = cellbase.connected_components(list(total.elements), list(total.relations))
    basepoint = base_nodes[0]
    monodromy = []
    if len(base_comps) == 1:
        order, parent = _reference_bfs_tree(x.base)
        transport = {basepoint: fincat.identity_table(x.fibre_set(basepoint))}
        for nxt in order[1:]:
            cur, (f, c) = parent[nxt]
            step = x.transition_table(f, c)
            if nxt == f:
                transport[nxt] = fincat.compose_tables(step, transport[cur])
            else:
                inv = {w: v for v, w in step.items()}
                transport[nxt] = fincat.compose_tables(inv, transport[cur])
        tree = {parent[n][1] for n in order[1:]}
        for f, c in x.base.incidences:
            if (f, c) in tree:
                continue
            back = {w: v for v, w in transport[f].items()}
            perm = fincat.compose_tables(
                back, fincat.compose_tables(x.transition_table(f, c), transport[c])
            )
            monodromy.append(
                triviality.MonodromyEntry((f, c), perm, triviality.permutation_cycle_type(perm))
            )
    return triviality.CoveringCertificate(
        total, len(total_comps), sheets, True, basepoint, monodromy
    )


def _reference_coherence(x):
    table = x.transition_table
    out = []
    for c in x.base.sorted_cells():
        faces = x.base.cells[c].faces
        for i, a in enumerate(faces):
            for b in faces[i + 1 :]:
                common = set(x.base.cells[a].faces) & set(x.base.cells[b].faces)
                for g in sorted(common):
                    via_a = fincat.compose_tables(table(g, a), table(a, c))
                    via_b = fincat.compose_tables(table(g, b), table(b, c))
                    if via_a != via_b:
                        out.append(f"descents {c} -> {a} -> {g} and {c} -> {b} -> {g} disagree")
    return out


def _trivialize_doc(res):
    if res.ok:
        t = res.trivialization
        charts = dict(sorted(t.charts.items()))
        return {"region": list(t.region), "object": t.object, "charts": charts}
    o = res.obstruction
    return {"loop": list(o.loop), "holonomy": o.holonomy, "detail": o.detail}


def _outcome(fn):
    """Canonical bytes of the document ``fn()`` returns, or the type and text of its error."""
    try:
        return jsonio.canon_dumps(fn())
    except (StructureError, PreconditionError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_same_as_reference(x, regions=()):
    assert _outcome(lambda: jsonio.certificate_to_doc(triviality.local_triviality_certificate(x))) == _outcome(
        lambda: jsonio.certificate_to_doc(_reference_certificate(x))
    )
    assert _outcome(lambda: jsonio.covering_to_doc(triviality.covering_space(x))) == _outcome(
        lambda: jsonio.covering_to_doc(_reference_covering_space(x))
    )
    for region in [set(x.base.cells), *regions]:
        assert _outcome(lambda: _trivialize_doc(triviality.trivialize_over(x, region))) == _outcome(
            lambda: _trivialize_doc(_reference_trivialize(x, region, {}))
        )


@lru_cache(maxsize=None)
def _golden_bundle(name):
    return jsonio.bundle_from_doc(jsonio.read_doc(GOLDEN / f"{name}.json"))


@lru_cache(maxsize=None)
def _base(case):
    if isinstance(case, int):
        return build_torus(case)[0]
    doc = jsonio.read_doc(GOLDEN / f"{case}.json")
    if jsonio.detect_kind(doc) == "complex":
        return jsonio.complex_from_doc(doc)[0]
    return jsonio.bundle_from_doc(doc).base


@st.composite
def regions(draw):
    """A base, and a union of closed stars and face closures of some of its cells."""
    case = draw(st.sampled_from([*GOLDEN_BASES, 15]))
    b = _base(case)
    cells = b.sorted_cells()
    part = st.tuples(st.sampled_from(["star", "below"]), st.sampled_from(cells))
    parts = draw(st.lists(part, min_size=1, max_size=3))
    region = set()
    for kind, c in parts:
        region |= cellbase.star_cells(b, c) if kind == "star" else b.below[c]
    return b, region


class TestBfsTreeOverARegion:
    @settings(max_examples=200, deadline=None)
    @given(regions())
    def test_equals_the_tree_of_the_subcomplex(self, case):
        b, region = case
        copy = cellbase.subcomplex(b, region)
        walk = cellbase.region_walk(b, region)[:2]
        assert walk == cellbase.region_walk(copy)[:2]
        # a union of stars and closures may be disconnected: then the walk
        # misses cells, and the reference raises
        reference = _outcome(lambda: list(_reference_bfs_tree(copy)))
        if len(walk[0]) == len(region):
            assert reference == _outcome(lambda: list(walk))
        else:
            assert reference == "StructureError: incidence graph is disconnected"

    @pytest.mark.parametrize("case", [*GOLDEN_BASES, 15])
    def test_every_star(self, case):
        b = _base(case)
        for c in b.sorted_cells():
            star = cellbase.star_cells(b, c)
            walk = cellbase.region_walk(b, star)[:2]
            assert walk == _reference_bfs_tree(cellbase.subcomplex(b, star))

    @pytest.mark.parametrize("case", [*GOLDEN_BASES, 15])
    def test_whole_complex(self, case):
        b = _base(case)
        assert cellbase.region_walk(b)[:2] == _reference_bfs_tree(b)

    @pytest.mark.parametrize("case", [*GOLDEN_BASES, 15])
    def test_stars_are_face_closed(self, case):
        # the certificate walks stars without the region checks of trivialize_over
        b = _base(case)
        assert all(cellbase.is_face_closed(b, cellbase.star_cells(b, c)) for c in b.cells)


def _assert_closing_incidences(b, region):
    order, parent, closing = cellbase.region_walk(b, region)
    incidences = [(f, c) for c in region for f in b.cells[c].faces]
    # each listed once, and as many as the region has independent cycles
    assert len(closing) == len(set(closing)) == len(incidences) - len(region) + 1
    assert sorted(closing) == _reference_closing(b, region)
    assert len(order) == len(region)  # connected: the walk reaches every cell


class TestClosingIncidences:
    @settings(max_examples=200, deadline=None)
    @given(regions())
    def test_are_the_non_tree_incidences_of_a_region(self, case):
        b, region = case
        # a union of stars and closures may be disconnected, and its walk stops
        # at the component of the least cell
        walk = cellbase.region_walk(b, region)
        assert cellbase.region_walk(b, set(walk[0])) == walk
        _assert_closing_incidences(b, set(walk[0]))

    @pytest.mark.parametrize("case", [*GOLDEN_BASES, 15])
    def test_every_star(self, case):
        b = _base(case)
        for c in b.sorted_cells():
            _assert_closing_incidences(b, cellbase.star_cells(b, c))

    @pytest.mark.parametrize("case", [*GOLDEN_BASES, 15])
    def test_whole_complex(self, case):
        b = _base(case)
        _assert_closing_incidences(b, set(b.cells))

    def test_a_disconnected_walk_keeps_to_the_least_component(self):
        b = cellbase.disjoint_union(cellbase.cycle_complex(3, "a"), cellbase.cycle_complex(4, "b"))
        order, parent, closing = cellbase.region_walk(b)
        assert sorted(order) == sorted(c for c in b.cells if c.startswith("a"))
        assert closing == [("a2", "a1.a2")]
        with pytest.raises(StructureError, match="incidence graph is disconnected"):
            cellbase.poset_spanning_tree(b)


def _with_a_second_copy(x):
    """``x`` beside a relabelled copy of itself: a bundle over a disconnected base."""
    return strabundle.disjoint_union_bundle(x, strabundle.relabel_bundle(x, lambda c: f"z{c}"))


def _covering_instances():
    for seed in ORACLE_SEEDS:
        spec = oracle.InstanceSpec(seed=seed, groupoid_only=seed % 2 == 0)
        yield oracle._gen_instance(spec)[3].bundle
    for name in GOLDEN_BUNDLES:
        yield _golden_bundle(name)
        yield _with_a_second_copy(_golden_bundle(name))


class TestCoveringAgainstUnionFind:
    def test_components_are_the_components_of_the_total_space(self):
        seen = set()
        for x in _covering_instances():
            try:
                cert = triviality.covering_space(x)
            except PreconditionError:
                continue
            total = _reference_realize_total(x)
            groups = cellbase.connected_components(list(total.elements), list(total.relations))
            assert cert.components == len(groups)
            base = cellbase.connected_components(x.base.sorted_cells(), list(x.base.incidences))
            seen.add((len(base) > 1, cert.components > 1))
        # orbit counts over connected bases and union-find over disconnected
        # ones were both compared, with one and with several components
        assert seen == {(False, False), (False, True), (True, True)}

    def test_realize_total_equals_the_global_sort(self):
        for x in _covering_instances():
            assert strabundle.realize_total(x) == _reference_realize_total(x)

    @pytest.mark.parametrize("n", [9, 15])
    def test_torus_cover_realize_total(self, n):
        x = build_torus_cover(n)
        assert strabundle.realize_total(x) == _reference_realize_total(x)


class TestDocumentsMatchTheReference:
    @pytest.mark.parametrize("name", GOLDEN_BUNDLES)
    def test_golden_bundles(self, name):
        x = _golden_bundle(name)
        _assert_same_as_reference(x, [cellbase.star_cells(x.base, c) for c in x.base.cells])

    @pytest.mark.parametrize("n", [9, 15])
    def test_torus_cover(self, n):
        x = build_torus_cover(n)
        stars = [cellbase.star_cells(x.base, c) for c in x.base.sorted_cells()[:: n + 1]]
        _assert_same_as_reference(x, stars)

    def test_oracle_instances(self):
        kinds = set()
        for seed in ORACLE_SEEDS:
            spec = oracle.InstanceSpec(seed=seed, groupoid_only=seed % 2 == 0)
            _, _, _, gen = oracle._gen_instance(spec)
            x = gen.bundle
            _assert_same_as_reference(x)
            outcome = _outcome(lambda: jsonio.certificate_to_doc(triviality.local_triviality_certificate(x)))
            kinds.add(outcome.split(":")[0] if outcome.startswith("Precondition") else "atlas")
        # both certified atlases and refusals were compared
        assert kinds == {"atlas", "PreconditionError"}

    @pytest.mark.parametrize("region, message", [
        ([], "region is empty"),
        (["v0", "nowhere"], "unknown cells ['nowhere']"),
        (["v0.v1"], "cell set is not closed under faces"),
    ])
    def test_refused_regions(self, region, message):
        x = corpus.double_cover_c3()
        with pytest.raises(StructureError, match=message.replace("[", r"\[")):
            triviality.trivialize_over(x, region)
        with pytest.raises(StructureError, match=message.replace("[", r"\[")):
            _reference_trivialize(x, region, {})


class TestBrokenBundles:
    def test_broken_coherence_square_raises_the_same_error(self):
        x = build_torus_cover(3)
        key = next((f, c) for f, c in sorted(x.transition) if x.base.cells[c].dim == 2)
        swap = {"p2:01": "p2:10", "p2:10": "p2:01"}
        x.transition[key] = swap[x.transition[key]]
        assert "coherence" in {v.code for v in strabundle.validate_bundle(x).violations}
        engine = _outcome(lambda: jsonio.certificate_to_doc(triviality.local_triviality_certificate(x)))
        assert engine == _outcome(lambda: jsonio.certificate_to_doc(_reference_certificate(x)))
        assert engine.startswith("StructureError: closed star of ")
        assert "failed to trivialize" in engine

    @pytest.mark.parametrize("flips", [1, 5, 40])
    def test_coherence_violations_match_the_reference(self, flips):
        x = build_torus_cover(6)
        swap = {"p2:01": "p2:10", "p2:10": "p2:01"}
        keys = sorted(x.transition)
        for key in random.Random(flips).sample(keys, flips):
            x.transition[key] = swap[x.transition[key]]
        rep = strabundle.validate_bundle(x)
        found = [v.detail for v in rep.violations if v.code == "coherence"]
        assert found == _reference_coherence(x) != []

    def test_non_invertible_transition_raises_the_same_error(self):
        x = corpus.disk_collapse_two_strata()
        whole = set(x.base.cells)
        engine = _outcome(lambda: _trivialize_doc(triviality.trivialize_over(x, whole)))
        assert engine == _outcome(lambda: _trivialize_doc(_reference_trivialize(x, whole, {})))
        assert engine.startswith("PreconditionError: transition (")
        assert engine.endswith("is not invertible over the region")
        _assert_same_as_reference(x)
