import hashlib
import json
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratabundle import cellbase, corpus, jsonio, oracle
from stratabundle.cellbase import SimplicialMap, Stratification
from stratabundle.validation import StructureError


def test_c3_single_stratum_is_valid():
    b, s = corpus.c3()
    assert cellbase.validate_complex(b, s).ok
    assert b.is_simplicial
    assert len(b.cells) == 6


def test_closure_violation_is_named():
    b, _ = corpus.c3()
    s = Stratification({c: 0 for c in b.cells})
    s.strata["v0"] = 1  # an endpoint above its edge
    s.strata["v0.v1"] = 1
    s.strata["v1"] = 1
    rep = cellbase.validate_complex(b, s)
    assert not rep.ok
    assert any(v.code == "stratum-closure" for v in rep.violations)


@pytest.mark.parametrize("dims", [(1, 1), (1, 0)])
def test_face_cycle_is_a_dimension_violation(dims):
    # a face cycle cannot keep every face one dimension below its cell
    b = cellbase.BaseComplex({
        "a": cellbase.Cell("a", dims[0], ("b",)),
        "b": cellbase.Cell("b", dims[1], ("a",)),
    })
    rep = cellbase.validate_complex(b, Stratification({"a": 0, "b": 0}))
    assert [v.code for v in rep.violations][:1] == ["face-dimension"]
    assert "face-cycle" not in {v.code for v in rep.violations}
    with pytest.raises(StructureError, match="cycle"):
        b.below


def recursive_face_closure(cells):
    """The face closure as a recursive walk: the reference for ``BaseComplex.below``."""
    memo, in_progress = {}, set()

    def walk(c):
        if c in memo:
            return memo[c]
        if c in in_progress:
            raise StructureError(f"face relation has a cycle through {c}")
        if c not in cells:
            raise StructureError(f"unknown face {c}")
        in_progress.add(c)
        acc = {c}
        for f in cells[c].faces:
            acc |= walk(f)
        in_progress.discard(c)
        memo[c] = frozenset(acc)
        return memo[c]

    for c in cells:
        walk(c)
    return memo


def closure_outcome(closure, cells):
    try:
        return list(closure(cells).items())
    except StructureError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_below_matches_the_recursive_walk(data):
    # the same closures stored in the same order, and the same cell named
    # when the walk meets a face cycle or an unknown face
    n = data.draw(st.integers(1, 8))
    names = data.draw(st.permutations([f"c{i}" for i in range(n)]))
    acyclic = data.draw(st.booleans())
    cells = {}
    for i, c in enumerate(names):
        pool = names[:i] if acyclic else [*names, "zz"]
        faces = data.draw(st.lists(st.sampled_from(pool), max_size=3)) if pool else []
        cells[c] = cellbase.Cell(c, 0, tuple(sorted(set(faces))))
    expected = closure_outcome(recursive_face_closure, cells)
    assert closure_outcome(lambda cells: cellbase.BaseComplex(cells).below, cells) == expected


def test_below_walks_a_face_chain_deeper_than_the_recursion_limit():
    # listed top cell first, so the walk has to descend the whole chain at once
    n = 1500
    b = cellbase.BaseComplex({
        f"c{i}": cellbase.Cell(f"c{i}", i, (f"c{i - 1}",) if i else ()) for i in reversed(range(n))
    })
    assert len(b.below[f"c{n - 1}"]) == n


@pytest.mark.parametrize("faces, error", [
    (None, None),
    ({"a": ("b",), "b": ("a",)}, "face relation has a cycle through a"),
    ({"a": ("z",)}, "unknown face z"),
], ids=["c3", "face-cycle", "unknown-face"])
def test_a_walked_complex_is_freed_by_reference_counting(collector_off, faces, error):
    # a face walk that left a reference cycle would keep the complex, its
    # cells and its closures alive until the cyclic collector ran
    if faces is None:
        b = corpus.c3()[0]
    else:
        b = cellbase.BaseComplex({c: cellbase.Cell(c, 0, fs) for c, fs in faces.items()})
    try:
        b.below
        raised = None
    except StructureError as exc:
        raised = str(exc)
    assert raised == error
    ref = weakref.ref(b)
    del b
    assert ref() is None


def test_two_stratum_disk_is_valid():
    b, s = corpus.fan_disk()
    assert cellbase.validate_complex(b, s).ok
    assert s.depth == 1


def test_stratum_gap_is_reported():
    b, _ = corpus.c3()
    rep = cellbase.validate_complex(b, Stratification({c: 2 * 0 for c in b.cells}))
    assert rep.ok
    bad = {c: 0 for c in b.cells}
    bad["v0.v1"] = 2  # skips stratum 1
    rep = cellbase.validate_complex(b, Stratification(bad))
    assert any(v.code == "stratum-gap" for v in rep.violations)


class TestClosedStar:
    """The closed star of c is ``subcomplex(b, star_cells(b, c))``."""

    def test_vertex_star_in_circle(self):
        b, _ = corpus.c3()
        star = cellbase.subcomplex(b, cellbase.star_cells(b, "v0"))
        assert set(star.cells) == {"v0", "v1", "v2", "v0.v1", "v0.v2"}

    def test_top_cell_star_is_its_closure(self):
        b, _ = corpus.fan_disk()
        top = cellbase.simplex_name(["v0", "v1", "w"])
        star = cellbase.subcomplex(b, cellbase.star_cells(b, top))
        assert set(star.cells) == set(b.below[top])

    def test_single_vertex(self):
        b = cellbase.complex_from_cells([("p", 0, [])])
        star = cellbase.subcomplex(b, cellbase.star_cells(b, "p"))
        assert set(star.cells) == {"p"}

    def test_star_is_face_closed_and_contains_the_cell(self):
        b, _ = corpus.fan_disk()
        for c in b.cells:
            star = cellbase.subcomplex(b, cellbase.star_cells(b, c))
            assert c in star.cells
            assert cellbase.is_face_closed(b, set(star.cells))


class TestSpanningTree:
    def test_tree_size_is_cells_minus_one(self):
        b, _ = corpus.c3()
        star = cellbase.subcomplex(b, cellbase.star_cells(b, "v0"))
        tree = cellbase.poset_spanning_tree(star)
        assert len(tree) == len(star.cells) - 1

    def test_single_cell_tree_is_empty(self):
        b = cellbase.complex_from_cells([("p", 0, [])])
        assert cellbase.poset_spanning_tree(b) == []

    def test_circle_tree_has_five_edges(self):
        b, _ = corpus.c3()
        assert len(b.incidences) == 6
        assert len(cellbase.poset_spanning_tree(b)) == 5

    def test_disconnected_is_rejected(self):
        b = cellbase.complex_from_cells([("p", 0, []), ("q", 0, [])])
        with pytest.raises(StructureError):
            cellbase.poset_spanning_tree(b)

    def test_deterministic(self):
        b, _ = corpus.fan_disk()
        assert cellbase.poset_spanning_tree(b) == cellbase.poset_spanning_tree(b)


GOLDEN = Path(__file__).resolve().parent / "golden"

# poset_spanning_tree of each golden base, recorded before it moved onto the shared walk
C3_TREE = [
    ("v0", "v0.v1"), ("v0", "v0.v2"), ("v1", "v0.v1"), ("v2", "v0.v2"), ("v1", "v1.v2"),
]
GOLDEN_TREES = {
    "bz2_double_cover_c3": C3_TREE,
    "c3_complex": C3_TREE,
    "c6_complex": [
        ("u0", "u0.u1"), ("u0", "u0.u5"), ("u1", "u0.u1"), ("u5", "u0.u5"), ("u1", "u1.u2"),
        ("u5", "u4.u5"), ("u2", "u1.u2"), ("u4", "u4.u5"), ("u2", "u2.u3"), ("u4", "u3.u4"),
        ("u3", "u2.u3"),
    ],
    "disk_collapse_two_strata": [
        ("v0", "v0.v1"), ("v0", "v0.v2"), ("v0.v1", "v0.v1.v2"), ("v1", "v0.v1"),
        ("v2", "v0.v2"), ("v1.v2", "v0.v1.v2"),
    ],
    "disk_trivial_two_strata": [
        ("v0.v1", "u0.u1.u2"), ("v0.v2", "u0.u1.u2"), ("v1.v2", "u0.u1.u2"),
        ("v0", "v0.v1"), ("v1", "v0.v1"), ("v2", "v0.v2"),
    ],
    "double_cover_c3": C3_TREE,
    "fan_disk_complex": [
        ("v0", "v0.v1"), ("v0", "v0.v2"), ("v0", "v0.w"), ("v0.v1", "v0.v1.w"),
        ("v1", "v0.v1"), ("v0.v2", "v0.v2.w"), ("v2", "v0.v2"), ("w", "v0.w"),
        ("v1.w", "v0.v1.w"), ("v1", "v1.v2"), ("v2.w", "v0.v2.w"), ("v1.w", "v1.v2.w"),
    ],
    "orbit_free_bundle_c3": C3_TREE,
    "product_bundle_c3": C3_TREE,
    "triple_cover_c3": C3_TREE,
    "trivial_two_sheets_c3": C3_TREE,
}
# sha256 of json.dumps of the tree as a list of [face, cell] lists
TORUS_TREE_SHA256 = {
    3: "1b33edc191e4387e",
    6: "04e9a0f06fd981c9",
}


def golden_base(name):
    doc = jsonio.read_doc(GOLDEN / f"{name}.json")
    if jsonio.detect_kind(doc) == "complex":
        return jsonio.complex_from_doc(doc)[0]
    return jsonio.bundle_from_doc(doc).base


def kernel_cases():
    return [pytest.param(name, id=name) for name in GOLDEN_TREES] + [
        pytest.param(n, id=f"torus{n}") for n in TORUS_TREE_SHA256
    ]


def kernel_base(case, torus):
    return torus(case)[0] if isinstance(case, int) else golden_base(case)


class TestBfsTree:
    def test_every_golden_base_is_covered(self):
        bases = []
        for path in sorted(GOLDEN.glob("*.json")):
            if jsonio.detect_kind(jsonio.read_doc(path)) in ("complex", "bundle"):
                bases.append(path.stem)
        assert bases == sorted(GOLDEN_TREES)

    @pytest.mark.parametrize("case", kernel_cases())
    def test_visits_every_cell_once(self, case, torus):
        b = kernel_base(case, torus)
        order, parent, _ = cellbase.region_walk(b)
        assert len(order) == len(set(order)) == len(b.cells)
        assert set(order) == set(parent) == set(b.cells)
        assert order[0] == min(b.cells)

    @pytest.mark.parametrize("case", kernel_cases())
    def test_parent_edges_form_a_tree(self, case, torus):
        b = kernel_base(case, torus)
        order, parent, _ = cellbase.region_walk(b)
        position = {c: i for i, c in enumerate(order)}
        incidences = set(b.incidences)
        assert parent[order[0]] is None
        for c in order[1:]:
            prev, edge = parent[c]
            assert edge in incidences
            assert set(edge) == {prev, c}
            # parents come earlier in the order, so every path climbs to the root
            assert position[prev] < position[c]

    @pytest.mark.parametrize("case", kernel_cases())
    def test_spanning_tree_is_unchanged(self, case, torus):
        tree = cellbase.poset_spanning_tree(kernel_base(case, torus))
        if isinstance(case, int):
            digest = hashlib.sha256(json.dumps([list(e) for e in tree]).encode()).hexdigest()
            assert digest.startswith(TORUS_TREE_SHA256[case])
        else:
            assert tree == GOLDEN_TREES[case]

    def test_disconnected_is_rejected(self, torus):
        with pytest.raises(StructureError):
            cellbase.poset_spanning_tree(
                cellbase.complex_from_cells([("p", 0, []), ("q", 0, [])])
            )
        b = torus(3)[0]
        two = cellbase.disjoint_union(b, cellbase.relabel_complex(b, lambda c: "s" + c))
        with pytest.raises(StructureError):
            cellbase.poset_spanning_tree(two)

    def test_empty_complex_has_empty_tree(self):
        assert cellbase.region_walk(cellbase.BaseComplex({})) == ([], {}, [])
        assert cellbase.poset_spanning_tree(cellbase.BaseComplex({})) == []


class TestUnionFind:
    def test_groups_are_ordered_by_the_root_of_the_later_node(self):
        # union(a, b) links a under b, so V0~V2 is rooted at V2 and comes
        # after V1; the generators' class choice depends on this order
        comps = cellbase.connected_components(["V0", "V1", "V2"], [("V0", "V2")])
        assert comps == [{"V1"}, {"V0", "V2"}]

    def test_find_unions_transitively(self):
        uf = cellbase.UnionFind(range(6))
        for a, b in [(0, 3), (3, 5), (1, 4)]:
            uf.union(a, b)
        assert uf.find(0) == uf.find(5) != uf.find(1)
        assert uf.groups() == [{2}, {1, 4}, {0, 3, 5}]


class TestAttachBase:
    def test_triangle_onto_circle_gives_two_stratum_disk(self):
        y, ys = corpus.c3()
        m = cellbase.simplex_complex(["u0", "u1", "u2"])
        top = cellbase.simplex_name(["u0", "u1", "u2"])
        a = frozenset(c for c in m.cells if c != top)
        h = SimplicialMap.from_vertex_map(
            cellbase.subcomplex(m, a), y, {"u0": "v0", "u1": "v1", "u2": "v2"}
        )
        res = cellbase.attach_base(y, ys, m, a, h)
        assert cellbase.validate_complex(res.complex, res.strat).ok
        assert res.new_cells == {top}
        assert res.strat.strata[top] == 1
        assert res.complex.is_simplicial

    def test_empty_attachment_is_disjoint_union(self):
        y, ys = corpus.c3()
        m = cellbase.simplex_complex(["u0", "u1"])
        h = SimplicialMap(cellbase.subcomplex(m, frozenset()), y, {}, {})
        res = cellbase.attach_base(y, ys, m, frozenset(), h)
        assert set(res.complex.cells) == set(y.cells) | set(m.cells)
        assert all(res.strat.strata[c] == 1 for c in m.cells)

    def test_interval_on_one_point_gives_delta_circle(self):
        y = cellbase.complex_from_cells([("p", 0, [])])
        ys = cellbase.single_stratum(y)
        m = cellbase.simplex_complex(["q0", "q1"])
        a = frozenset({"q0", "q1"})
        h = SimplicialMap.from_vertex_map(
            cellbase.subcomplex(m, a), y, {"q0": "p", "q1": "p"}
        )
        res = cellbase.attach_base(y, ys, m, a, h)
        cells = res.complex.cells
        assert len(cells) == 2
        edge = cellbase.simplex_name(["q0", "q1"])
        assert cells[edge].faces == ("p",)
        assert not res.complex.is_simplicial  # one vertex under a 1-cell

    def test_boundary_collapse_is_rejected(self):
        # gluing a triangle edge onto a vertex would drop its dimension
        y = cellbase.complex_from_cells([("p", 0, [])])
        ys = cellbase.single_stratum(y)
        m = cellbase.simplex_complex(["q0", "q1", "q2"])
        a = frozenset(m.below[cellbase.simplex_name(["q0", "q1"])])
        h = SimplicialMap.from_vertex_map(
            cellbase.subcomplex(m, a), y, {"q0": "p", "q1": "p"}
        )
        with pytest.raises(StructureError):
            cellbase.attach_base(y, ys, m, a, h)

    def test_inclusion_is_stratum_preserving_on_old_cells(self):
        y, ys = corpus.c3()
        m = cellbase.simplex_complex(["u0", "u1"])
        a = frozenset({"u0"})
        h = SimplicialMap.from_vertex_map(cellbase.subcomplex(m, a), y, {"u0": "v1"})
        res = cellbase.attach_base(y, ys, m, a, h)
        ok, _ = cellbase.stratum_preserving(res.incl_map, ys, res.strat)
        assert ok


class TestSimplicialMap:
    def test_fold_is_valid_and_stratum_preserving(self):
        smap, strat = corpus.c6_fold_map()
        assert cellbase.validate_simplicial_map(smap).ok
        tgt_strat = corpus.c3()[1]
        ok, _ = cellbase.stratum_preserving(smap, strat, tgt_strat)
        assert ok

    def test_image_must_span(self):
        b, _ = corpus.c3()
        other = cellbase.complex_from_cells([("p", 0, []), ("q", 0, [])])
        with pytest.raises(StructureError):
            SimplicialMap.from_vertex_map(b, other, {"v0": "p", "v1": "q", "v2": "p"})

    def test_composition_preserves_strata(self):
        smap, strat = corpus.c6_fold_map()
        tgt, tgt_strat = corpus.c3()
        rot = SimplicialMap.from_vertex_map(tgt, tgt, {"v0": "v1", "v1": "v2", "v2": "v0"})
        for outer in [cellbase.identity_map(tgt), rot]:
            comp = SimplicialMap.from_vertex_map(
                smap.source, tgt, {v: outer.vertex_map[w] for v, w in smap.vertex_map.items()}
            )
            assert comp.cell_map == {c: outer.cell_map[d] for c, d in smap.cell_map.items()}
            assert cellbase.validate_simplicial_map(comp).ok
            ok, _ = cellbase.stratum_preserving(comp, strat, tgt_strat)
            assert ok


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_bases_validate(seed):
    spec = oracle.InstanceSpec(seed=seed)
    rng = oracle.SplitMix64(seed)
    gb = oracle.gen_base(spec, rng)
    assert cellbase.validate_complex(gb.complex, gb.strat).ok
    assert len(gb.complex.cells) <= spec.max_cells
    assert gb.complex.is_simplicial
