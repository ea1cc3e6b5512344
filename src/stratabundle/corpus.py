"""Named example categories, complexes and bundles.

These are the hand-checkable instances used by the golden tests and the
``example`` CLI subcommand: covers of the triangulated circle, two-stratum
disks, an orbit-category toy and the transport demo that kills a cover's
monodromy.  Builders return live objects; ``example_doc`` serializes them.
"""
from __future__ import annotations

from itertools import permutations, product

from . import cellbase, fincat, jsonio, strabundle
from .cellbase import BaseComplex, SimplicialMap, Stratification
from .fincat import CatFunctor, FibreFunctor, FiniteCategory
from .strabundle import StratBundle
from .validation import StructureError


def perm_category(max_n: int = 3) -> tuple[FiniteCategory, FibreFunctor]:
    """Finite sets of sizes 1..max_n with bijections; the tautological fibres."""
    elems = {f"set{k}": tuple(f"set{k}.{i}" for i in range(k)) for k in range(1, max_n + 1)}
    morphisms = []
    actions = {}
    for k in range(1, max_n + 1):
        obj = f"set{k}"
        for perm in permutations(range(k)):
            mid = f"p{k}:" + "".join(str(i) for i in perm)
            morphisms.append((mid, obj, obj))
            actions[mid] = {elems[obj][i]: elems[obj][perm[i]] for i in range(k)}
    return fincat.concrete_category(elems, morphisms, actions)


def finset_category(sizes=(1, 2)) -> tuple[FiniteCategory, FibreFunctor]:
    """Finite sets with every function between them."""
    elems = {f"n{k}": tuple(f"n{k}.{i}" for i in range(k)) for k in sizes}
    morphisms = []
    actions = {}
    for a in sizes:
        for b in sizes:
            src, tgt = f"n{a}", f"n{b}"
            for images in product(range(b), repeat=a):
                mid = f"f:{src}>{tgt}:" + "".join(str(i) for i in images)
                morphisms.append((mid, src, tgt))
                actions[mid] = {elems[src][i]: elems[tgt][images[i]] for i in range(a)}
    return fincat.concrete_category(elems, morphisms, actions)


def bz2_category() -> tuple[FiniteCategory, FibreFunctor]:
    """One object with an involution acting as the swap of a two-point set."""
    cat = fincat.category(
        ["pt"],
        [("e", "pt", "pt"), ("g", "pt", "pt")],
        {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"},
        {"pt": "e"},
    )
    ff = fincat.fibre_functor(
        {"pt": ["pt.0", "pt.1"]},
        {"e": {"pt.0": "pt.0", "pt.1": "pt.1"}, "g": {"pt.0": "pt.1", "pt.1": "pt.0"}},
    )
    return cat, ff


def orbit_z2_category() -> tuple[FiniteCategory, FibreFunctor]:
    """Orbits of the two-element group: the free orbit and the fixed point.

    The projection from the free orbit has no inverse, so this category is
    not a groupoid.
    """
    cat = fincat.category(
        ["GG", "Ge"],
        [("e", "Ge", "Ge"), ("g", "Ge", "Ge"), ("q", "Ge", "GG"), ("u", "GG", "GG")],
        {
            ("e", "e"): "e",
            ("e", "g"): "g",
            ("g", "e"): "g",
            ("g", "g"): "e",
            ("q", "e"): "q",
            ("q", "g"): "q",
            ("u", "q"): "q",
            ("u", "u"): "u",
        },
        {"Ge": "e", "GG": "u"},
    )
    ff = fincat.fibre_functor(
        {"Ge": ["Ge.0", "Ge.1"], "GG": ["GG.0"]},
        {
            "e": {"Ge.0": "Ge.0", "Ge.1": "Ge.1"},
            "g": {"Ge.0": "Ge.1", "Ge.1": "Ge.0"},
            "q": {"Ge.0": "GG.0", "Ge.1": "GG.0"},
            "u": {"GG.0": "GG.0"},
        },
    )
    return cat, ff


def c3() -> tuple[BaseComplex, Stratification]:
    b = cellbase.cycle_complex(3)
    return b, cellbase.single_stratum(b)


def c6() -> tuple[BaseComplex, Stratification]:
    b = cellbase.cycle_complex(6, prefix="u")
    return b, cellbase.single_stratum(b)


def c6_fold_map() -> tuple[SimplicialMap, Stratification]:
    """Fold of the six-vertex circle onto the three-vertex one.

    Even vertices land on the matching circle vertices, odd ones on the
    next; every other edge collapses, so the image cycle is traversed once.
    """
    src, src_strat = c6()
    tgt, _ = c3()
    vm = {"u0": "v0", "u1": "v1", "u2": "v1", "u3": "v2", "u4": "v2", "u5": "v0"}
    return SimplicialMap.from_vertex_map(src, tgt, vm), src_strat


def fan_disk() -> tuple[BaseComplex, Stratification]:
    """Disk with interior vertex: the circle is stratum 0, the cone stratum 1."""
    entries = [("v0", 0, []), ("v1", 0, []), ("v2", 0, []), ("w", 0, [])]
    for a, b in [("v0", "v1"), ("v1", "v2"), ("v0", "v2")]:
        entries.append((cellbase.simplex_name([a, b]), 1, [a, b]))
    for v in ["v0", "v1", "v2"]:
        entries.append((cellbase.simplex_name([v, "w"]), 1, [v, "w"]))
    for a, b in [("v0", "v1"), ("v1", "v2"), ("v0", "v2")]:
        tri = cellbase.simplex_name([a, b, "w"])
        faces = [
            cellbase.simplex_name([a, b]),
            cellbase.simplex_name([a, "w"]),
            cellbase.simplex_name([b, "w"]),
        ]
        entries.append((tri, 2, faces))
    b = cellbase.complex_from_cells(entries)
    strata = {c: (0 if "w" not in c else 1) for c in b.cells}
    return b, Stratification(strata)


def _cover_over_c3(cat, ff, fibre: str, twisted: str, plain: str) -> StratBundle:
    base, strat = c3()
    transition = {}
    for f, c in base.incidences:
        transition[(f, c)] = twisted if (f, c) == ("v0", "v0.v2") else plain
    return StratBundle(base, strat, cat, ff, {c: fibre for c in base.cells}, transition)


def product_bundle_c3() -> StratBundle:
    cat, ff = perm_category(2)
    base, strat = c3()
    return strabundle.product_bundle(base, strat, cat, ff, "set2")


def double_cover_c3() -> StratBundle:
    cat, ff = perm_category(2)
    return _cover_over_c3(cat, ff, "set2", "p2:10", "p2:01")


def triple_cover_c3() -> StratBundle:
    cat, ff = perm_category(3)
    return _cover_over_c3(cat, ff, "set3", "p3:120", "p3:012")


def trivial_two_sheets_c3() -> StratBundle:
    cat, ff = bz2_category()
    base, strat = c3()
    return strabundle.product_bundle(base, strat, cat, ff, "pt")


def bz2_double_cover_c3() -> StratBundle:
    cat, ff = bz2_category()
    return _cover_over_c3(cat, ff, "pt", "g", "e")


def orbit_free_bundle_c3() -> StratBundle:
    cat, ff = orbit_z2_category()
    return _cover_over_c3(cat, ff, "Ge", "g", "e")


def disk_collapse_two_strata() -> StratBundle:
    """Two-stratum disk whose interior fibre collapses onto the boundary one."""
    cat, ff = finset_category((1, 2))
    base, strat = c3()
    tri = cellbase.simplex_name(["v0", "v1", "v2"])
    cells = dict(base.cells)
    edges = tuple(sorted(c for c in base.cells if base.cells[c].dim == 1))
    cells[tri] = cellbase.Cell(tri, 2, edges)
    full = BaseComplex(cells)
    strata = dict(strat.strata)
    strata[tri] = 1
    fibre_obj = {c: "n1" for c in base.cells}
    fibre_obj[tri] = "n2"
    transition = {}
    for f, c in full.incidences:
        if c == tri:
            transition[(f, c)] = "f:n2>n1:00"
        else:
            transition[(f, c)] = "f:n1>n1:0"
    return StratBundle(full, Stratification(strata), cat, ff, fibre_obj, transition)


def disk_trivial_two_strata() -> StratBundle:
    """Triangle glued onto the trivial two-sheet circle by the identity."""
    y = trivial_two_sheets_c3()
    m_base = cellbase.simplex_complex(["u0", "u1", "u2"])
    m = strabundle.product_bundle(
        m_base, cellbase.single_stratum(m_base), y.cat, y.ff, "pt"
    )
    top = cellbase.simplex_name(["u0", "u1", "u2"])
    a_cells = frozenset(c for c in m_base.cells if c != top)
    hmap = SimplicialMap.from_vertex_map(
        cellbase.subcomplex(m_base, a_cells),
        y.base,
        {"u0": "v0", "u1": "v1", "u2": "v2"},
    )
    return strabundle.attach_bundle(y, m, a_cells, hmap, {c: "e" for c in a_cells}).bundle


def bz2_trivializer() -> tuple[CatFunctor, FibreFunctor]:
    """Endofunctor crushing the involution; transport along it kills monodromy."""
    cat, ff = bz2_category()
    phi = CatFunctor(cat, cat, {"pt": "pt"}, {"e": "e", "g": "e"})
    return phi, ff


_BUNDLES = {
    "product_bundle_c3": product_bundle_c3,
    "double_cover_c3": double_cover_c3,
    "triple_cover_c3": triple_cover_c3,
    "trivial_two_sheets_c3": trivial_two_sheets_c3,
    "bz2_double_cover_c3": bz2_double_cover_c3,
    "orbit_free_bundle_c3": orbit_free_bundle_c3,
    "disk_collapse_two_strata": disk_collapse_two_strata,
    "disk_trivial_two_strata": disk_trivial_two_strata,
}


def _refusal_map_into_fan_disk() -> dict:
    src, strat = c3()
    disk, _ = fan_disk()
    smap = SimplicialMap.from_vertex_map(src, disk, {"v0": "w", "v1": "w", "v2": "w"})
    return jsonio.map_to_doc(smap, strat)


# every example by name, with the builder of its document
_EXAMPLES = {
    **{name: (lambda build=build: jsonio.bundle_to_doc(build())) for name, build in _BUNDLES.items()},
    "bz2_category": lambda: jsonio.category_to_doc(*bz2_category()),
    "bz2_trivializer_functor": lambda: jsonio.functor_to_doc(*bz2_trivializer()),
    "c3_complex": lambda: jsonio.complex_to_doc(*c3()),
    "c6_complex": lambda: jsonio.complex_to_doc(*c6()),
    "c6_fold_map": lambda: jsonio.map_to_doc(*c6_fold_map()),
    "fan_disk_complex": lambda: jsonio.complex_to_doc(*fan_disk()),
    "finset12_category": lambda: jsonio.category_to_doc(*finset_category((1, 2))),
    "orbit_z2_category": lambda: jsonio.category_to_doc(*orbit_z2_category()),
    "perm2_category": lambda: jsonio.category_to_doc(*perm_category(2)),
    "refusal_map_into_fan_disk": _refusal_map_into_fan_disk,
}


def example_names() -> list[str]:
    return sorted(_EXAMPLES)


def example_doc(name: str) -> dict:
    if name not in _EXAMPLES:
        raise StructureError(f"unknown example {name}")
    return _EXAMPLES[name]()
