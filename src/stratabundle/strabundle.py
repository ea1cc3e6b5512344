"""Stratified bundles of finite fibres as face-poset functors.

A bundle assigns a fibre object to every cell of a stratified base and a
transition morphism to every codimension-one face relation, pointing from
the cell down to its face.  Coherence of the two descents around every
codimension-two square is required up to equality in the image of the
fibre functor, and transitions between cells of the same stratum must be
invertible in that image.  Everything else here (restriction, attachment,
pull-back, fibrewise product, totalization, push-out checking) is exact
finite bookkeeping on that data.

A bundle is validated by ``bundle_stages``, one report per stage, in
order: the stages of ``fincat.functor_stages`` (category references,
composition, associativity, fibre tables, functor laws), then bundle
references, then stratum-wise invertibility and coherence.  Later stages
wait on earlier ones because they read what those guarantee.  The bundle
references look each fibre object and transition up in the category, and
equality in the image, which the last two stages test, is only the
bundle's notion of equality once the category and its fibre functor are
lawful.  Invertibility and coherence then compose the action tables of
transitions, which the bundle references have shown to exist and to
have the right endpoints.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from . import cellbase, fincat
from .cellbase import BaseComplex, SimplicialMap, Stratification
from .fincat import FibreFunctor, FiniteCategory, compose_tables
from .validation import PreconditionError, StructureError, ValidationReport


@dataclass
class StratBundle:
    base: BaseComplex
    strat: Stratification
    cat: FiniteCategory
    ff: FibreFunctor
    fibre_obj: dict[str, str]
    transition: dict[tuple[str, str], str]

    def fibre_set(self, cell: str) -> tuple[str, ...]:
        return self.ff.on_objects[self.fibre_obj[cell]]

    def transition_table(self, face: str, cell: str) -> dict[str, str]:
        return self.ff.on_morphisms[self.transition[(face, cell)]]


@dataclass
class FBundleMap:
    source: StratBundle
    target: StratBundle
    base_map: SimplicialMap
    fibre_morphisms: dict[str, str]


@dataclass
class TotalComplex:
    elements: tuple[tuple[str, str], ...]
    relations: tuple[tuple[tuple[str, str], tuple[str, str]], ...]


def transition_path(x: StratBundle, cell: str, face: str) -> str:
    """Composite transition from ``cell`` down to an iterated face.

    Descends through lexicographically least faces; by coherence any
    descent gives the same morphism in the image of the fibre functor.
    """
    if face == cell:
        return x.cat.identities[x.fibre_obj[cell]]
    if not x.base.leq(face, cell):
        raise StructureError(f"{face} is not a face of {cell}")
    mid = x.cat.identities[x.fibre_obj[cell]]
    cur = cell
    while cur != face:
        nxt = min(f for f in x.base.cells[cur].faces if x.base.leq(face, f))
        mid = x.cat.compose(x.transition[(nxt, cur)], mid)
        cur = nxt
    return mid


def transition_paths(x: StratBundle, cell_map: dict[str, str], incidences) -> dict:
    """``transition_path(x, cell_map[c], cell_map[f])`` for each incidence ``(f, c)``, in order.

    Many incidences map onto one pair of cells, so the path of each
    distinct pair is found once, at its first incidence: the first pair
    with no path raises where one call per incidence would.
    """
    paths, out = {}, {}
    for inc in incidences:
        pair = (cell_map[inc[1]], cell_map[inc[0]])
        path = paths.get(pair)
        if path is None:
            path = paths[pair] = transition_path(x, *pair)
        out[inc] = path
    return out


def check_bundle_references(x: StratBundle) -> ValidationReport:
    """Base, fibres, transition coverage and typing: the linear stage of ``validate_bundle``."""
    rep = ValidationReport("bundle")
    rep.merge(cellbase.validate_complex(x.base, x.strat))
    if not rep.ok:
        return rep
    objset = set(x.cat.objects)
    for c in x.base.sorted_cells():
        if x.fibre_obj.get(c) not in objset:
            rep.add("fibre-object", f"cell {c} carries no object")
    if not rep.ok:
        return rep
    mors, obj, t, incidences = x.cat.morphisms, x.fibre_obj, x.transition, x.base.incidences
    # one lookup per incidence; a missing key gives None, which names no morphism
    bad = [
        inc
        for inc in incidences
        if (m := mors.get(t.get(inc))) is None or m.src != obj[inc[1]] or m.tgt != obj[inc[0]]
    ]
    # the incidences are distinct, so equal counts and no missing key mean equal key sets
    if len(t) != len(incidences) or any(inc not in t for inc in bad):
        extra = sorted(set(t) - set(incidences))
        missing = sorted(set(incidences) - set(t))
        if extra:
            rep.add("transition-spurious", f"{extra}")
        if missing:
            rep.add("transition-missing", f"{missing}")
        return rep
    for f, c in bad:
        code = "transition-unknown" if t[(f, c)] not in mors else "transition-typing"
        rep.add(code, f"({f}, {c}) -> {t[(f, c)]}")
    return rep


def bundle_stages(x: StratBundle):
    """Every stage of a bundle's validation, one report each, in order.

    The stages of ``fincat.functor_stages``, then, only if all of them
    pass, bundle references, then, only if that passes, stratum-wise
    invertibility and coherence.  A loader raises the first failing
    report; ``validate`` merges them all.
    """
    ok = True
    for rep in fincat.functor_stages(x.cat, x.ff):
        ok = ok and rep.ok
        yield rep
    if ok:
        yield from _bundle_law_stages(x)


def _bundle_law_stages(x: StratBundle):
    references = check_bundle_references(x)
    yield references
    if references.ok:
        yield check_stratum_isos(x)
        yield check_coherence(x)


def validate_bundle(x: StratBundle) -> ValidationReport:
    """Stages 6-8 of ``bundle_stages``, for a bundle whose category and functor are gated:
    diagram components, the results of ``attach_bundle``, ``stratify_bundle`` and
    ``associated_bundle``, and the bundles the suites build from gated ones."""
    return ValidationReport.merged("bundle", _bundle_law_stages(x))


def check_stratum_isos(x: StratBundle) -> ValidationReport:
    """Every transition within one stratum is invertible in the fibre-functor image.

    Each distinct transition id is tested once; only when one fails are
    the incidences walked, in order, to name each failing incidence.
    """
    rep = ValidationReport("bundle")
    strata, t = x.strat.strata, x.transition
    # the references stage showed the keys of ``t`` to be the incidences
    within = {mid for (f, c), mid in t.items() if strata[f] == strata[c]}
    singular = {mid for mid in within if not fincat.is_iso_in_image(x.cat, x.ff, mid)}
    if singular:
        for f, c in x.base.incidences:
            mid = t[(f, c)]
            if mid in singular and strata[f] == strata[c]:
                rep.add(
                    "stratum-iso",
                    f"within-stratum transition ({f}, {c}) -> {mid} is not invertible",
                )
    return rep


def check_coherence(x: StratBundle) -> ValidationReport:
    """The two descents around every codimension-two square agree in the image."""
    rep = ValidationReport("bundle")
    commutes: dict[tuple[str, str, str, str], bool] = {}  # by the square's four transitions
    on, cells, t = x.ff.on_morphisms, x.base.cells, x.transition
    for c in x.base.sorted_cells():
        # the references stage put every face one dimension down, so a cell
        # below dimension 2 bounds no square
        if cells[c].dim < 2:
            continue
        faces = cells[c].faces
        for i, a in enumerate(faces):
            t_ac, faces_a = t[(a, c)], cells[a].faces
            for b in faces[i + 1 :]:
                t_bc, faces_b = t[(b, c)], cells[b].faces
                # faces are sorted and duplicate-free: these are sorted(common faces)
                for g in faces_a:
                    if g not in faces_b:
                        continue
                    key = (t[(g, a)], t_ac, t[(g, b)], t_bc)
                    ok = commutes.get(key)
                    if ok is None:
                        via_a = compose_tables(on[key[0]], on[t_ac])
                        via_b = compose_tables(on[key[2]], on[t_bc])
                        ok = commutes[key] = via_a == via_b
                    if not ok:
                        rep.add(
                            "coherence",
                            f"descents {c} -> {a} -> {g} and {c} -> {b} -> {g} disagree",
                        )
    return rep


def restrict(x: StratBundle, cells) -> StratBundle:
    """Restriction to a face-closed cell set; stratum indices are compressed."""
    sub = cellbase.subcomplex(x.base, cells)
    used = sorted({x.strat.strata[c] for c in sub.cells})
    rank = {k: i for i, k in enumerate(used)}
    strat = Stratification({c: rank[x.strat.strata[c]] for c in sub.cells})
    fibre_obj = {c: x.fibre_obj[c] for c in sub.cells}
    transition = {(f, c): x.transition[(f, c)] for f, c in sub.incidences}
    return StratBundle(sub, strat, x.cat, x.ff, fibre_obj, transition)


def product_bundle(
    base: BaseComplex,
    strat: Stratification,
    cat: FiniteCategory,
    ff: FibreFunctor,
    v: str,
) -> StratBundle:
    """Constant bundle with fibre ``v`` and identity transitions."""
    if v not in cat.objects:
        raise StructureError(f"unknown object {v}")
    ident = cat.identities[v]
    return StratBundle(
        base,
        strat,
        cat,
        ff,
        {c: v for c in base.cells},
        {(f, c): ident for f, c in base.incidences},
    )


def bundle_eq(x: StratBundle, y: StratBundle) -> bool:
    """Elementwise equality; transitions compared in the fibre-functor image."""
    if x.base.cells != y.base.cells or x.strat.strata != y.strat.strata:
        return False
    if x.fibre_obj != y.fibre_obj:
        return False
    if set(x.transition) != set(y.transition):
        return False
    if x.ff.on_objects != y.ff.on_objects:
        return False
    for key, mid in x.transition.items():
        if x.ff.on_morphisms[mid] != y.ff.on_morphisms[y.transition[key]]:
            return False
    return True


def to_faithful(x: StratBundle) -> tuple[StratBundle, dict[str, str]]:
    """Rewrite the bundle over the faithful image of its structure category."""
    fi = fincat.faithful_image(x.cat, x.ff)
    transition = {k: fi.quotient[m] for k, m in x.transition.items()}
    return (
        StratBundle(x.base, x.strat, fi.category, fi.ff, dict(x.fibre_obj), transition),
        fi.quotient,
    )


def validate_fbundle_map(h: FBundleMap) -> ValidationReport:
    rep = ValidationReport("bundle-map")
    if h.source.cat != h.target.cat:
        rep.add("category", "source and target live over different structure categories")
        return rep
    rep.merge(cellbase.validate_simplicial_map(h.base_map))
    if set(h.base_map.cell_map) != set(h.source.base.cells):
        rep.add("base-coverage", "base map does not cover the source cells")
    if not rep.ok:
        return rep
    cat, ff = h.target.cat, h.target.ff
    for c in h.source.base.sorted_cells():
        mid = h.fibre_morphisms.get(c)
        if mid is None or mid not in cat.morphisms:
            rep.add("fibre-morphism", f"cell {c} carries no morphism")
            continue
        m = cat.morphisms[mid]
        tgt_cell = h.base_map.cell_map[c]
        if m.src != h.source.fibre_obj[c] or m.tgt != h.target.fibre_obj[tgt_cell]:
            rep.add("fibre-typing", f"cell {c}: {mid} has wrong endpoints")
    if not rep.ok:
        return rep
    paths = transition_paths(h.target, h.base_map.cell_map, h.source.base.incidences)
    for (f, c), path in paths.items():
        lhs = compose_tables(
            ff.on_morphisms[h.fibre_morphisms[f]], h.source.ff.on_morphisms[h.source.transition[(f, c)]]
        )
        rhs = compose_tables(ff.on_morphisms[path], ff.on_morphisms[h.fibre_morphisms[c]])
        if lhs != rhs:
            rep.add("naturality", f"square over incidence ({f}, {c}) does not commute")
    return rep


@dataclass
class PushoutSquare:
    """A commuting square of bundle maps with a designated push-out corner."""

    a: StratBundle
    m: StratBundle
    y: StratBundle
    z: StratBundle
    incl_a: FBundleMap  # a -> m
    h: FBundleMap  # a -> y
    char: FBundleMap  # m -> z
    incl_y: FBundleMap  # y -> z


@dataclass
class AttachBundleResult:
    bundle: StratBundle
    square: PushoutSquare
    new_cells: frozenset[str]


def attach_bundle(
    y: StratBundle,
    m: StratBundle,
    a_cells,
    base_map: SimplicialMap,
    fibre_morphisms: dict[str, str],
) -> AttachBundleResult:
    """Glue a single-stratum bundle over a pair onto ``y`` along a bundle map.

    The attaching map ``h`` runs from the restriction of ``m`` to
    ``a_cells`` into ``y``, over ``base_map`` with ``fibre_morphisms``.
    Over old cells the result is ``y``; over the new cells it is ``m``;
    the fresh cross-stratum transitions are the composites of ``m``'s
    boundary transitions with ``h``.  The inclusion of ``y`` restricts
    back to ``y`` on the nose.
    """
    if y.cat != m.cat or y.ff != m.ff:
        raise StructureError("bundles must share category and fibre functor")
    if len({m.strat.strata[c] for c in m.base.cells}) > 1:
        raise StructureError("attached bundle must be single-stratum")
    a_set = frozenset(a_cells)
    expected = restrict(m, a_set)
    h = FBundleMap(expected, y, base_map, fibre_morphisms)
    validate_fbundle_map(h).raise_if_invalid()

    attached = cellbase.attach_base(y.base, y.strat, m.base, a_set, h.base_map)
    fibre_obj = dict(y.fibre_obj)
    for c in attached.new_cells:
        fibre_obj[c] = m.fibre_obj[c]
    transition = dict(y.transition)
    for c in sorted(attached.new_cells):
        for f in m.base.cells[c].faces:
            if f in a_set:
                mid = m.cat.compose(h.fibre_morphisms[f], m.transition[(f, c)])
                key = (h.base_map.cell_map[f], c)
                if key in transition and key not in y.transition:
                    if m.ff.on_morphisms[transition[key]] != m.ff.on_morphisms[mid]:
                        raise StructureError(
                            f"attaching map identifies faces of {c} with incompatible transitions"
                        )
                transition[key] = mid
            else:
                transition[(f, c)] = m.transition[(f, c)]
    bundle = StratBundle(attached.complex, attached.strat, y.cat, y.ff, fibre_obj, transition)
    validate_bundle(bundle).raise_if_invalid()

    incl = FBundleMap(
        y, bundle, attached.incl_map, {c: y.cat.identities[y.fibre_obj[c]] for c in y.base.cells}
    )
    char_fibres = {}
    for c in m.base.cells:
        if c in a_set:
            char_fibres[c] = h.fibre_morphisms[c]
        else:
            char_fibres[c] = m.cat.identities[m.fibre_obj[c]]
    char = FBundleMap(m, bundle, attached.char_map, char_fibres)
    incl_a = FBundleMap(
        expected,
        m,
        cellbase.inclusion_map(expected.base, m.base),
        {c: m.cat.identities[m.fibre_obj[c]] for c in a_set},
    )
    square = PushoutSquare(expected, m, y, bundle, incl_a, h, char, incl)
    return AttachBundleResult(bundle, square, attached.new_cells)


@dataclass
class PullbackResult:
    bundle: StratBundle
    covering: FBundleMap


def pullback(xprime: StratBundle, fbar: SimplicialMap, w_strat: Stratification) -> PullbackResult:
    """Pull a bundle back along a stratum-preserving simplicial map.

    Maps that move a cell to a different stratum index are refused: the
    pulled-back data would not satisfy the stratum invariants.
    """
    if fbar.target.cells != xprime.base.cells:
        raise StructureError("map target does not match the bundle base")
    cellbase.validate_simplicial_map(fbar).raise_if_invalid()
    ok, witness = cellbase.stratum_preserving(fbar, w_strat, xprime.strat)
    if not ok:
        c, i, j = witness
        raise PreconditionError(
            f"map is not stratum-preserving: cell {c} has stratum {i} but its image "
            f"{fbar.cell_map[c]} has stratum {j}"
        )
    fibre_obj = {c: xprime.fibre_obj[fbar.cell_map[c]] for c in fbar.source.cells}
    transition = transition_paths(xprime, fbar.cell_map, fbar.source.incidences)
    bundle = StratBundle(fbar.source, w_strat, xprime.cat, xprime.ff, fibre_obj, transition)
    covering = FBundleMap(
        bundle, xprime, fbar, {c: xprime.cat.identities[fibre_obj[c]] for c in fbar.source.cells}
    )
    return PullbackResult(bundle, covering)


def fiberwise_product(x: StratBundle, xprime: StratBundle) -> StratBundle:
    """Bundle of pairwise fibres over a shared stratified base."""
    if x.base.cells != xprime.base.cells or x.strat.strata != xprime.strat.strata:
        raise StructureError("bundles must share base and stratification")
    cat, ff = fincat.product_category(x.cat, x.ff, xprime.cat, xprime.ff)
    # the category's own id strings, which product_category fills A-major, B-minor
    objects = itertools.product(dict.fromkeys(x.cat.objects), dict.fromkeys(xprime.cat.objects))
    obj_of = dict(zip(objects, cat.identities))
    mor_of = dict(zip(itertools.product(x.cat.morphisms, xprime.cat.morphisms), cat.morphisms))
    fibre_obj = {c: obj_of[x.fibre_obj[c], xprime.fibre_obj[c]] for c in x.base.cells}
    transition = {key: mor_of[x.transition[key], xprime.transition[key]] for key in x.transition}
    return StratBundle(x.base, x.strat, cat, ff, fibre_obj, transition)


def realize_total(x: StratBundle) -> TotalComplex:
    """Category-of-elements total space: one element per (cell, fibre point)."""
    elements = []
    for c in x.base.sorted_cells():
        for v in x.fibre_set(c):
            elements.append((c, v))
    # the incidences are sorted by face first, so sorting the block of each
    # face sorts the whole: blocks of distinct faces come out in face order
    relations = []
    for f, block in itertools.groupby(x.base.incidences, key=itemgetter(0)):
        rows = []
        for _, c in block:
            table = x.transition_table(f, c)
            for v in x.fibre_set(c):
                rows.append(((f, table[v]), (c, v)))
        rows.sort()
        relations += rows
    return TotalComplex(tuple(elements), tuple(relations))


def disjoint_union_bundle(x: StratBundle, y: StratBundle) -> StratBundle:
    if x.cat != y.cat or x.ff != y.ff:
        raise StructureError("bundles must share category and fibre functor")
    base = cellbase.disjoint_union(x.base, y.base)
    strata = dict(x.strat.strata)
    strata.update(y.strat.strata)
    fibre_obj = dict(x.fibre_obj)
    fibre_obj.update(y.fibre_obj)
    transition = dict(x.transition)
    transition.update(y.transition)
    return StratBundle(base, Stratification(strata), x.cat, x.ff, fibre_obj, transition)


def relabel_bundle(x: StratBundle, fn) -> StratBundle:
    base = cellbase.relabel_complex(x.base, fn)
    strat = Stratification({fn(c): k for c, k in x.strat.strata.items()})
    fibre_obj = {fn(c): o for c, o in x.fibre_obj.items()}
    transition = {(fn(f), fn(c)): m for (f, c), m in x.transition.items()}
    return StratBundle(base, strat, x.cat, x.ff, fibre_obj, transition)


@dataclass
class PushoutCheckResult:
    ok: bool
    witness: str | None


def _elem_image(h: FBundleMap, elem: tuple[str, str]) -> tuple[str, str]:
    c, v = elem
    return h.base_map.cell_map[c], h.target.ff.on_morphisms[h.fibre_morphisms[c]][v]


def pushout_universality_check(square: PushoutSquare) -> PushoutCheckResult:
    """Decide whether the square's corner has the push-out universal property.

    Works at the level of total spaces: the concrete push-out of the two
    legs is built by union-find and compared with the corner through the
    canonical map kappa, which must be a bijection onto the corner's
    cell-graded elements carrying the push-out's face relation onto the
    corner's.  Then kappa is an isomorphism from the concrete push-out, so
    the corner inherits its universal property: every cocone factors
    through it uniquely (Mac Lane, *Categories for the Working
    Mathematician*, III.3).  The comparison is complete for finite data.
    """
    ta = realize_total(square.a)
    tm = realize_total(square.m)
    ty = realize_total(square.y)
    tz = realize_total(square.z)

    for elem in ta.elements:
        via_m = _elem_image(square.char, _elem_image(square.incl_a, elem))
        via_y = _elem_image(square.incl_y, _elem_image(square.h, elem))
        if via_m != via_y:
            return PushoutCheckResult(False, f"square does not commute at {elem}")

    nodes = [("m", elem) for elem in tm.elements] + [("y", elem) for elem in ty.elements]
    uf = cellbase.UnionFind(nodes)
    for elem in ta.elements:
        uf.union(("m", _elem_image(square.incl_a, elem)), ("y", _elem_image(square.h, elem)))
    reps: dict = {}  # each node's class, named by its least member
    for group in uf.groups():
        reps.update(dict.fromkeys(group, min(group)))
    classes = sorted(set(reps.values()))

    kappa: dict = {}
    for node in nodes:
        rep = reps[node]
        tag, elem = node
        image = _elem_image(square.char if tag == "m" else square.incl_y, elem)
        if rep in kappa and kappa[rep] != image:
            return PushoutCheckResult(
                False,
                f"legs identify {rep} with both {kappa[rep]} and {image}: no mediating map "
                "can exist for the canonical cocone",
            )
        kappa[rep] = image

    covered = set(kappa.values())
    missing = [e for e in tz.elements if e not in covered]
    if missing:
        return PushoutCheckResult(
            False,
            f"corner element {missing[0]} is hit by neither leg: mediating maps are not unique",
        )
    if len(covered) != len(classes):
        hits = Counter(kappa.values())
        merged = next(kappa[r] for r in classes if hits[kappa[r]] > 1)
        return PushoutCheckResult(False, f"canonical comparison is not injective near {merged}")
    corner = set(tz.elements)
    outside = [r for r in classes if kappa[r] not in corner]
    if outside:
        return PushoutCheckResult(
            False, f"legs send {outside[0]} to {kappa[outside[0]]}, which is not in the corner"
        )

    # relation graphs must agree through the comparison map
    p_relations = set()
    for (fe, ce) in tm.relations:
        p_relations.add((kappa[reps[("m", fe)]], kappa[reps[("m", ce)]]))
    for (fe, ce) in ty.relations:
        p_relations.add((kappa[reps[("y", fe)]], kappa[reps[("y", ce)]]))
    if p_relations != set(tz.relations):
        diff = p_relations.symmetric_difference(set(tz.relations))
        return PushoutCheckResult(False, f"face relations differ at {sorted(diff)[0]}")
    return PushoutCheckResult(True, None)
