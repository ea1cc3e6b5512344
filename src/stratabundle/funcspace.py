"""Function-space bundles, principal diagrams, coends and associated bundles.

For finite fibres the space of admissible maps out of an object is again
a finite set, so the whole principal-bundle story becomes exact set
bookkeeping: the component at V has fibre hom(V, W_c) over a cell with
fibre object W_c, morphisms of the structure category act by
post-composition, and the diagram actions act by pre-composition.  Every
bundle a coend reads has passed ``strabundle.bundle_stages``, so its
classes are the fibres of the evaluation map (co-Yoneda); they carry
least-representative canonical names, and the evaluation map is produced
as an explicit cellwise bijection.

A principal diagram enters its coend only through the category and base
data it shares with its bundle, so ``coend`` takes that bundle, carrying
the fibre functor to contract against.  Reconstruction and transport
never build the diagram; it exists to be written out and read back as a
document.

Operations that need a faithful fibre functor quietly pass to the
faithful image first; results are reported over that quotient.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import cellbase, fincat, strabundle
from .cellbase import BaseComplex, Stratification
from .fincat import CatFunctor, FibreFunctor, FiniteCategory
from .strabundle import StratBundle
from .validation import StructureError, ValidationReport, first_failure


@dataclass
class DiagramBundle:
    """Family of function bundles over one base, with pre-composition actions.

    ``components[v]`` is the function bundle at the object ``v``, and
    ``actions[g][c]`` is the table of the map component(tgt g) ->
    component(src g) over the cell ``c``.
    """

    cat: FiniteCategory
    base: BaseComplex
    strat: Stratification
    fibre_obj: dict[str, str]
    transitions: dict[tuple[str, str], str]
    components: dict[str, StratBundle]
    actions: dict[str, dict[str, dict[str, str]]]


def _faithful_input(x: StratBundle) -> StratBundle:
    if fincat.is_faithful(x.cat, x.ff):
        return x
    return strabundle.to_faithful(x)[0]


def function_bundle(x: StratBundle, v: str) -> StratBundle:
    """Bundle of admissible maps out of ``v``: fibres are hom-sets.

    Fibre objects and transitions are unchanged; only the fibre functor
    is replaced by the hom functor at ``v``, acting by post-composition.
    ``x`` must pass ``strabundle.bundle_stages``, so its category is lawful.
    """
    x = _faithful_input(x)
    ff_v = fincat.hom_fibre_functor(x.cat, v)
    return StratBundle(x.base, x.strat, x.cat, ff_v, dict(x.fibre_obj), dict(x.transition))


def principal_diagram(x: StratBundle) -> DiagramBundle:
    """All function bundles of ``x`` together with the pre-composition actions.

    ``x`` must pass ``strabundle.bundle_stages``, so its category is lawful.
    """
    x = _faithful_input(x)
    components = {v: function_bundle(x, v) for v in x.cat.objects}
    actions = _precomposition_tables(x.cat, x.fibre_obj, x.base.sorted_cells())
    return DiagramBundle(
        x.cat, x.base, x.strat, dict(x.fibre_obj), dict(x.transition), components, actions
    )


def _precomposition_tables(
    cat: FiniteCategory, fibre_obj: dict[str, str], cells
) -> dict[str, dict[str, dict[str, str]]]:
    """``{g: {c: {alpha: alpha.g}}}`` over alpha: tgt g -> W_c, for ``c`` in ``cells``.

    One table is built per (g, W_c) and shared by every cell with that
    fibre object.  ``cat`` must be lawful, so every composite is read
    straight from ``compose_table``: ``diagram_stages`` calls this after
    its laws stage, and ``principal_diagram`` on a gated bundle.
    """
    compose = cat.compose_table
    memo: dict[tuple[str, str], dict[str, str]] = {}
    tables = {}
    for g in cat.morphisms.values():
        per_cell = {}
        for c in cells:
            w = fibre_obj[c]
            key = (g.id, w)
            if key not in memo:
                memo[key] = {alpha: compose[(alpha, g.id)] for alpha in cat.hom(g.tgt, w)}
            per_cell[c] = memo[key]
        tables[g.id] = per_cell
    return tables


def diagram_stages(d: DiagramBundle):
    """Every stage of a diagram's validation, one report each, in order.

    References (a component per object over the diagram's base data and
    category, an action per morphism), the category's laws, the hom functor
    on each component, bundle stages 6-8 on each component
    (``strabundle.validate_bundle``), and action tables equal to
    pre-composition; a stage runs only if all before it passed.  A lawful
    category records every composite, so ``hom_fibre_functor`` cannot
    raise, and post-composition in it is lawful (Yoneda): the components
    pass bundle stages 1-5.  The tables restate the category's laws only on
    the maps into fibre objects; the laws stage decides them on every map.
    """
    rep = ValidationReport("diagram")
    if set(d.components) != set(d.cat.objects):
        rep.add("components", "one component per object is required")
    for v, b in d.components.items():
        if b.base.cells != d.base.cells or b.strat.strata != d.strat.strata:
            rep.add("component-base", v)
        if b.fibre_obj != d.fibre_obj or b.transition != d.transitions:
            rep.add("component-data", v)
        # a diagram read from a document shares one category object wherever
        # the components' categories agree, so this is mostly an identity test
        if b.cat is not d.cat and b.cat != d.cat:
            rep.add("component-category", v)
    if set(d.actions) != set(d.cat.morphisms):
        rep.add("actions", "one action per morphism is required")
    yield rep
    if rep.ok:
        yield from d.cat.laws.stages
    if not rep.ok or not d.cat.laws.ok:
        return
    rep = ValidationReport("diagram")
    for v, b in d.components.items():
        if b.ff != fincat.hom_fibre_functor(d.cat, v):
            rep.add("component-functor", v)
    yield rep
    if not rep.ok:
        return
    rep = ValidationReport("diagram")
    for v, b in d.components.items():
        if not (sub := strabundle.validate_bundle(b)).ok:
            rep.add("component-invalid", f"{v}: {sub.violations[0].code}")
    yield rep
    if not rep.ok:
        return
    rep = ValidationReport("diagram")
    cells = d.base.sorted_cells()
    for g, per_cell in _precomposition_tables(d.cat, d.fibre_obj, cells).items():
        for c in cells:
            if d.actions[g].get(c) != per_cell[c]:
                rep.add("action-table", f"{g} over {c}")
    yield rep


def validate_diagram(d: DiagramBundle) -> ValidationReport:
    """Every stage of ``diagram_stages``, merged."""
    return ValidationReport.merged("diagram", diagram_stages(d))


@dataclass
class CoendResult:
    classes: dict[str, tuple[tuple[tuple[str, str, str], ...], ...]]
    class_of: dict[str, dict[tuple[str, str, str], tuple[str, str, str]]]
    evaluation: dict[str, dict[tuple[str, str, str], str]]
    report: ValidationReport


def _coend_classes_by_union(
    cat: FiniteCategory, ff2: FibreFunctor, w: str
) -> tuple[list[tuple], dict]:
    """Quotient of all (object, map-to-w, fibre element) triples for one object.

    The principal suite's independent reference for ``_coend_classes``.
    """
    uf = cellbase.UnionFind(
        (v, alpha, y)
        for v in cat.objects
        for alpha in cat.hom(v, w)
        for y in ff2.on_objects[v]
    )
    for g in cat.morphisms.values():
        for alpha in cat.hom(g.tgt, w):
            pulled = cat.compose(alpha, g.id)
            for y in ff2.on_objects[g.src]:
                uf.union((g.src, pulled, y), (g.tgt, alpha, ff2.on_morphisms[g.id][y]))
    return _named_classes(uf.groups())


def _named_classes(groups) -> tuple[list[tuple], dict]:
    # each class is named by its least member, and the classes are ordered by it
    ordered = sorted(tuple(sorted(group)) for group in groups)
    reps = {t: members[0] for members in ordered for t in members}
    return ordered, reps


def _coend_classes(cat: FiniteCategory, ff2: FibreFunctor, w: str) -> tuple[list[tuple], dict]:
    """The same quotient as ``_coend_classes_by_union``, read off the evaluation map.

    Groups the triples (v, alpha, y) by ev(v, alpha, y) = ff2(alpha)(y)
    (co-Yoneda; Loregian, *(Co)end Calculus*, 2021, ch. 2).  Precondition:
    ``cat`` and ``ff2`` have passed ``fincat.functor_stages``.  Stage 4
    (``action-domain``, ``action-codomain``) makes every table of an
    alpha: v -> w total on ff2(v) with values in ff2(w), and the others give

    (i)   ff2(id_w) is the identity on ff2(w): ``action-identity`` (stage 5);
    (ii)  id_w is an endomorphism of w and id_w.alpha = alpha for every
          alpha into w: ``identity-endpoints`` and ``identity-law`` (stages 1-2);
    (iii) ev takes one value on both sides of every generating relation
          (src g, alpha.g, y) ~ (tgt g, alpha, ff2(g)(y)):
          ``action-composition`` (stage 5).

    Proof that the two partitions are equal.  By (iii) ev is constant on
    union classes, so they are finer than the ev fibres.  Conversely, the
    relation with g = alpha and alpha' = id_w links (v, id_w.alpha, y),
    which is (v, alpha, y) by (ii), to the triple (w, id_w, z) with
    z = ff2(alpha)(y), whose ev is z by (i).  Two triples with equal ev
    therefore reach the same (w, id_w, z).  The functor laws alone do not
    give (ii): with identity e, e.x = e and both acting trivially on
    {0, 1}, the union path gives 4 classes and the ev fibres 2.
    """
    groups: dict[str, list[tuple[str, str, str]]] = {}
    for v in cat.objects:
        for alpha in cat.hom(v, w):
            table = ff2.on_morphisms[alpha]
            for y in ff2.on_objects[v]:
                groups.setdefault(table[y], []).append((v, alpha, y))
    return _named_classes(groups.values())


def coend(y: StratBundle) -> CoendResult:
    """Contract a principal diagram against the fibre functor ff2 of ``y``.

    A principal diagram enters its coend only through the category, base,
    fibre objects and transitions it shares with its bundle, so ``y``
    carries those together with ff2, and must have passed
    ``strabundle.bundle_stages``.  Classes over a cell are classes of
    (V, alpha: V -> W_c, e in ff2(V)); the induced transitions are verified
    to be well defined on classes, and the evaluation map applying
    ff2(alpha) to e is produced and checked to be a cellwise bijection onto
    the fibres of ``y``, commuting with all transitions.
    """
    rep = ValidationReport("coend")
    cat, ff2 = y.cat, y.ff
    memo = {w: _coend_classes(cat, ff2, w) for w in sorted(set(y.fibre_obj.values()))}

    classes = {}
    class_of = {}
    evaluation = {}
    for c in y.base.sorted_cells():
        ordered, reps = memo[y.fibre_obj[c]]
        classes[c] = tuple(ordered)
        class_of[c] = dict(reps)
        ev = {}
        for members in ordered:
            values = {ff2.on_morphisms[alpha][e] for (_, alpha, e) in members}
            if len(values) > 1:
                rep.add("evaluation-constant", f"class {members[0]} over {c} evaluates ambiguously")
            ev[members[0]] = min(values)
        target = ff2.on_objects[y.fibre_obj[c]]
        if sorted(ev.values()) != sorted(target):
            rep.add(
                "evaluation-bijective",
                f"cell {c}: {len(ev)} classes against {len(target)} fibre elements",
            )
        evaluation[c] = ev

    for f, c in y.base.incidences:
        t = y.transition[(f, c)]
        table = ff2.on_morphisms[t]
        for members in classes[c]:
            images = {class_of[f][(v, cat.compose(t, alpha), e)] for (v, alpha, e) in members}
            if len(images) > 1:
                rep.add("transition-well-defined", f"({f}, {c}) on class {members[0]}")
                continue
            target_rep = images.pop()
            if evaluation[f][target_rep] != table[evaluation[c][members[0]]]:
                rep.add("transition-evaluation", f"({f}, {c}) on class {members[0]}")
    return CoendResult(classes, class_of, evaluation, rep)


def class_key(rep: tuple[str, str, str]) -> str:
    return "|".join(rep)


@dataclass
class ReconstructResult:
    ok: bool
    bundle: StratBundle
    coend: CoendResult
    iso: dict[str, dict[str, str]] | None


def reconstruct_check(x: StratBundle) -> ReconstructResult:
    """Rebuild a bundle as the coend of its own principal diagram.

    ``x`` must have passed ``strabundle.bundle_stages``; its faithful
    image, which ``coend`` reads, then passes them too.  The returned iso
    sends each coend class (named by its least representative) to the
    fibre element it evaluates to; it is a cellwise bijection commuting
    with every transition.  A False answer indicates a defect in this
    package, not in the input.
    """
    x = _faithful_input(x)
    # the coend's bundle is x's own base data with x's fibre functor, so a
    # comparison with x could not fail; the coend report carries the content
    res = coend(x)
    ok = res.report.ok
    iso = None
    if ok:
        iso = {
            c: {class_key(rep): elem for rep, elem in res.evaluation[c].items()}
            for c in x.base.sorted_cells()
        }
    return ReconstructResult(ok, x, res, iso)


def associated_bundle(x: StratBundle, phi: CatFunctor, gg: FibreFunctor) -> StratBundle:
    """Transport a bundle along a functor between structure categories.

    The principal diagram of ``x`` is contracted against the pulled-back
    fibre functor (the coend of ``x`` with its fibre functor replaced);
    the result is re-expressed over the target category by applying the
    functor to fibre objects and transitions.

    ``x`` must have passed ``strabundle.bundle_stages``.  The pulled-back
    bundle then meets ``coend``'s precondition: ``gg`` passes
    ``functor_stages`` and ``phi`` passes ``validate_cat_functor`` below,
    so ``gg`` after ``phi`` is lawful on the gated ``x.cat``.
    """
    x = _faithful_input(x)
    if phi.source != x.cat:
        raise StructureError("functor source must be the bundle's structure category")
    if (failed := first_failure(fincat.functor_stages(phi.target, gg))) is not None:
        failed.raise_if_invalid()
    fincat.validate_cat_functor(phi).raise_if_invalid()
    ff2 = fincat.precompose_fibre_functor(gg, phi)
    pulled = StratBundle(x.base, x.strat, x.cat, ff2, x.fibre_obj, x.transition)
    coend(pulled).report.raise_if_invalid()
    fibre_obj = {c: phi.on_objects[w] for c, w in x.fibre_obj.items()}
    transition = {k: phi.on_morphisms[m] for k, m in x.transition.items()}
    bundle = StratBundle(x.base, x.strat, phi.target, gg, fibre_obj, transition)
    strabundle.validate_bundle(bundle).raise_if_invalid()
    return bundle
