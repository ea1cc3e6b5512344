"""Finite categories realized on finite sets.

A category is explicit finite data: object identifiers, morphism
identifiers with source and target, a total composition table on
composable pairs, and one identity morphism per object.  A fibre functor
realizes every object as a finite set of element identifiers and every
morphism as a total function table between the corresponding sets.

Hom-sets are kept as lexicographically sorted tuples so that every
derived construction (quotients, products, hom functors) is
deterministic.  Morphism equality is equality of identifiers; equality
*in the image* of a fibre functor (same endpoints, same function table)
is the coarser relation used throughout the bundle machinery.

A category with a fibre functor is validated in stages, in the order of
``functor_stages``: references, composition, associativity, fibre tables
and the functor laws.  Each stage reads only what the earlier ones
guarantee, and the last two use one generating set.  Light's
associativity test (Clifford & Preston, *The Algebraic Theory of
Semigroups* I, 1961, section 1.2) finds generators s, greedily, and
checks h.(s.f) = (h.s).f only for them.  The same argument proves a
fibre functor F lawful from its generators.  Let

    L = {t : F(h.t) = F(h)F(t) for every h composable after t}.

Once F(id) = id is checked, L holds every identity.  Over an associative
category L is closed under composition: for t1, t2 in L,

    F(h.(t1.t2)) = F((h.t1).t2) = F(h.t1)F(t2) = F(h)F(t1)F(t2)
                 = F(h)F(t1.t2),

the last step being t2 in L with h = t1.  So L is every morphism once it
holds the generators, and checking F(h.s) = F(h)F(s) for the generators s
costs O(generators x morphisms x fibre) instead of
O(composable pairs x fibre).  The same argument, with
L = {t : phi(h.t) = phi(h)phi(t)}, proves a functor phi between two
lawful categories from its source's generators: once phi respects
endpoints and phi(id) = id, the target's identity law puts every identity
in L, and associativity on both sides gives phi(h.(t1.t2)) =
phi(h.t1)phi(t2) = phi(h)phi(t1)phi(t2) = phi(h)phi(t1.t2).  Both laws
go through one kernel, ``_law_failures``; only a failure on the
generators, or of an earlier stage, pays for its exhaustive pass,
``_failing_pairs``, which names every failing pair.  A category's own
laws are decided once, by ``FiniteCategory.laws``.

Image inverses are decided once per (category, fibre functor) pair.  The
category keeps one lazily filled ``ImageInverses`` table per functor in
``inverse_tables``, left out of ``==`` and ``repr``, and
``image_inverse``, ``is_iso_in_image`` and every caller that holds the
table read it.  So the bundle gate, the certificate sweep,
``validate_trivialization``, ``stratify_bundle`` and the suite
generators share one answer per morphism for a whole command or suite
instance.  Both caches rest on one invariant: no code edits a category's
``morphisms``, ``compose_table`` or ``identities``, or a fibre functor's
``on_objects`` or ``on_morphisms``, after building it; code that wants a
changed one builds a new one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .validation import StructureError, ValidationReport


@dataclass(frozen=True)
class Morphism:
    id: str
    src: str
    tgt: str


def identity_table(elements) -> dict[str, str]:
    return {e: e for e in elements}


def compose_tables(outer: dict[str, str], inner: dict[str, str]) -> dict[str, str]:
    """Function table of ``outer`` applied after ``inner``."""
    return {e: outer[v] for e, v in inner.items()}


def is_bijective_table(table: dict[str, str], target_elements) -> bool:
    values = list(table.values())
    return len(set(values)) == len(values) and set(values) == set(target_elements)


@dataclass
class FiniteCategory:
    objects: tuple[str, ...]
    morphisms: dict[str, Morphism]
    compose_table: dict[tuple[str, str], str]
    identities: dict[str, str]
    homs: dict[tuple[str, str], tuple[str, ...]] = field(init=False)
    # ``image_inverses`` tables by the id of their fibre functor
    inverse_tables: dict[int, ImageInverses] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self):
        buckets: dict[tuple[str, str], list[str]] = {}
        for m in self.morphisms.values():
            buckets.setdefault((m.src, m.tgt), []).append(m.id)
        self.homs = {k: tuple(sorted(v)) for k, v in buckets.items()}

    @cached_property
    def out_of(self) -> dict[str, list[str]]:
        """Ids of the morphisms out of each object, in ``morphisms`` order, built on first use."""
        out: dict[str, list[str]] = {v: [] for v in self.objects}
        for mid, m in self.morphisms.items():
            out.setdefault(m.src, []).append(mid)
        return out

    @cached_property
    def laws(self) -> CategoryReport:
        """``validate_category(self)``, kept: no code edits a category after reading it."""
        return validate_category(self)

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        return self.homs.get((a, b), ())

    def compose(self, g: str, f: str) -> str:
        """Composite ``g`` after ``f``."""
        try:
            return self.compose_table[(g, f)]
        except KeyError:
            raise StructureError(f"no composite recorded for ({g}, {f})") from None


@dataclass
class FibreFunctor:
    on_objects: dict[str, tuple[str, ...]]
    on_morphisms: dict[str, dict[str, str]]


def category(objects, morphisms, compose, identities) -> FiniteCategory:
    """Assemble a category from raw identifier data; run validate_category separately."""
    mors = {mid: Morphism(mid, s, t) for mid, s, t in morphisms}
    return FiniteCategory(tuple(objects), mors, dict(compose), dict(identities))


def fibre_functor(on_objects, on_morphisms) -> FibreFunctor:
    return FibreFunctor(
        {k: tuple(v) for k, v in on_objects.items()},
        {k: dict(v) for k, v in on_morphisms.items()},
    )


def concrete_category(fibres, morphisms, actions) -> tuple[FiniteCategory, FibreFunctor]:
    """Category of functions between finite sets, with its tautological fibre functor.

    ``fibres`` maps each object to its elements, ``morphisms`` lists
    ``(id, src, tgt)`` and ``actions`` gives each morphism's function
    table.  The tables must be distinct per endpoint pair, closed under
    composition and include the identity of every fibre.  Composites and
    identities are then looked up by table, and the category axioms hold
    because composition of functions is associative and unital.
    """
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
    return category(fibres, morphisms, compose, identities), fibre_functor(fibres, actions)


@dataclass
class CategoryReport(ValidationReport):
    """``validate_category``'s report, with its stage reports kept apart.

    ``generators`` is the generating set Light's test used when every stage
    passed, and None otherwise; ``functor_stages`` hands it on to the
    functor-law stage.
    """

    stages: tuple[ValidationReport, ...] = ()
    generators: list[str] | None = None


def validate_category(cat: FiniteCategory) -> CategoryReport:
    """Check the category axioms in three stages, naming every violation.

    References, then composition, each cost O(composable pairs).  When
    they hold, Light's test decides associativity; only an input that
    fails either pays for the exhaustive triple loop, which names every
    triple that does not associate.
    """
    stages = (check_category_references(cat), check_composition(cat))
    generators = _light_generators(cat) if stages[0].ok and stages[1].ok else None
    associativity = ValidationReport("category")
    if generators is None:
        _check_associativity(cat, associativity)
    stages += (associativity,)
    violations = ValidationReport.merged("category", stages).violations
    return CategoryReport("category", violations, stages, generators)


def check_category_references(cat: FiniteCategory) -> ValidationReport:
    """Objects, endpoints and identities: the linear first stage of ``validate_category``."""
    rep = ValidationReport("category")
    objset = set(cat.objects)
    if len(cat.objects) != len(objset):
        rep.add("objects-duplicate", "object list contains duplicates")
    for key, m in cat.morphisms.items():
        if m.id != key:
            rep.add("morphism-key", f"{m.id} stored under key {key}")
        if m.src not in objset or m.tgt not in objset:
            rep.add("morphism-endpoints", f"{m.id}: {m.src} -> {m.tgt} not within objects")
    for v in cat.objects:
        i = cat.identities.get(v)
        if i is None or i not in cat.morphisms:
            rep.add("identity-missing", f"object {v} has no identity morphism")
            continue
        m = cat.morphisms[i]
        if (m.src, m.tgt) != (v, v):
            rep.add("identity-endpoints", f"{i} is not an endomorphism of {v}")
    for v in cat.identities:
        if v not in objset:
            rep.add("identity-spurious", f"identity given for {v}, which is not an object")
    return rep


def check_composition(cat: FiniteCategory) -> ValidationReport:
    """The composition table's coverage, typing and identity laws, in O(composable pairs)."""
    rep = ValidationReport("category")
    mors, out_of = cat.morphisms, cat.out_of
    recorded = 0
    for f in mors.values():
        for g in out_of.get(f.tgt, ()):
            gf = cat.compose_table.get((g, f.id))
            if gf is None:
                rep.add("compose-missing", f"({g}, {f.id})")
                continue
            recorded += 1
            if gf not in mors or mors[gf].src != f.src or mors[gf].tgt != mors[g].tgt:
                rep.add("compose-typing", f"({g}, {f.id}) -> {gf}")
    # keys are distinct, so when every one was met above none is spurious
    if recorded != len(cat.compose_table):
        for (g, f), gf in cat.compose_table.items():
            if g not in mors or f not in mors or mors[f].tgt != mors[g].src:
                rep.add("compose-spurious", f"({g}, {f}) -> {gf}")

    for m in mors.values():
        left = cat.identities.get(m.tgt)
        right = cat.identities.get(m.src)
        if left in mors and cat.compose_table.get((left, m.id)) != m.id:
            rep.add("identity-law", f"left identity fails on {m.id}")
        if right in mors and cat.compose_table.get((m.id, right)) != m.id:
            rep.add("identity-law", f"right identity fails on {m.id}")
    return rep


def _light_generators(cat: FiniteCategory) -> list[str] | None:
    """Light's associativity test on a table that passes the checks before it.

    The morphisms t with h.(t.f) = (h.t).f for all composable h, f
    include the identities and are closed under composition, so they are
    every morphism once they include a generating set.  Generators are
    taken greedily in sorted id order, skipping any morphism already in
    the closure of the earlier ones and the identities.  Returns them
    when the table is associative, None when it is not.  Cost:
    O(generators x composable pairs).  See Clifford & Preston, *The
    Algebraic Theory of Semigroups* I (1961), section 1.2.
    """
    rows: dict[str, dict[str, str]] = {m: {} for m in cat.morphisms}
    for (g, f), gf in cat.compose_table.items():
        rows[g][f] = gf
    out_of = cat.out_of
    gens = _generators(cat, rows)
    for s in gens:
        row_s = rows[s]  # not empty: it holds the identity at the source of s
        # h.(s.f) and (h.s).f for every f, read as one tuple each
        after_s, at = itemgetter(*row_s.values()), itemgetter(*row_s)
        for h in out_of[cat.morphisms[s].tgt]:
            row_h = rows[h]
            if after_s(row_h) != at(rows[row_h[s]]):
                return None
    return gens


def _generators(cat: FiniteCategory, rows: dict[str, dict[str, str]]) -> list[str]:
    """Morphisms in sorted id order that the earlier ones and the identities do not generate.

    Over an associative table every product of generators is an identity
    multiplied on the left by generators, one at a time.  So a new
    generator m needs multiplying onto the closure so far, and each new
    member needs every generator multiplied onto it: O(generators x
    morphisms) look-ups.  Over a table that does not associate this
    closure can be smaller than the closure under composition; that only
    adds generators, and Light's test stays exact with any set whose
    closure is every morphism.
    """
    closure = {cat.identities[v] for v in cat.objects}
    gens = []
    for m in sorted(cat.morphisms):
        if m in closure:
            continue
        gens.append(m)
        row_m = rows[m]
        todo = [m] + [row_m[u] for u in closure if u in row_m]
        while todo:
            u = todo.pop()
            if u not in closure:
                closure.add(u)
                todo += [rows[g][u] for g in gens if u in rows[g]]
    return gens


def _check_associativity(cat: FiniteCategory, rep: ValidationReport) -> None:
    """The exhaustive O(|Mor|^3) associativity check over composable triples."""
    compose, out_of = cat.compose_table, cat.out_of
    for f in cat.morphisms.values():
        for g in out_of.get(f.tgt, ()):
            gf = compose.get((g, f.id))
            if gf is None:
                continue
            for h in out_of.get(cat.morphisms[g].tgt, ()):
                hg = compose.get((h, g))
                if hg is None:
                    continue
                left = compose.get((h, gf))
                right = compose.get((hg, f.id))
                if left != right or left is None:
                    rep.add("associativity", f"({h}, {g}, {f.id})")


def check_fibre_tables(cat: FiniteCategory, ff: FibreFunctor) -> ValidationReport:
    """Fibres without repeats, and one table per morphism from its source fibre into its target fibre.

    O(table entries); code that reads the tables directly runs this first.
    """
    rep = ValidationReport("fibre-functor")
    for v in cat.objects:
        elems = ff.on_objects.get(v)
        if elems is None:
            rep.add("fibre-missing", f"object {v}")
        elif len(set(elems)) != len(elems):
            rep.add("fibre-duplicate", f"object {v}")
    for m in cat.morphisms.values():
        tab = ff.on_morphisms.get(m.id)
        if tab is None:
            rep.add("action-missing", m.id)
            continue
        dom = ff.on_objects.get(m.src, ())
        cod = set(ff.on_objects.get(m.tgt, ()))
        if set(tab) != set(dom):
            rep.add("action-domain", f"{m.id}: table keys differ from fibre of {m.src}")
        elif any(x not in cod for x in tab.values()):
            rep.add("action-codomain", f"{m.id}: values escape fibre of {m.tgt}")
    return rep


def functor_stages(cat: FiniteCategory, ff: FibreFunctor):
    """The stages of a category with a fibre functor, one report each, in order.

    Category references, composition and associativity (the stages of
    ``validate_category``), then fibre tables, then the functor laws.  A
    caller that stops at the first failing report never runs the later
    stages; one that merges them all gets ``validate_category`` followed
    by ``validate_fibre_functor``.  The category stages come from
    ``cat.laws``.  The functor-law stage checks only the
    generators of the associativity stage when every stage before it
    passed, and runs the exhaustive pass otherwise.
    """
    category = cat.laws
    yield from category.stages
    tables = check_fibre_tables(cat, ff)
    yield tables
    yield check_functor_laws(cat, ff, category.generators if tables.ok else None)


def validate_fibre_functor(cat: FiniteCategory, ff: FibreFunctor) -> ValidationReport:
    """Fibre tables, then the functor laws checked exhaustively, on any category."""
    stages = (check_fibre_tables(cat, ff), check_functor_laws(cat, ff, None))
    return ValidationReport.merged("fibre-functor", stages)


def check_functor_laws(
    cat: FiniteCategory, ff: FibreFunctor, generators: list[str] | None
) -> ValidationReport:
    """F(id) = id on every object and F(g.f) = F(g)F(f) on every composite.

    ``generators`` is None, or ``cat.laws.generators`` for a functor whose
    ``check_fibre_tables`` passed; then, once every identity acts as the
    identity, the composition law is checked on the generators alone (see
    the module docstring).  The report is the same either way.
    """
    rep = ValidationReport("fibre-functor")
    on, fibres = ff.on_morphisms, ff.on_objects
    for v in cat.objects:
        i = cat.identities.get(v)
        if i in on and v in fibres and on[i] != identity_table(fibres[v]):
            rep.add("action-identity", f"identity of {v} does not act as identity")

    def holds(g, f):
        gf = cat.compose_table[(g, f)]
        if g not in on or f not in on or gf not in on:
            return True
        outer = on[g]
        # a value outside the domain of ``outer`` was reported by the
        # fibre tables; get() turns it into a mismatch here instead of a KeyError
        return on[gf] == {e: outer.get(v) for e, v in on[f].items()}

    for g, f in _law_failures(cat, generators if rep.ok else None, holds):
        rep.add("action-composition", f"({g}, {f})")
    return rep


def _law_failures(cat: FiniteCategory, generators: list[str] | None, holds) -> list:
    """The composites (g, f) of ``cat`` where the law ``holds(g, f)`` fails.

    ``generators`` is None, or generators of a lawful ``cat`` for a law
    closed under composition and holding on identities; then [] when
    ``holds(h, s)`` for every generator s and every h after it.
    """
    if generators is not None:
        out_of, mors = cat.out_of, cat.morphisms
        if all(holds(h, s) for s in generators for h in out_of[mors[s].tgt]):
            return []
    return _failing_pairs(cat, holds)


def _failing_pairs(cat: FiniteCategory, holds) -> list:
    """Every recorded composite (g, f) with ``holds(g, f)`` false, in ``compose_table`` order."""
    return [pair for pair in cat.compose_table if not holds(*pair)]


class ImageInverses(dict):
    """Image inverses of one category's morphisms under one fibre functor, by morphism id.

    Each entry is worked out on its first lookup and kept; see the module
    docstring.  The table holds its functor, so the functor's ``id``, its
    key in ``FiniteCategory.inverse_tables``, is never reused while the
    table lives.  It holds the category's ``morphisms`` and ``homs`` but not
    the category, so the two form no reference cycle.
    """

    __slots__ = ("ff", "mors", "homs")

    def __init__(self, cat: FiniteCategory, ff: FibreFunctor):
        super().__init__()
        self.ff, self.mors, self.homs = ff, cat.morphisms, cat.homs

    def __missing__(self, mid: str) -> str | None:
        inverse = self[mid] = _find_image_inverse(self, mid)
        return inverse


def _find_image_inverse(table: ImageInverses, mid: str) -> str | None:
    """The least morphism back from the target of ``mid`` to its source whose
    action inverts that of ``mid`` on both sides, worked out afresh."""
    m, ff = table.mors[mid], table.ff
    id_src = identity_table(ff.on_objects[m.src])
    id_tgt = identity_table(ff.on_objects[m.tgt])
    tab = ff.on_morphisms[mid]
    for u in table.homs.get((m.tgt, m.src), ()):
        utab = ff.on_morphisms[u]
        if compose_tables(utab, tab) == id_src and compose_tables(tab, utab) == id_tgt:
            return u
    return None


def image_inverses(cat: FiniteCategory, ff: FibreFunctor) -> ImageInverses:
    """The one table of ``ff``'s image inverses on ``cat``, kept on ``cat``."""
    table = cat.inverse_tables.get(id(ff))
    # a deep-copied category's tables hold copies of their functors under the originals' ids
    if table is None or table.ff is not ff:
        table = cat.inverse_tables[id(ff)] = ImageInverses(cat, ff)
    return table


def image_inverse(cat: FiniteCategory, ff: FibreFunctor, mid: str) -> str | None:
    """A two-sided inverse of ``mid`` up to image equality, if one exists."""
    return image_inverses(cat, ff)[mid]


def is_iso_in_image(cat: FiniteCategory, ff: FibreFunctor, mid: str) -> bool:
    return image_inverse(cat, ff, mid) is not None


@dataclass
class FaithfulImage:
    category: FiniteCategory
    ff: FibreFunctor
    quotient: dict[str, str]


def faithful_image(cat: FiniteCategory, ff: FibreFunctor) -> FaithfulImage:
    """Quotient the category by equality of fibre actions.

    Morphisms with the same endpoints and the same function table are
    merged; the lexicographically smallest identifier represents each
    class.  The induced fibre functor is faithful and the quotient map is
    the identity on objects.
    """
    classes: dict[tuple, list[str]] = {}
    for m in cat.morphisms.values():
        key = (m.src, m.tgt, tuple(sorted(ff.on_morphisms[m.id].items())))
        classes.setdefault(key, []).append(m.id)
    quotient: dict[str, str] = {}
    for members in classes.values():
        rep = min(members)
        for mid in members:
            quotient[mid] = rep
    reps = sorted(set(quotient.values()))
    mors = {r: cat.morphisms[r] for r in reps}
    compose = {}
    for g in reps:
        for f in reps:
            if cat.morphisms[f].tgt == cat.morphisms[g].src:
                compose[(g, f)] = quotient[cat.compose(g, f)]
    identities = {v: quotient[i] for v, i in cat.identities.items()}
    qcat = FiniteCategory(cat.objects, mors, compose, identities)
    qff = FibreFunctor(dict(ff.on_objects), {r: dict(ff.on_morphisms[r]) for r in reps})
    return FaithfulImage(qcat, qff, quotient)


def is_faithful(cat: FiniteCategory, ff: FibreFunctor) -> bool:
    seen = set()
    for m in cat.morphisms.values():
        key = (m.src, m.tgt, tuple(sorted(ff.on_morphisms[m.id].items())))
        if key in seen:
            return False
        seen.add(key)
    return True


def hom_fibre_functor(cat: FiniteCategory, v: str) -> FibreFunctor:
    """Fibre functor sending an object to the hom-set out of ``v``.

    Elements are the morphism identifiers of hom(v, -); a morphism acts by
    post-composition.  ``cat`` must be lawful (``cat.laws.ok``), so every
    composite is read straight from ``compose_table``: ``diagram_stages``
    calls this after its laws stage, and ``funcspace.function_bundle`` on
    a gated bundle.
    """
    if v not in cat.objects:
        raise StructureError(f"unknown object {v}")
    on_objects = {w: tuple(cat.hom(v, w)) for w in cat.objects}
    compose = cat.compose_table
    on_morphisms = {}
    for m in cat.morphisms.values():
        on_morphisms[m.id] = {f: compose[(m.id, f)] for f in cat.hom(v, m.src)}
    return FibreFunctor(on_objects, on_morphisms)


def pair_id(a: str, b: str) -> str:
    return f"({a},{b})"


def _pair_ids(xs, ys, what: str) -> dict[str, dict[str, str]]:
    """``pair_id(x, y)`` for every distinct x and y, formatted once, as rows by x.

    Ids that contain commas can give two pairs one id, as ``(x,y,z)`` from
    ``("x", "y,z")`` and ``("x,y", "z")``; that raises ``StructureError``.
    """
    ys = tuple(dict.fromkeys(ys))
    table = {x: {y: pair_id(x, y) for y in ys} for x in dict.fromkeys(xs)}
    ids = set()
    for row in table.values():
        ids.update(row.values())
    if len(ids) < len(table) * len(ys):
        seen = {}
        for x, row in table.items():
            for y, pid in row.items():
                if pid in seen:
                    raise StructureError(
                        f"{what} pairs {seen[pid]} and {(x, y)} both get the id {pid}"
                    )
                seen[pid] = (x, y)
    return table


def _elements(ff: FibreFunctor):
    """Every element a fibre functor names: fibre members and action-table keys and values."""
    for elems in ff.on_objects.values():
        yield from elems
    for tab in ff.on_morphisms.values():
        yield from tab
        yield from tab.values()


def product_category(
    cat_a: FiniteCategory,
    ff_a: FibreFunctor,
    cat_b: FiniteCategory,
    ff_b: FibreFunctor,
) -> tuple[FiniteCategory, FibreFunctor]:
    """Category of pairs with the product-set fibre functor.

    Every pair id comes from one of three tables, of morphisms, objects
    and elements, so equal ids are one string and ``pair_id`` runs once
    per table cell; the loops below copy ids out of those rows.  Dicts
    are filled A-major, B-minor.  Both categories must pass
    ``check_category_references`` and ``check_composition``, and each
    fibre functor must give every object a fibre and every morphism a
    table; the tables may name elements outside their fibres.  Raises
    ``StructureError`` when two pairs get one id.
    """
    mor_ids = _pair_ids(cat_a.morphisms, cat_b.morphisms, "morphism")
    obj_ids = _pair_ids(cat_a.objects, cat_b.objects, "object")
    elem_ids = _pair_ids(_elements(ff_a), _elements(ff_b), "element")

    b_mors = cat_b.morphisms.values()
    b_srcs = [n.src for n in b_mors]
    b_tgts = [n.tgt for n in b_mors]
    mors = {}
    for m in cat_a.morphisms.values():
        ids = mor_ids[m.id].values()
        srcs = map(obj_ids[m.src].__getitem__, b_srcs)
        tgts = map(obj_ids[m.tgt].__getitem__, b_tgts)
        mors.update(zip(ids, map(Morphism, ids, srcs, tgts)))

    b_gs = [g for g, _ in cat_b.compose_table]
    b_fs = [f for _, f in cat_b.compose_table]
    b_cs = list(cat_b.compose_table.values())
    compose = {}
    for (g1, f1), c1 in cat_a.compose_table.items():
        keys = zip(map(mor_ids[g1].__getitem__, b_gs), map(mor_ids[f1].__getitem__, b_fs))
        compose.update(zip(keys, map(mor_ids[c1].__getitem__, b_cs)))
    identities = {
        obj_ids[a][b]: mor_ids[cat_a.identities[a]][cat_b.identities[b]]
        for a in cat_a.objects
        for b in cat_b.objects
    }
    cat = FiniteCategory(tuple(sorted(identities)), mors, compose, identities)

    on_objects = {
        obj_ids[a][b]: tuple(
            elem_ids[x][y] for x in ff_a.on_objects[a] for y in ff_b.on_objects[b]
        )
        for a in cat_a.objects
        for b in cat_b.objects
    }
    b_tables = [
        (list(tb), list(tb.values())) for tb in map(ff_b.on_morphisms.__getitem__, cat_b.morphisms)
    ]
    on_morphisms = {}
    for m in cat_a.morphisms:
        rows = [
            (elem_ids[x].__getitem__, elem_ids[v].__getitem__)
            for x, v in ff_a.on_morphisms[m].items()
        ]
        for mid, (keys, values) in zip(mor_ids[m].values(), b_tables):
            table = {}
            for key_of, value_of in rows:
                table.update(zip(map(key_of, keys), map(value_of, values)))
            on_morphisms[mid] = table
    return cat, FibreFunctor(on_objects, on_morphisms)


@dataclass
class CatFunctor:
    source: FiniteCategory
    target: FiniteCategory
    on_objects: dict[str, str]
    on_morphisms: dict[str, str]


def identity_cat_functor(cat: FiniteCategory) -> CatFunctor:
    return CatFunctor(
        cat,
        cat,
        {v: v for v in cat.objects},
        {m: m for m in cat.morphisms},
    )


def validate_cat_functor(phi: CatFunctor) -> ValidationReport:
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
    on = phi.on_morphisms

    def holds(g, f):
        pg, pf = on.get(g), on.get(f)
        if pg is None or pf is None:
            return True
        return tgt.compose_table.get((pg, pf)) == on.get(src.compose_table[(g, f)])

    # the module docstring's proof needs the checks above and both categories lawful
    lawful = rep.ok and src.laws.ok and tgt.laws.ok
    for g, f in _law_failures(src, src.laws.generators if lawful else None, holds):
        rep.add("functor-composition", f"({g}, {f})")
    return rep


def precompose_fibre_functor(gg: FibreFunctor, phi: CatFunctor) -> FibreFunctor:
    """Pull a fibre functor on the target category back along a functor."""
    on_objects = {v: gg.on_objects[phi.on_objects[v]] for v in phi.source.objects}
    on_morphisms = {m: dict(gg.on_morphisms[phi.on_morphisms[m]]) for m in phi.source.morphisms}
    return FibreFunctor(on_objects, on_morphisms)
