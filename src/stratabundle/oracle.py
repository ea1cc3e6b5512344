"""Seeded instance generators and theorem verification suites.

Instances are generated so that validity holds by construction:
categories are built from function tables closed under composition (the
axioms are inherited from function composition), and bundles are built by
iterated attachment of twisted product pieces whose boundary data is
transported from a single morphism, which forces naturality.  The suites
still pass every generated input through the bundle gate,
``strabundle.bundle_stages``, and check what they build from it with its
stages 6-8, ``validate_bundle`` (which trusts the fiberwise product's new
category); defects are ``invalid-input`` (generator bug), kept apart from
``theorem-violation`` (which must never occur).

``run_suite(name, spec, seeds)`` is the one driver.  It rejects unknown
names and seed counts below one, forces ``groupoid_only`` for the bundle
suite, and times one loop over ``spec.seed .. spec.seed + seeds - 1``
that records into a ``Report``.  ``SUITES`` maps each name to a per-seed
check: it receives the spec for that seed and returns exactly one
``(outcome, stage, detail)``, where the outcome is ``pass``,
``invalid-input`` or ``theorem-violation``.  A check catches exceptions
only around the stages it names; any other exception propagates.

The pseudorandom source is splitmix64 with the standard constants;
integers below n are drawn as ``next() % n``.  Reports record the
algorithm name so identical instances can be rebuilt from the seed by
any implementation.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from . import cellbase, fincat, funcspace, strabundle, triviality
from .cellbase import BaseComplex, SimplicialMap, Stratification
from .fincat import FibreFunctor, FiniteCategory
from .strabundle import StratBundle
from .validation import StructureError, first_failure

RNG_NAME = "splitmix64"
_MORPHISM_CAP = 28


class SplitMix64:
    """splitmix64 with the reference constants; 64-bit wrapping arithmetic."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise StructureError("below() needs a positive bound")
        return self.next_u64() % n

    def choice(self, seq):
        seq = list(seq)
        return seq[self.below(len(seq))]

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices out of range(n), order-dependent on the stream."""
        pool = list(range(n))
        out = []
        for _ in range(k):
            out.append(pool.pop(self.below(len(pool))))
        return out


@dataclass(frozen=True)
class InstanceSpec:
    seed: int
    max_cells: int = 30
    max_objects: int = 3
    max_fibre_size: int = 4
    groupoid_only: bool = False
    strata_depth: int = 3

    def __post_init__(self):
        if self.seed < 0:
            raise StructureError("seed must be non-negative")
        for name in ("max_cells", "max_objects", "max_fibre_size", "strata_depth"):
            if getattr(self, name) < 1:
                raise StructureError(f"{name} must be at least 1")

    def with_seed(self, seed: int) -> "InstanceSpec":
        return replace(self, seed=seed)


def _random_table(rng: SplitMix64, n_src: int, n_tgt: int, bijective: bool) -> tuple:
    """A random function's images, as indices into the target fibre; a bijection if asked."""
    if bijective:
        return tuple(rng.sample_indices(n_tgt, n_tgt))
    return tuple(rng.below(n_tgt) for _ in range(n_src))


def _compose(inner: tuple, outer: tuple) -> tuple:
    """Index table of ``outer`` after ``inner``: the one place the closure composes two tables."""
    return tuple(map(outer.__getitem__, inner))


def _close(tables: dict[tuple[str, str, tuple], None]) -> bool:
    """Close ``tables`` under composition in place; False once it holds more than the cap.

    Semi-naive: each table, when first reached, is composed with every
    table reached before it, in both orders, and with itself.  So each
    composable ordered pair of the closure is composed exactly once
    (Bancilhon & Ramakrishnan, "An amateur's introduction to recursive
    query processing strategies", SIGMOD 1986).  A table is
    ``(src, tgt, images)``, the images being indices into ``tgt``'s fibre.
    """
    into: dict[str, list] = {}
    out_of: dict[str, list] = {}
    reached = list(tables)
    for key in reached:
        src, tgt, table = key
        into.setdefault(tgt, []).append(key)
        composites = [(s, tgt, _compose(inner, table)) for s, _, inner in into.get(src, ())]
        composites += [(src, t, _compose(table, outer)) for _, t, outer in out_of.get(tgt, ())]
        out_of.setdefault(src, []).append(key)
        for new in composites:
            if new not in tables:
                tables[new] = None
                if len(tables) > _MORPHISM_CAP:
                    return False
                reached.append(new)
    return True


def gen_category(spec: InstanceSpec, rng: SplitMix64 | None = None) -> tuple[FiniteCategory, FibreFunctor]:
    """Random category of concrete functions between random finite sets.

    Morphisms are (deduplicated) function tables, so associativity and
    identity laws hold by construction; with ``groupoid_only`` the
    generators are bijections added together with their inverses, making
    the closure a groupoid.  The fibre functor is the tautological one and
    is faithful by construction.

    ``_close`` closes the identities and generators under composition,
    composing each ordered pair of tables once.  A closure of more than
    ``_MORPHISM_CAP`` tables overflows, and the generators are drawn
    again with one fewer; the closure draws nothing from ``rng``.
    """
    rng = rng or SplitMix64(spec.seed)
    n_obj = 1 + rng.below(spec.max_objects)
    objects = [f"V{i}" for i in range(n_obj)]
    sizes = {v: 1 + rng.below(spec.max_fibre_size) for v in objects}
    elems = {v: tuple(f"{v}.{i}" for i in range(sizes[v])) for v in objects}

    for gen_budget in range(2 * n_obj, -1, -1):
        tables: dict[tuple[str, str, tuple], None] = {}
        for v in objects:
            tables[(v, v, tuple(range(sizes[v])))] = None
        for k in range(gen_budget):
            src = rng.choice(objects)
            if spec.groupoid_only or k == 0:
                # always seed at least one invertible generator
                candidates = [w for w in objects if sizes[w] == sizes[src]]
                tgt = rng.choice(candidates)
                table = _random_table(rng, sizes[src], sizes[tgt], True)
                tables[(src, tgt, table)] = None
                tables[(tgt, src, tuple(table.index(i) for i in range(sizes[tgt])))] = None
            else:
                tgt = rng.choice(objects)
                tables[(src, tgt, _random_table(rng, sizes[src], sizes[tgt], False))] = None
        if _close(tables):
            break

    named = sorted((s, t, tuple(map(elems[t].__getitem__, table))) for s, t, table in tables)
    ids = {}
    rank: dict[tuple[str, str], int] = {}
    for key in named:
        s, t, _ = key
        k = rank.get((s, t), 0)
        rank[(s, t)] = k + 1
        ids[key] = f"{s}>{t}#{k}"
    morphisms = [(ids[key], key[0], key[1]) for key in named]
    actions = {ids[key]: dict(zip(elems[key[0]], key[2])) for key in named}
    return fincat.concrete_category(elems, morphisms, actions)


@dataclass
class BaseRound:
    m: BaseComplex
    a_cells: frozenset[str]
    h: SimplicialMap


@dataclass
class GeneratedBase:
    complex: BaseComplex
    strat: Stratification
    rounds: list[BaseRound]


def gen_base(spec: InstanceSpec, rng: SplitMix64) -> GeneratedBase:
    """Random connected graph, then one simplex attachment per extra stratum."""
    n_v = 2 + rng.below(4)
    entries = [(f"v{i}", 0, []) for i in range(n_v)]
    edges = set()
    for i in range(1, n_v):
        j = rng.below(i)
        edges.add(tuple(sorted((f"v{i}", f"v{j}"))))
    for _ in range(rng.below(n_v + 1)):
        i, j = rng.below(n_v), rng.below(n_v)
        if i != j:
            edges.add(tuple(sorted((f"v{i}", f"v{j}"))))
    for a, b in sorted(edges):
        entries.append((cellbase.simplex_name([a, b]), 1, [a, b]))
    complex_ = cellbase.complex_from_cells(entries)
    strat = cellbase.single_stratum(complex_)

    rounds: list[BaseRound] = []
    # bias towards the full depth while keeping shallow instances in the mix
    n_rounds = max(rng.below(spec.strata_depth), rng.below(spec.strata_depth))
    for round_idx in range(n_rounds):
        dim = 1 + rng.below(2)
        m = cellbase.simplex_complex([f"w{round_idx}x{i}" for i in range(dim + 1)])
        if len(complex_.cells) + len(m.cells) > spec.max_cells:
            break
        mode = rng.choice(["facet", "vertex", "empty"])
        if mode == "empty":
            a_cells = frozenset()
            h = SimplicialMap(cellbase.subcomplex(m, a_cells), complex_, {}, {})
        else:
            if mode == "vertex":
                a_top = rng.choice(m.vertices())
            else:
                facets = [c for c in m.cells if m.cells[c].dim == dim - 1]
                a_top = rng.choice(sorted(facets))
            a_cells = frozenset(m.below[a_top])
            a_verts = sorted(v for v in a_cells if m.cells[v].dim == 0)
            candidates = [
                c for c in complex_.sorted_cells()
                if len(complex_.vertices_of[c]) >= len(a_verts)
            ]
            target = rng.choice(candidates)
            tverts = list(complex_.vertices_of[target])
            picked = rng.sample_indices(len(tverts), len(a_verts))
            vm = {a_verts[i]: tverts[picked[i]] for i in range(len(a_verts))}
            h = SimplicialMap.from_vertex_map(
                cellbase.subcomplex(m, a_cells), complex_, vm
            )
        attached = cellbase.attach_base(complex_, strat, m, a_cells, h)
        rounds.append(BaseRound(m, a_cells, h))
        complex_, strat = attached.complex, attached.strat
    return GeneratedBase(complex_, strat, rounds)


def _iso_structure(cat: FiniteCategory, ff: FibreFunctor):
    """Pairs of mutually inverse morphisms per ordered object pair, plus classes."""
    iso_maps: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for a in cat.objects:
        for b in cat.objects:
            pairs = []
            for m in cat.hom(a, b):
                inv = fincat.image_inverse(cat, ff, m)
                if inv is not None:
                    pairs.append((m, inv))
            iso_maps[(a, b)] = pairs
    edges = [
        (a, b)
        for (a, b), pairs in iso_maps.items()
        if pairs and a != b
    ]
    comps = cellbase.connected_components(list(cat.objects), edges)
    classes = [sorted(c) for c in comps]
    return iso_maps, classes


@dataclass
class GeneratedBundle:
    bundle: StratBundle
    base: GeneratedBase
    last_attachment: strabundle.AttachBundleResult | None


def gen_bundle(
    spec: InstanceSpec,
    cat: FiniteCategory,
    ff: FibreFunctor,
    rng: SplitMix64 | None = None,
    base: GeneratedBase | None = None,
) -> GeneratedBundle:
    """Random bundle over a generated stratified base.

    The bottom stratum is a graph, so its transitions may be arbitrary
    within-class isomorphisms (there are no coherence squares to break);
    each later stratum is a twisted product over one simplex whose
    transitions factor through a common object, and the attaching
    morphisms are transported from one choice at the top boundary cell.
    """
    rng = rng or SplitMix64(spec.seed)
    if base is None:
        base = gen_base(spec, rng)
    iso_maps, classes = _iso_structure(cat, ff)

    graph_cells = [c for c, k in base.strat.strata.items() if k == 0]
    graph = cellbase.subcomplex(base.complex, graph_cells)
    cls = rng.choice(classes)
    fibre_obj = {c: rng.choice(cls) for c in graph.sorted_cells()}
    transition = {}
    for f, c in graph.incidences:
        transition[(f, c)] = rng.choice(iso_maps[(fibre_obj[c], fibre_obj[f])])[0]
    bundle = StratBundle(
        graph, cellbase.single_stratum(graph), cat, ff, fibre_obj, transition
    )
    last = None
    for round_ in base.rounds:
        m, a_cells, h = round_.m, round_.a_cells, round_.h
        if a_cells:
            a_top = max(a_cells, key=lambda c: (m.cells[c].dim, c))
            anchor = bundle.fibre_obj[h.cell_map[a_top]]
            cls_m = next(c for c in classes if anchor in c)
            pivot = rng.choice(cls_m)
        else:
            cls_m = rng.choice(classes)
            pivot = rng.choice(cls_m)
        m_fibres = {c: rng.choice(cls_m) for c in m.sorted_cells()}
        sigma = {c: rng.choice(iso_maps[(m_fibres[c], pivot)]) for c in m.cells}
        m_transition = {}
        for f, c in m.incidences:
            m_transition[(f, c)] = cat.compose(sigma[f][1], sigma[c][0])
        m_bundle = StratBundle(
            m, cellbase.single_stratum(m), cat, ff, m_fibres, m_transition
        )
        fibre_morphisms = {}
        if a_cells:
            psi_top = rng.choice(cat.hom(pivot, bundle.fibre_obj[h.cell_map[a_top]]))
            for a in sorted(a_cells):
                path = strabundle.transition_path(bundle, h.cell_map[a_top], h.cell_map[a])
                psi = cat.compose(path, psi_top)
                fibre_morphisms[a] = cat.compose(psi, sigma[a][0])
        last = strabundle.attach_bundle(bundle, m_bundle, a_cells, h, fibre_morphisms)
        bundle = last.bundle
    return GeneratedBundle(bundle, base, last)


@dataclass
class Report:
    suite: str
    rng: str
    base_seed: int
    seeds: int
    params: dict
    instances: int = 0
    passes: int = 0
    failures: list[dict] = field(default_factory=list)
    invalid_inputs: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    elapsed: float | None = None  # excluded from the canonical document

    def record(self, seed: int, outcome: str, stage: str = "", detail: str = "") -> None:
        self.instances += 1
        if outcome == "pass":
            self.passes += 1
        elif outcome == "invalid-input":
            self.invalid_inputs.append({"seed": seed, "stage": stage, "detail": detail})
        else:
            self.failures.append({"seed": seed, "stage": stage, "detail": detail})

    def to_doc(self) -> dict:
        return {
            "suite": self.suite,
            "rng": self.rng,
            "base_seed": self.base_seed,
            "seeds": self.seeds,
            "params": dict(self.params),
            "instances": self.instances,
            "passes": self.passes,
            "failures": list(self.failures),
            "invalid_inputs": list(self.invalid_inputs),
            "notes": list(self.notes),
            "wall_time": None,
        }


def _spec_params(spec: InstanceSpec) -> dict:
    return {
        "max_cells": spec.max_cells,
        "max_objects": spec.max_objects,
        "max_fibre_size": spec.max_fibre_size,
        "groupoid_only": spec.groupoid_only,
        "strata_depth": spec.strata_depth,
    }


def _gen_instance(spec: InstanceSpec):
    rng = SplitMix64(spec.seed)
    cat, ff = gen_category(spec, rng)
    gen = gen_bundle(spec, cat, ff, rng)
    return rng, cat, ff, gen


def _valid_instance(spec: InstanceSpec):
    """Generate, then validate: ``(instance, None)`` or ``(None, outcome)``."""
    try:
        rng, cat, ff, gen = _gen_instance(spec)
    except Exception as exc:  # generator defect, not a theorem statement
        return None, ("invalid-input", "generate", repr(exc))
    if (failed := first_failure(strabundle.bundle_stages(gen.bundle))) is not None:
        return None, ("invalid-input", "generate", str(failed.violations[0]))
    return (rng, cat, ff, gen), None


def _pullback_setups(rng: SplitMix64, gen: GeneratedBundle):
    """One stratum-preserving map with enough lift data to re-attach."""
    z = gen.bundle
    kind = rng.choice(["identity", "copies", "fold"])
    if kind == "fold":
        fold = _find_fold(rng, gen)
        if fold is None:
            kind = "identity"
        else:
            return "fold", fold
    if kind == "identity":
        return "identity", cellbase.identity_map(z.base)
    return "copies", None


def _seam_vertices(gen: GeneratedBundle) -> set[str]:
    z = gen.bundle
    seam = set()
    for (f, c), _ in z.transition.items():
        if z.strat.strata[f] != z.strat.strata[c]:
            seam |= set(z.base.vertices_of[f])
    return seam


def _find_fold(rng: SplitMix64, gen: GeneratedBundle) -> SimplicialMap | None:
    """A vertex fold of the base onto itself away from all attachment seams.

    The folded vertex must avoid every seam and the whole newest stratum,
    so that the last attachment round is fixed pointwise and the fold
    restricts to the lower part.
    """
    z = gen.bundle
    base = z.base
    if not base.is_simplicial:
        return None
    seam = _seam_vertices(gen)
    frozen = set(seam)
    if gen.last_attachment is not None:
        for c in gen.last_attachment.new_cells:
            frozen |= set(base.vertices_of[c])
    verts = base.vertices()
    candidates = []
    for u in verts:
        if u in frozen:
            continue
        if any(z.strat.strata[c] != z.strat.strata[u] for c in base.above[u]):
            continue
        for v in verts:
            if v == u:
                continue
            candidates.append((u, v))
    order = rng.sample_indices(len(candidates), len(candidates)) if candidates else []
    for idx in order:
        u, v = candidates[idx]
        vm = {w: (v if w == u else w) for w in verts}
        try:
            fold = SimplicialMap.from_vertex_map(base, base, vm)
        except StructureError:
            continue
        ok, _ = cellbase.stratum_preserving(fold, z.strat, z.strat)
        if ok:
            return fold
    return None


def _doubled(x: StratBundle) -> StratBundle:
    """The disjoint union of two copies of ``x``, cell ``c`` of copy ``i`` relabelled ``c~i``."""
    copies = [strabundle.relabel_bundle(x, lambda c, i=i: f"{c}~{i}") for i in range(2)]
    return strabundle.disjoint_union_bundle(*copies)


def _check_pullback(spec: InstanceSpec):
    instance, invalid = _valid_instance(spec)
    if invalid:
        return invalid
    rng, _, _, gen = instance
    z = gen.bundle
    kind, payload = _pullback_setups(rng, gen)
    try:
        if kind in ("identity", "fold"):
            fbar = payload
            pulled = strabundle.pullback(z, fbar, z.strat)
        else:
            doubled = _doubled(z)
            cm = {f"{c}~{i}": c for c in z.base.cells for i in range(2)}
            vmm = {f"{v}~{i}": v for v in z.base.vertices() for i in range(2)}
            fbar = SimplicialMap(doubled.base, z.base, vmm, cm)
            pulled = strabundle.pullback(z, fbar, doubled.strat)
        lhs = pulled.bundle
    except Exception as exc:
        return "theorem-violation", "pullback", repr(exc)
    rep = strabundle.validate_bundle(lhs)
    if not rep.ok:
        return "theorem-violation", "pullback-validate", str(rep.violations[0])
    vmap = strabundle.validate_fbundle_map(pulled.covering)
    if not vmap.ok:
        return "theorem-violation", "pullback-covering", str(vmap.violations[0])
    if gen.last_attachment is None:
        return "pass", "pullback", "no attachment round; commutation skipped"
    try:
        square = _commuted_square(z, gen, kind, fbar)
    except Exception as exc:
        return "theorem-violation", "commutation-build", repr(exc)
    if square is not None:
        rhs, psquare = square
        if not strabundle.bundle_eq(lhs, rhs):
            return "theorem-violation", "commutation", "pullback of attachment differs"
        check = strabundle.pushout_universality_check(psquare)
        if not check.ok:
            return "theorem-violation", "universality", check.witness or ""
    return "pass", "", ""


def _commuted_square(z: StratBundle, gen: GeneratedBundle, kind: str, fbar: SimplicialMap):
    """Re-attach the pulled-back pieces; the result must equal the pulled-back whole."""
    last = gen.last_attachment
    y, m, h = last.square.y, last.square.m, last.square.h
    a_cells = frozenset(h.source.base.cells)
    if kind == "identity":
        res = strabundle.attach_bundle(y, m, a_cells, h.base_map, h.fibre_morphisms)
        return res.bundle, res.square
    if kind == "fold":
        # the fold fixes every seam cell, so the attaching data is unchanged
        y_cells = set(y.base.cells)
        fold_y = SimplicialMap(
            y.base,
            y.base,
            {v: fbar.vertex_map[v] for v in y.base.vertices()},
            {c: fbar.cell_map[c] for c in y_cells},
        )
        y_w = strabundle.pullback(y, fold_y, y.strat).bundle
        res = strabundle.attach_bundle(y_w, m, a_cells, h.base_map, dict(h.fibre_morphisms))
        return res.bundle, res.square
    # two disjoint copies folding back onto the original
    y_w, m_w = _doubled(y), _doubled(m)
    a_w = frozenset(f"{c}~{i}" for c in a_cells for i in range(2))
    hv = {}
    hc = {}
    hf = {}
    for i in range(2):
        for c in a_cells:
            hc[f"{c}~{i}"] = f"{h.base_map.cell_map[c]}~{i}"
            hf[f"{c}~{i}"] = h.fibre_morphisms[c]
        for v in h.source.base.vertices():
            hv[f"{v}~{i}"] = f"{h.base_map.vertex_map[v]}~{i}"
    base_map = SimplicialMap(cellbase.subcomplex(m_w.base, a_w), y_w.base, hv, hc)
    res = strabundle.attach_bundle(y_w, m_w, a_w, base_map, hf)
    return res.bundle, res.square


def _check_bundle(spec: InstanceSpec):
    instance, invalid = _valid_instance(spec)
    if invalid:
        return invalid
    _, _, _, gen = instance
    z = gen.bundle
    try:
        cert = triviality.local_triviality_certificate(z)
    except Exception as exc:
        return "theorem-violation", "certificate", repr(exc)
    for c, t in cert.stars.items():
        if not triviality.validate_trivialization(z, t).ok:
            return "theorem-violation", "certificate-check", f"star {c}"
    flat = StratBundle(
        z.base,
        cellbase.single_stratum(z.base),
        z.cat,
        z.ff,
        dict(z.fibre_obj),
        dict(z.transition),
    )
    try:
        again = triviality.stratify_bundle(flat, z.strat)
    except Exception as exc:
        return "theorem-violation", "stratify", repr(exc)
    if not strabundle.bundle_eq(again.bundle, z):
        return "theorem-violation", "stratify-roundtrip", "bundles differ"
    for piece in again.decomposition:
        if piece.attached.base.cells and not strabundle.validate_bundle(piece.attached).ok:
            return "theorem-violation", "decomposition", f"stratum {piece.index}"
    return "pass", "", ""


def classify_principal_instance(x: StratBundle) -> tuple[str, str]:
    """Bucket one bundle for the reconstruction suite.

    Distinguishes defective inputs from genuine reconstruction failures so
    mutated negative controls are reported without polluting the theorem
    count; a defective input fails a stage of the bundle gate.
    """
    if (failed := first_failure(strabundle.bundle_stages(x))) is not None:
        return "invalid-input", str(failed.violations[0])
    res = funcspace.reconstruct_check(x)
    if not res.ok:
        return "theorem-violation", str(res.coend.report.violations[:1])
    return "pass", ""


def _point_bundle(cat: FiniteCategory, ff: FibreFunctor, w: str) -> StratBundle:
    base = cellbase.complex_from_cells([("pt", 0, [])])
    return StratBundle(
        base, cellbase.single_stratum(base), cat, ff, {"pt": w}, {}
    )


def _check_principal(spec: InstanceSpec):
    try:
        _, cat, ff, gen = _gen_instance(spec)
    except Exception as exc:
        return "invalid-input", "generate", repr(exc)
    try:
        outcome, detail = classify_principal_instance(gen.bundle)
    except Exception as exc:
        return "theorem-violation", "reconstruct", repr(exc)
    if outcome != "pass":
        return outcome, "reconstruct", detail
    try:
        for w in cat.objects:
            res = funcspace.coend(_point_bundle(cat, ff, w))
            classes = res.classes["pt"]
            if len(classes) != len(ff.on_objects[w]) or not res.report.ok:
                return "theorem-violation", "point-coend", f"object {w}"
            # the coend reads its classes off the evaluation map; the union-find
            # closure of the generating relation is the independent computation
            by_union, _ = funcspace._coend_classes_by_union(cat, ff, w)
            if list(classes) != by_union:
                return "theorem-violation", "coend-partition", f"object {w}"
    except Exception as exc:
        return "theorem-violation", "point-coend", repr(exc)
    return "pass", "", ""


def _gen_pair(spec: InstanceSpec) -> tuple[StratBundle, StratBundle]:
    """Two bundles over one base, with independently generated categories."""
    rng = SplitMix64(spec.seed)
    cat_a, ff_a = gen_category(spec, rng)
    cat_b, ff_b = gen_category(spec, rng)
    base = gen_base(spec, rng)
    xa = gen_bundle(spec, cat_a, ff_a, rng, base).bundle
    xb = gen_bundle(spec, cat_b, ff_b, rng, base).bundle
    return xa, xb


def _check_fiberwise(spec: InstanceSpec):
    """Products of two independent bundles over one base: validity plus total-space pairing."""
    try:
        xa, xb = _gen_pair(spec)
    except Exception as exc:
        return "invalid-input", "generate", repr(exc)
    for x in (xa, xb):
        if (failed := first_failure(strabundle.bundle_stages(x))) is not None:
            return "invalid-input", "generate", str(failed.violations[0])
    try:
        prod = strabundle.fiberwise_product(xa, xb)
    except Exception as exc:
        return "theorem-violation", "product", repr(exc)
    if not strabundle.validate_bundle(prod).ok:
        return "theorem-violation", "product-validate", ""
    try:
        ta, tb, tp = (
            strabundle.realize_total(xa),
            strabundle.realize_total(xb),
            strabundle.realize_total(prod),
        )
    except Exception as exc:
        return "theorem-violation", "product-total", repr(exc)
    over_cell: dict[str, list[str]] = {}
    for c, w in tb.elements:
        over_cell.setdefault(c, []).append(w)
    paired = {
        (c, fincat.pair_id(v, w)) for c, v in ta.elements for w in over_cell.get(c, ())
    }
    if paired != set(tp.elements):
        return "theorem-violation", "product-total", "element sets differ"
    over_incidence: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for (f, vb), (c, wb) in tb.relations:
        over_incidence.setdefault((f, c), []).append((vb, wb))
    rel = {
        ((f, fincat.pair_id(va, vb)), (c, fincat.pair_id(wa, wb)))
        for (f, va), (c, wa) in ta.relations
        for vb, wb in over_incidence.get((f, c), ())
    }
    if rel != set(tp.relations):
        return "theorem-violation", "product-relations", "relation sets differ"
    return "pass", "", ""


def _check_associated(spec: InstanceSpec):
    """Transport along the identity functor must reproduce the bundle."""
    instance, invalid = _valid_instance(spec)
    if invalid:
        return invalid
    _, cat, ff, gen = instance
    x = gen.bundle
    try:
        y = funcspace.associated_bundle(x, fincat.identity_cat_functor(cat), ff)
    except Exception as exc:
        return "theorem-violation", "identity-transport", repr(exc)
    if not strabundle.bundle_eq(y, x):
        return "theorem-violation", "identity-transport", "bundle changed"
    return "pass", "", ""


SUITES = {
    "pullback": _check_pullback,
    "bundle": _check_bundle,
    "principal": _check_principal,
    "fiberwise": _check_fiberwise,
    "associated": _check_associated,
}


def run_suite(name: str, spec: InstanceSpec, seeds: int) -> Report:
    if name not in SUITES:
        raise StructureError(f"unknown suite {name}")
    if seeds < 1:
        raise StructureError("seeds must be at least 1")
    if name == "bundle":
        spec = replace(spec, groupoid_only=True)  # certificates need invertible transitions
    check = SUITES[name]
    report = Report(name, RNG_NAME, spec.seed, seeds, _spec_params(spec))
    start = time.perf_counter()
    for s in range(spec.seed, spec.seed + seeds):
        report.record(s, *check(spec.with_seed(s)))
    report.elapsed = time.perf_counter() - start
    return report
