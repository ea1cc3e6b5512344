"""Trivializations, local triviality certificates and covering realizations.

Over a connected region whose transitions are all invertible in the
fibre-functor image, charts are propagated from the least cell along the
spanning tree of the incidence graph, in discovery order.  Tree
incidences are compatible by construction, so only the closing
incidences that the walk returns (the non-tree ones) are tested; the
first failing one in sorted order closes a holonomy loop that is
reported as the obstruction.  Closed stars of a complex are contractible,
so for groupoid-style bundles the star-by-star sweep always succeeds and
its output is a complete locally-trivial atlas.

Every region is walked in place by ``cellbase.region_walk``, restricted to
the region, so no star is copied into a subcomplex and no star's
incidences are sorted.  Each region's cells are sorted once: the least is
the walk's root and the sorted tuple is the trivialization's region.
Charts are composed by lookups in the category's ``compose_table``.
``trivialize_over`` first checks that every transition of its region has
an image inverse.  The certificate needs no such scan: its groupoid check
on the faithful image already gives every morphism an inverse in the
image.  Each inverse is worked out once, on first use, in the category's
table for the bundle's functor (``fincat.image_inverses``), which the
whole command shares: the gate, every star of the sweep and every later
check.  Each chart compatibility is tested once per sweep.
The sweep builds each closed star with ``cellbase.star_cells``.

``covering_space`` counts the components of the total space as the orbits
of its monodromy permutations on the basepoint fibre when the base is
connected, the classical correspondence for coverings of a connected
base.  Over a disconnected base it has no monodromy and falls back to
union-find over the total space.  Equal transports along the spanning
tree are one table, so each distinct pair of step and transport is
composed once, and each distinct monodromy triple (transport at the face,
transition, transport at the cell) is worked out once; every monodromy
entry still holds its own permutation dict.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import cellbase, fincat, strabundle
from .cellbase import Stratification
from .strabundle import StratBundle, TotalComplex
from .validation import PreconditionError, StructureError, ValidationReport


@dataclass
class Trivialization:
    region: tuple[str, ...]
    object: str
    charts: dict[str, str]  # cell -> iso onto the common fibre object


@dataclass
class Obstruction:
    loop: tuple[str, ...]
    holonomy: str
    detail: str


@dataclass
class TrivializeResult:
    trivialization: Trivialization | None
    obstruction: Obstruction | None

    @property
    def ok(self) -> bool:
        return self.trivialization is not None


def trivialize_over(x: StratBundle, region) -> TrivializeResult:
    """Charts onto one fibre object over a connected region, or a holonomy loop.

    Requires every transition inside the region to be invertible in the
    image of the fibre functor.
    """
    cells = cellbase.face_closed_set(x.base, region)
    if not cells:
        raise StructureError("region is empty")
    memo = _Memo(x)
    faces, transition, inverses = x.base.cells, x.transition, memo.inverses
    incidences = [(f, c) for c in cells for f in faces[c].faces]
    # one test per distinct morphism; a failure names the first incidence in sorted order
    if any(inverses[mid] is None for mid in {transition[inc] for inc in incidences}):
        f, c = min(inc for inc in incidences if inverses[transition[inc]] is None)
        raise PreconditionError(
            f"transition ({f}, {c}) -> {transition[(f, c)]} is not invertible over the region"
        )
    return _trivialize(x, cells, tuple(sorted(cells)), memo)


class _Lazy(dict):
    """A table that computes the value of a missing key on its first lookup and keeps it."""

    __slots__ = ("compute",)

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


class _Memo:
    """Image inverses by morphism id, chart compatibility by (chart_f, transition, chart_c).

    ``inverses`` is the category's own table for the bundle's functor,
    ``fincat.image_inverses``, so it outlives the memo.
    """

    def __init__(self, x: StratBundle):
        on = x.ff.on_morphisms
        self.inverses = fincat.image_inverses(x.cat, x.ff)
        # whether chart_f after the transition acts as chart_c
        self.compatible = _Lazy(
            lambda key: fincat.compose_tables(on[key[0]], on[key[1]]) == on[key[2]]
        )


def _trivialize(x: StratBundle, region, cells: tuple[str, ...], memo: _Memo) -> TrivializeResult:
    """``trivialize_over`` on a known, face-closed, non-empty ``region`` of ``x.base``
    whose transitions all have image inverses; ``cells`` is the region sorted."""
    root = cells[0]
    order, parent, closing = cellbase.region_walk(x.base, region, root)
    if len(order) != len(region):
        raise StructureError("incidence graph is disconnected")
    obj = x.fibre_obj[root]
    charts = {root: x.cat.identities[obj]}
    compose, transition, inverses = x.cat.compose_table, x.transition, memo.inverses
    pair = None
    try:
        for nxt in order[1:]:
            cur, edge = parent[nxt]
            mid = transition[edge]
            # stepping down to the face inverts the transition afterwards;
            # stepping up from the face ``cur`` applies it
            pair = (charts[cur], inverses[mid]) if nxt == edge[0] else (charts[cur], mid)
            charts[nxt] = compose[pair]
    except KeyError:
        if pair is None or pair in compose:
            raise
        x.cat.compose(*pair)  # raises the StructureError that names the missing composite

    # tree incidences are compatible by construction, so only the closing
    # ones are tested; a failure names the first in sorted order
    compatible = memo.compatible
    bad = [
        inc for inc in closing if not compatible[charts[inc[0]], transition[inc], charts[inc[1]]]
    ]
    if bad:
        f, c = min(bad)
        compose = x.cat.compose
        holonomy = compose(compose(charts[f], transition[(f, c)]), inverses[charts[c]])
        return TrivializeResult(
            None,
            Obstruction(
                _loop_through(parent, f, c),
                holonomy,
                f"incidence ({f}, {c}) closes a loop with non-identity holonomy {holonomy}",
            ),
        )
    # chart compatibility now holds on every incidence, tree or not
    return TrivializeResult(Trivialization(cells, obj, charts), None)


def _loop_through(parent, f: str, c: str) -> tuple[str, ...]:
    """Cycle closed by the non-tree incidence (f, c): c up to the meet, back down to f."""

    def path_to_root(cell):
        out = [cell]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]][0])
        return out

    up_f, up_c = path_to_root(f), path_to_root(c)
    common = set(up_f) & set(up_c)

    def to_meet(path):
        return path[: next(i for i, cell in enumerate(path) if cell in common) + 1]

    return tuple(to_meet(up_c) + to_meet(up_f)[-2::-1])


def validate_trivialization(x: StratBundle, t: Trivialization) -> ValidationReport:
    rep = ValidationReport("trivialization")
    # the region's own cells and faces, read in place: this check shares
    # no walk with the sweep that made the charts
    cells = sorted(cellbase.face_closed_set(x.base, t.region))
    faces = x.base.cells
    for c in cells:
        mid = t.charts.get(c)
        if mid is None:
            rep.add("chart-missing", c)
            continue
        m = x.cat.morphisms[mid]
        if m.src != x.fibre_obj[c] or m.tgt != t.object:
            rep.add("chart-typing", c)
        elif not fincat.is_iso_in_image(x.cat, x.ff, mid):
            rep.add("chart-iso", c)
    if not rep.ok:
        return rep
    for f, c in sorted((f, c) for c in cells for f in faces[c].faces):
        lhs = fincat.compose_tables(x.ff.on_morphisms[t.charts[f]], x.transition_table(f, c))
        if lhs != x.ff.on_morphisms[t.charts[c]]:
            rep.add("chart-compatibility", f"incidence ({f}, {c})")
    return rep


@dataclass
class TrivialityCertificate:
    stars: dict[str, Trivialization]


def local_triviality_certificate(x: StratBundle) -> TrivialityCertificate:
    """Trivialize over the closed star of every cell.

    Requires the faithful image of the structure category to be a
    groupoid: the first morphism in sorted id order without an image
    inverse, always its class's least member, is the witness otherwise.
    The check also gives every transition an image inverse, so the stars
    skip the invertibility scan of ``trivialize_over``.  Failure over
    some star would contradict coherence and is raised as an internal
    error rather than returned.
    """
    memo = _Memo(x)  # each inverse is found once and shared by all the stars
    witness = next((m for m in sorted(x.cat.morphisms) if memo.inverses[m] is None), None)
    if witness is not None:
        raise PreconditionError(
            f"structure category is not a groupoid in its faithful image; witness {witness}"
        )
    stars = {}
    for c in x.base.sorted_cells():
        # a closed star is a union of face closures, so it needs none of
        # the region checks of ``trivialize_over`` either
        star = cellbase.star_cells(x.base, c)
        res = _trivialize(x, star, tuple(sorted(star)), memo)
        if not res.ok:
            raise StructureError(
                f"closed star of {c} failed to trivialize: {res.obstruction.detail}; "
                "this contradicts coherence and indicates a defect in the bundle data"
            )
        stars[c] = res.trivialization
    return TrivialityCertificate(stars)


def permutation_cycle_type(perm: dict[str, str]) -> tuple[int, ...]:
    seen = set()
    lengths = []
    for start in sorted(perm):
        if start in seen:
            continue
        n = 0
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = perm[cur]
            n += 1
        lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


@dataclass
class MonodromyEntry:
    closing_incidence: tuple[str, str]
    permutation: dict[str, str]
    cycle_type: tuple[int, ...]


@dataclass
class CoveringCertificate:
    total: TotalComplex
    components: int
    sheets: dict[str, int]  # least cell of each base component -> sheet count
    even_cover: bool
    basepoint: str
    monodromy: list[MonodromyEntry]


def covering_space(x: StratBundle) -> CoveringCertificate:
    """Realize the bundle as a covering of the base poset.

    Requires every transition to act bijectively on fibres.  The
    certificate records component and sheet counts, the even-covering
    flag, and, over a connected base, the monodromy permutation of the
    basepoint fibre around the fundamental cycle of each closing
    incidence, in sorted order.  The total space then has one component
    per orbit of those permutations; over a disconnected base its
    components are found by union-find instead.
    """
    bijective: dict[tuple[str, str], bool] = {}  # by (morphism, face object)
    for f, c in x.base.incidences:
        mid = x.transition[(f, c)]
        key = (mid, x.fibre_obj[f])
        if key not in bijective:
            bijective[key] = fincat.is_bijective_table(x.ff.on_morphisms[mid], x.fibre_set(f))
        if not bijective[key]:
            raise PreconditionError(f"transition ({f}, {c}) -> {mid} is not a bijection")
    total = strabundle.realize_total(x)

    base_nodes = x.base.sorted_cells()
    basepoint = base_nodes[0]
    order, parent, closing = cellbase.region_walk(x.base)
    if len(order) != len(base_nodes):
        # a disconnected base: components by union-find, and no monodromy
        base_comps = cellbase.connected_components(base_nodes, list(x.base.incidences))
        sheets = {min(comp): _sheet_count(x, comp) for comp in base_comps}
        components = len(
            cellbase.connected_components(list(total.elements), list(total.relations))
        )
        return CoveringCertificate(total, components, sheets, True, basepoint, [])

    sheets = {basepoint: _sheet_count(x, base_nodes)}
    on, transition = x.ff.on_morphisms, x.transition
    # by transition morphism: moving up applies the inverse bijection
    inverse_steps = _Lazy(lambda mid: {w: v for v, w in on[mid].items()})
    # transport[cell]: the fibre bijection carrying the basepoint fibre
    # out to ``cell`` along the tree path.  Equal transports are one table
    # object (``tables``, by content), so each distinct pair of step and
    # transport, keyed by the tables' ids, is composed once
    transport = {basepoint: fincat.identity_table(x.fibre_set(basepoint))}
    tables = {tuple(transport[basepoint].items()): transport[basepoint]}
    composed: dict[tuple[int, int], dict[str, str]] = {}
    for nxt in order[1:]:
        cur, edge = parent[nxt]
        mid = transition[edge]
        step = on[mid] if nxt == edge[0] else inverse_steps[mid]  # moving down applies it
        before = transport[cur]
        key = (id(step), id(before))
        table = composed.get(key)
        if table is None:
            table = fincat.compose_tables(step, before)
            table = composed[key] = tables.setdefault(tuple(table.items()), table)
        transport[nxt] = table

    # each distinct (transport at the face, transition, transport at the
    # cell) triple is worked out once; every entry gets its own copy
    perms: dict[tuple[int, str, int], tuple[dict[str, str], tuple[int, ...]]] = {}
    monodromy = []
    for f, c in sorted(closing):
        mid = transition[(f, c)]
        key = (id(transport[f]), mid, id(transport[c]))
        found = perms.get(key)
        if found is None:
            back = {w: v for v, w in transport[f].items()}
            perm = fincat.compose_tables(back, fincat.compose_tables(on[mid], transport[c]))
            found = perms[key] = (perm, permutation_cycle_type(perm))
        monodromy.append(MonodromyEntry((f, c), dict(found[0]), found[1]))
    # over a connected base the components of the total space are the
    # orbits of the monodromy group on the basepoint fibre
    orbits = cellbase.connected_components(
        transport[basepoint], [pair for perm, _ in perms.values() for pair in perm.items()]
    )
    components = len(orbits)
    # every transition is a bijection onto its face fibre, so the cover is even
    return CoveringCertificate(total, components, sheets, True, basepoint, monodromy)


def _sheet_count(x: StratBundle, component) -> int:
    """The fibre size over a connected ``component`` of the base, which must be constant."""
    sizes = {len(x.fibre_set(c)) for c in component}
    if len(sizes) != 1:
        raise StructureError(f"sheet count is not constant on component of {min(component)}")
    return sizes.pop()


@dataclass
class StratumPiece:
    index: int
    attached: StratBundle  # restriction to the closure of the stratum
    boundary: StratBundle  # its part inside lower strata


@dataclass
class StratifyResult:
    bundle: StratBundle
    decomposition: list[StratumPiece]


def stratify_bundle(x: StratBundle, strat: Stratification) -> StratifyResult:
    """Re-stratify a bundle whose transitions are all invertible.

    The stratification is supplied by the caller: a plain bundle does not
    determine one.  Emits the attachment decomposition, one piece per
    positive stratum.
    """
    for key, mid in sorted(x.transition.items()):
        if not fincat.is_iso_in_image(x.cat, x.ff, mid):
            raise PreconditionError(f"transition {key} -> {mid} is not invertible")
    bundle = StratBundle(x.base, strat, x.cat, x.ff, dict(x.fibre_obj), dict(x.transition))
    strabundle.validate_bundle(bundle).raise_if_invalid()
    pieces = []
    for k in range(1, strat.depth + 1):
        stratum_cells = {c for c, i in strat.strata.items() if i == k}
        closure = set()
        for c in stratum_cells:
            closure |= x.base.below[c]
        boundary = {c for c in closure if strat.strata[c] < k}
        pieces.append(
            StratumPiece(
                k,
                strabundle.restrict(bundle, closure),
                strabundle.restrict(bundle, boundary),
            )
        )
    return StratifyResult(bundle, pieces)
