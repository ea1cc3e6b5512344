"""Finite cell complexes, face posets, stratifications and simplicial maps.

A complex stores its cells with dimensions and codimension-one faces; the
full face poset is the reflexive-transitive closure of that relation.
Complexes are simplicial when every d-cell is spanned by d+1 distinct
vertices and no two cells share a vertex set; attachments may weaken this
to Delta-style cells, which ``is_simplicial`` then reports as False.

Every traversal of a complex is ``region_walk``: one breadth-first walk of
the shared incidence index, kept to a face-closed region without copying
it.  Besides the spanning tree it returns the region's closing
incidences, the non-tree ones, each recorded once at its face end, so a
caller tests or transports around exactly one fundamental cycle per
closing incidence.  ``poset_spanning_tree`` lists the tree edges of the
whole complex, which must be connected.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .validation import StructureError, ValidationReport


@dataclass(frozen=True)
class Cell:
    """A cell and its codimension-one faces, sorted and without repeats."""

    id: str
    dim: int
    faces: tuple[str, ...]


@dataclass
class BaseComplex:
    cells: dict[str, Cell]

    @cached_property
    def below(self) -> dict[str, frozenset[str]]:
        """Reflexive-transitive face closure of every cell."""
        return _face_closure(self.cells)

    @cached_property
    def above(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {c: set() for c in self.cells}
        for c, clo in self.below.items():
            for f in clo:
                out[f].add(c)
        return {c: frozenset(v) for c, v in out.items()}

    @cached_property
    def incidences(self) -> tuple[tuple[str, str], ...]:
        """Codimension-one pairs (face, cell), sorted."""
        out = []
        for c in self.cells.values():
            for f in c.faces:
                out.append((f, c.id))
        return tuple(sorted(out))

    @cached_property
    def adjacency(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """Incidence graph: each cell's incidences ``(face, cell)``, sorted by their other end.

        Built once per complex from the very tuples of ``incidences`` and
        shared by every walk over the complex, whole or restricted to a
        face-closed region.
        """
        adj: dict[str, list[tuple[str, str]]] = {c: [] for c in self.cells}
        for inc in self.incidences:
            adj[inc[0]].append(inc)
            adj[inc[1]].append(inc)
        return {
            c: tuple(sorted(edges, key=lambda e, c=c: e[1] if e[0] == c else e[0]))
            for c, edges in adj.items()
        }

    @cached_property
    def vertices_of(self) -> dict[str, tuple[str, ...]]:
        verts = frozenset(c for c, cell in self.cells.items() if cell.dim == 0)
        below = self.below
        return {c: tuple(sorted(verts.intersection(below[c]))) for c in self.cells}

    @cached_property
    def is_simplicial(self) -> bool:
        seen = set()
        for c in self.cells.values():
            vs = self.vertices_of[c.id]
            if len(vs) != c.dim + 1 or vs in seen:
                return False
            seen.add(vs)
        return True

    @cached_property
    def span_index(self) -> dict[tuple[str, ...], str]:
        """Vertex set -> cell, defined for simplicial complexes."""
        if not self.is_simplicial:
            raise StructureError("complex is not vertex-determined")
        return {self.vertices_of[c]: c for c in self.cells}

    def leq(self, a: str, b: str) -> bool:
        return a in self.below[b]

    def sorted_cells(self) -> list[str]:
        return sorted(self.cells)

    def vertices(self) -> list[str]:
        return sorted(c for c, cell in self.cells.items() if cell.dim == 0)


def _face_closure(cells: dict[str, Cell]) -> dict[str, frozenset[str]]:
    """Face closures depth first from each cell in order, each stored once its faces' are.

    An explicit stack, not a nested function that calls itself: such a
    closure refers to itself, and that cycle would keep the complex alive
    until the cyclic collector ran. The stack also has no depth limit.
    """
    memo: dict[str, frozenset[str]] = {}
    for root in cells:
        if root in memo:
            continue
        on_path = {root}
        stack = [(root, iter(cells[root].faces))]
        while stack:
            c, faces = stack[-1]
            for f in faces:
                if f in memo:
                    continue
                if f in on_path:
                    raise StructureError(f"face relation has a cycle through {f}")
                if f not in cells:
                    raise StructureError(f"unknown face {f}")
                on_path.add(f)
                stack.append((f, iter(cells[f].faces)))
                break
            else:
                stack.pop()
                on_path.discard(c)
                acc = {c}
                for f in cells[c].faces:
                    acc |= memo[f]
                memo[c] = frozenset(acc)
    return memo


@dataclass
class Stratification:
    strata: dict[str, int]

    @property
    def depth(self) -> int:
        return max(self.strata.values(), default=0)


def complex_from_cells(entries) -> BaseComplex:
    """Build from (id, dim, faces) triples."""
    cells = {}
    for cid, dim, faces in entries:
        if cid in cells:
            raise StructureError(f"duplicate cell {cid}")
        cells[cid] = Cell(cid, int(dim), tuple(sorted(set(faces))))
    return BaseComplex(cells)


def single_stratum(b: BaseComplex) -> Stratification:
    return Stratification({c: 0 for c in b.cells})


def simplex_name(vertices) -> str:
    return ".".join(sorted(vertices))


def simplex_complex(vertices) -> BaseComplex:
    """Closure of one simplex on the given vertex names."""
    verts = sorted(vertices)
    if len(set(verts)) != len(verts):
        raise StructureError("simplex vertices must be distinct")
    from itertools import combinations

    entries = []
    for k in range(1, len(verts) + 1):
        for sub in combinations(verts, k):
            faces = [simplex_name(f) for f in combinations(sub, k - 1)] if k > 1 else []
            entries.append((simplex_name(sub), k - 1, faces))
    return complex_from_cells(entries)


def cycle_complex(n: int, prefix: str = "v") -> BaseComplex:
    """Triangulated circle with n vertices and n edges (n >= 3)."""
    if n < 3:
        raise StructureError("a simplicial circle needs at least 3 vertices")
    entries = [(f"{prefix}{i}", 0, []) for i in range(n)]
    for i in range(n):
        a, b = f"{prefix}{i}", f"{prefix}{(i + 1) % n}"
        entries.append((simplex_name([a, b]), 1, [a, b]))
    return complex_from_cells(entries)


def validate_complex(b: BaseComplex, s: Stratification) -> ValidationReport:
    """Check face-poset and stratification invariants."""
    rep = ValidationReport("complex")
    if not b.cells:
        rep.add("empty", "complex has no cells")
        return rep
    broken = False
    for c in b.cells.values():
        if c.dim < 0:
            rep.add("dimension", f"{c.id} has negative dimension")
            broken = True
        for f in c.faces:
            if f not in b.cells:
                rep.add("face-unknown", f"{c.id} lists unknown face {f}")
                broken = True
            elif b.cells[f].dim != c.dim - 1:
                rep.add("face-dimension", f"face {f} of {c.id} is not codimension one")
                broken = True
        if c.dim > 0 and not c.faces:
            rep.add("face-missing", f"{c.id} has positive dimension but no faces")
    if broken:
        return rep
    # every face now lies exactly one dimension below its cell, so a chain of
    # faces strictly lowers the dimension and the face relation has no cycle
    if set(s.strata) != set(b.cells):
        rep.add("stratum-coverage", "stratification does not cover the cells exactly")
        return rep
    for c, k in s.strata.items():
        if not isinstance(k, int) or k < 0:
            rep.add("stratum-value", f"{c} has stratum {k!r}")
    for f, c in b.incidences:
        if s.strata[f] > s.strata[c]:
            rep.add(
                "stratum-closure",
                f"face {f} (stratum {s.strata[f]}) above its cell {c} (stratum {s.strata[c]})",
            )
    present = set(s.strata.values())
    if 0 not in present:
        rep.add("stratum-zero", "stratum 0 is empty")
    missing = [k for k in range(max(present, default=0) + 1) if k not in present]
    if missing:
        rep.add("stratum-gap", f"unused stratum indices {missing}")
    return rep


def is_face_closed(b: BaseComplex, cells) -> bool:
    chosen = set(cells)
    return all(f in chosen for c in chosen for f in b.cells[c].faces)


def face_closed_set(b: BaseComplex, cells) -> set[str]:
    """The cells as a set; raises unless they are known and closed under faces."""
    chosen = set(cells)
    unknown = [c for c in chosen if c not in b.cells]
    if unknown:
        raise StructureError(f"unknown cells {sorted(unknown)}")
    if not is_face_closed(b, chosen):
        raise StructureError("cell set is not closed under faces")
    return chosen


def subcomplex(b: BaseComplex, cells) -> BaseComplex:
    return BaseComplex({c: b.cells[c] for c in face_closed_set(b, cells)})


def star_cells(b: BaseComplex, c: str) -> frozenset[str]:
    """Closed star of ``c``: the union of the closures ``below[d]`` of every
    ``d`` above it, and so closed under faces by construction."""
    if c not in b.cells:
        raise StructureError(f"unknown cell {c}")
    return frozenset().union(*map(b.below.__getitem__, b.above[c]))


class UnionFind:
    """Disjoint sets over a fixed node collection, with path halving.

    ``union(a, b)`` links the root of ``a`` under the root of ``b``, and
    ``groups()`` lists the sets ordered by root.  Both rules fix the order
    of the groups, which seeded generators feed to their random choices.
    """

    def __init__(self, nodes):
        self.parent = {n: n for n in nodes}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def groups(self) -> list[set]:
        groups: dict = {}
        for n in self.parent:
            groups.setdefault(self.find(n), set()).add(n)
        return [groups[k] for k in sorted(groups)]


def connected_components(nodes, edges) -> list[set]:
    uf = UnionFind(nodes)
    for a, b in edges:
        uf.union(a, b)
    return uf.groups()


def region_walk(
    b: BaseComplex, region=None, root=None
) -> tuple[list[str], dict[str, tuple[str, tuple[str, str]] | None], list[tuple[str, str]]]:
    """Breadth-first walk of the cell-incidence graph from the least cell.

    The one traversal of the engine.  It walks ``b.adjacency``, the
    complex's shared incidence index, and visits neighbours in sorted
    order.  Given a face-closed ``region`` (a set of cells of ``b``), the
    walk keeps to it: filtering each sorted neighbour list to the region
    gives exactly the walk of ``subcomplex(b, region)``, without the copy.
    A caller that has sorted the region passes its least cell as ``root``.

    Returns the cells reached in discovery order; each one's tree parent
    with the connecting incidence as ``(prev, (face, cell))``, or None at
    the root; and the closing incidences, the non-tree incidences among
    the cells reached.  Every incidence ``(f, c)`` is scanned from both
    ends, so a closing one is recorded at its face end only: while ``f``
    is scanned, ``(f, c)`` closes a cycle when ``c`` is already discovered
    and the incidence is not ``f``'s own parent edge.  Otherwise it is a
    tree edge, so each closing incidence is listed exactly once, and there
    are ``incidences - cells + 1`` of them over a connected region.  They
    come in the order of the scan, not sorted.  A disconnected complex or
    region is walked only as far as the component of its least cell.
    """
    if region is None:
        region = b.cells
    if not region:
        return [], {}, []
    adj = b.adjacency
    if root is None:
        root = min(region)
    order = [root]
    parent: dict[str, tuple[str, tuple[str, str]] | None] = {root: None}
    closing = []
    for cur in order:  # the list grows while it is walked: a FIFO queue
        up = parent[cur]
        up = up[1] if up is not None else None
        for edge in adj[cur]:
            f, c = edge
            if f == cur:  # scanned from its face end
                if c in region:
                    if c not in parent:
                        parent[c] = (cur, edge)
                        order.append(c)
                    elif edge is not up:
                        closing.append(edge)
            elif f not in parent and f in region:
                parent[f] = (cur, edge)
                order.append(f)
    return order, parent, closing


def poset_spanning_tree(b: BaseComplex) -> list[tuple[str, str]]:
    """Tree edges of ``region_walk`` as (face, cell) pairs in discovery order.

    Raises on a disconnected complex, whose walk misses cells.
    """
    order, parent, _ = region_walk(b)
    if len(order) != len(b.cells):
        raise StructureError("incidence graph is disconnected")
    return [parent[c][1] for c in order[1:]]


@dataclass
class SimplicialMap:
    source: BaseComplex
    target: BaseComplex
    vertex_map: dict[str, str]
    cell_map: dict[str, str]

    @classmethod
    def from_vertex_map(cls, source: BaseComplex, target: BaseComplex, vertex_map) -> "SimplicialMap":
        """Induce the cell map; every image vertex set must span a target cell."""
        vm = dict(vertex_map)
        cell_map = {}
        index = target.span_index
        for c in source.cells:
            try:
                image = tuple(sorted({vm[v] for v in source.vertices_of[c]}))
            except KeyError as exc:
                raise StructureError(f"vertex {exc.args[0]} has no image") from None
            cell = index.get(image)
            if cell is None:
                raise StructureError(f"image of {c} spans no cell of the target")
            cell_map[c] = cell
        return cls(source, target, vm, cell_map)


def validate_simplicial_map(m: SimplicialMap) -> ValidationReport:
    rep = ValidationReport("simplicial-map")
    src_vertices = set(m.source.vertices())
    if set(m.vertex_map) != src_vertices:
        rep.add("vertex-coverage", "vertex map does not cover the source vertices exactly")
    tgt_vertices = set(m.target.vertices())
    for v, w in m.vertex_map.items():
        if w not in tgt_vertices:
            rep.add("vertex-image", f"{v} -> {w} is not a target vertex")
    if set(m.cell_map) != set(m.source.cells):
        rep.add("cell-coverage", "cell map does not cover the source cells exactly")
        return rep
    for c, d in m.cell_map.items():
        if d not in m.target.cells:
            rep.add("cell-image", f"{c} -> {d} unknown in target")
            return rep
        if m.target.cells[d].dim > m.source.cells[c].dim:
            rep.add("cell-dimension", f"{c} maps to the higher-dimensional {d}")
    for f, c in m.source.incidences:
        if not m.target.leq(m.cell_map[f], m.cell_map[c]):
            rep.add("monotone", f"incidence ({f}, {c}) not preserved")
    if m.source.is_simplicial and m.target.is_simplicial:
        for c in m.source.cells:
            image = tuple(sorted({m.vertex_map[v] for v in m.source.vertices_of[c]}))
            if m.target.vertices_of[m.cell_map[c]] != image:
                rep.add("span", f"{c} does not map onto the span of its vertex images")
    return rep


def identity_map(b: BaseComplex) -> SimplicialMap:
    return SimplicialMap(b, b, {v: v for v in b.vertices()}, {c: c for c in b.cells})


def inclusion_map(sub: BaseComplex, b: BaseComplex) -> SimplicialMap:
    missing = set(sub.cells) - set(b.cells)
    if missing:
        raise StructureError(f"not a subcomplex, extra cells {sorted(missing)}")
    return SimplicialMap(sub, b, {v: v for v in sub.vertices()}, {c: c for c in sub.cells})


def stratum_preserving(
    m: SimplicialMap, s_src: Stratification, s_tgt: Stratification
) -> tuple[bool, tuple[str, int, int] | None]:
    """Open stratum i must land in open stratum i: indices agree cellwise."""
    for c in sorted(m.cell_map):
        i, j = s_src.strata[c], s_tgt.strata[m.cell_map[c]]
        if i != j:
            return False, (c, i, j)
    return True, None


def relabel_complex(b: BaseComplex, fn) -> BaseComplex:
    cells = {}
    for c in b.cells.values():
        cells[fn(c.id)] = Cell(fn(c.id), c.dim, tuple(sorted(fn(f) for f in c.faces)))
    return BaseComplex(cells)


def disjoint_union(a: BaseComplex, b: BaseComplex) -> BaseComplex:
    overlap = set(a.cells) & set(b.cells)
    if overlap:
        raise StructureError(f"cell identifiers collide: {sorted(overlap)}")
    cells = dict(a.cells)
    cells.update(b.cells)
    return BaseComplex(cells)


@dataclass
class AttachedBase:
    complex: BaseComplex
    strat: Stratification
    char_map: SimplicialMap
    incl_map: SimplicialMap
    new_cells: frozenset[str]


def attach_base(
    y: BaseComplex,
    y_strat: Stratification,
    m: BaseComplex,
    a_cells,
    h: SimplicialMap,
) -> AttachedBase:
    """Glue the pair (m, a) onto ``y`` along the simplicial map ``h``.

    Cells of m outside a keep their identifiers and are placed in a fresh
    stratum one past the current depth.  The result may be a Delta-style
    complex (flagged by ``is_simplicial``); attachments that would drop the
    dimension of a boundary face are rejected since no cell complex of
    this kind realizes them.
    """
    a_set = frozenset(a_cells)
    sub_a = subcomplex(m, a_set)
    if set(h.cell_map) != set(sub_a.cells):
        raise StructureError("attaching map must be defined on the attached subcomplex exactly")
    if h.target.cells != y.cells:
        raise StructureError("attaching map must land in y")
    validate_simplicial_map(h).raise_if_invalid()
    new_cells = frozenset(set(m.cells) - a_set)
    collision = new_cells & set(y.cells)
    if collision:
        raise StructureError(f"cell identifiers collide with y: {sorted(collision)}")

    cells = dict(y.cells)
    for cid in sorted(new_cells):
        c = m.cells[cid]
        faces = []
        for f in c.faces:
            img = h.cell_map[f] if f in a_set else f
            if f in a_set and y.cells[img].dim != c.dim - 1:
                raise StructureError(
                    f"attaching map collapses boundary face {f} of {cid}; "
                    "refine the attached pair instead"
                )
            faces.append(img)
        deduped = tuple(sorted(set(faces)))
        cells[cid] = Cell(cid, c.dim, deduped)
    result = BaseComplex(cells)

    depth = y_strat.depth
    strata = dict(y_strat.strata)
    for cid in new_cells:
        strata[cid] = depth + 1
    strat = Stratification(strata)

    char_vm = {}
    for v in m.vertices():
        char_vm[v] = h.vertex_map[v] if v in a_set else v
    char_cm = {c: (h.cell_map[c] if c in a_set else c) for c in m.cells}
    char = SimplicialMap(m, result, char_vm, char_cm)
    incl = SimplicialMap(y, result, {v: v for v in y.vertices()}, {c: c for c in y.cells})
    return AttachedBase(result, strat, char, incl, new_cells)
