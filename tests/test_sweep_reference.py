"""The star sweep, the covering and the trivialization against reference copies.

The ``_reference_*`` functions below are the implementations from before
the sweep composed its charts by ``compose_table`` lookups and sorted each
star once, and before ``covering_space`` composed each distinct transport
and monodromy triple once.  Their documents are the plain trees the
certificates used to build for themselves, written by ``json.dumps``.
The engine must give the same bytes and the same error texts.
"""
import json
from pathlib import Path

import pytest

from stratabundle import cellbase, fincat, jsonio, oracle, strabundle, triviality
from stratabundle.validation import PreconditionError, StructureError

from conftest import build_shuffled_torus_cover

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_BUNDLES = sorted(
    p.stem for p in GOLDEN.glob("*.json") if jsonio.detect_kind(jsonio.read_doc(p)) == "bundle"
)
SUITE_SEEDS = range(1, 51)


def _reference_star(b, c):
    out = set()
    for d in b.above[c]:
        out |= b.below[d]
    return frozenset(out)


def _reference_trivialize(x, region, memo):
    order, parent, closing = cellbase.region_walk(x.base, region)
    if len(order) != len(region):
        raise StructureError("incidence graph is disconnected")
    root = order[0]
    obj = x.fibre_obj[root]
    charts = {root: x.cat.identities[obj]}
    compose, transition, inverses = x.cat.compose, x.transition, memo.inverses
    for nxt in order[1:]:
        cur, edge = parent[nxt]
        mid = transition[edge]
        if nxt == edge[0]:
            charts[nxt] = compose(charts[cur], inverses[mid])
        else:
            charts[nxt] = compose(charts[cur], mid)
    compatible = memo.compatible
    bad = [
        inc for inc in closing if not compatible[charts[inc[0]], transition[inc], charts[inc[1]]]
    ]
    if bad:
        f, c = min(bad)
        holonomy = compose(compose(charts[f], transition[(f, c)]), inverses[charts[c]])
        return triviality.TrivializeResult(
            None,
            triviality.Obstruction(
                triviality._loop_through(parent, f, c),
                holonomy,
                f"incidence ({f}, {c}) closes a loop with non-identity holonomy {holonomy}",
            ),
        )
    return triviality.TrivializeResult(
        triviality.Trivialization(tuple(sorted(region)), obj, charts), None
    )


def _reference_trivialize_over(x, region):
    cells = cellbase.face_closed_set(x.base, region)
    if not cells:
        raise StructureError("region is empty")
    memo = triviality._Memo(x)
    faces, transition, inverses = x.base.cells, x.transition, memo.inverses
    incidences = [(f, c) for c in cells for f in faces[c].faces]
    if any(inverses[mid] is None for mid in {transition[inc] for inc in incidences}):
        f, c = min(inc for inc in incidences if inverses[transition[inc]] is None)
        raise PreconditionError(
            f"transition ({f}, {c}) -> {transition[(f, c)]} is not invertible over the region"
        )
    return _reference_trivialize(x, cells, memo)


def _reference_certificate_doc(x):
    memo = triviality._Memo(x)
    witness = next((m for m in sorted(x.cat.morphisms) if memo.inverses[m] is None), None)
    if witness is not None:
        raise PreconditionError(
            f"structure category is not a groupoid in its faithful image; witness {witness}"
        )
    stars = {}
    for c in x.base.sorted_cells():
        res = _reference_trivialize(x, _reference_star(x.base, c), memo)
        if not res.ok:
            raise StructureError(
                f"closed star of {c} failed to trivialize: {res.obstruction.detail}; "
                "this contradicts coherence and indicates a defect in the bundle data"
            )
        stars[c] = res.trivialization
    return {
        "kind": "triviality-certificate",
        "stars": {
            c: {"region": list(t.region), "object": t.object, "charts": dict(t.charts)}
            for c, t in stars.items()
        },
    }


def _reference_covering(x):
    for f, c in x.base.incidences:
        mid = x.transition[(f, c)]
        if not fincat.is_bijective_table(x.ff.on_morphisms[mid], x.fibre_set(f)):
            raise PreconditionError(f"transition ({f}, {c}) -> {mid} is not a bijection")
    total = strabundle.realize_total(x)
    base_nodes = x.base.sorted_cells()
    basepoint = base_nodes[0]
    order, parent, closing = cellbase.region_walk(x.base)
    if len(order) != len(base_nodes):
        base_comps = cellbase.connected_components(base_nodes, list(x.base.incidences))
        sheets = {min(comp): triviality._sheet_count(x, comp) for comp in base_comps}
        components = len(
            cellbase.connected_components(list(total.elements), list(total.relations))
        )
        return triviality.CoveringCertificate(total, components, sheets, True, basepoint, [])
    sheets = {basepoint: triviality._sheet_count(x, base_nodes)}
    transport = {basepoint: fincat.identity_table(x.fibre_set(basepoint))}
    inverse_steps = {}
    for nxt in order[1:]:
        cur, (f, c) = parent[nxt]
        mid = x.transition[(f, c)]
        if nxt == f:
            step = x.ff.on_morphisms[mid]
        else:
            if mid not in inverse_steps:
                inverse_steps[mid] = {w: v for v, w in x.ff.on_morphisms[mid].items()}
            step = inverse_steps[mid]
        transport[nxt] = fincat.compose_tables(step, transport[cur])
    monodromy = []
    for f, c in sorted(closing):
        back = {w: v for v, w in transport[f].items()}
        around = fincat.compose_tables(x.transition_table(f, c), transport[c])
        perm = fincat.compose_tables(back, around)
        monodromy.append(
            triviality.MonodromyEntry((f, c), perm, triviality.permutation_cycle_type(perm))
        )
    orbits = cellbase.connected_components(
        transport[basepoint], [pair for e in monodromy for pair in e.permutation.items()]
    )
    return triviality.CoveringCertificate(total, len(orbits), sheets, True, basepoint, monodromy)


def _reference_covering_doc(x):
    cert = _reference_covering(x)
    return {
        "kind": "covering-certificate",
        "components": cert.components,
        "sheets": dict(cert.sheets),
        "even_cover": cert.even_cover,
        "basepoint": cert.basepoint,
        "monodromy": [
            {
                "closes": list(e.closing_incidence),
                "permutation": dict(e.permutation),
                "cycle_type": list(e.cycle_type),
            }
            for e in cert.monodromy
        ],
        "total": {
            "elements": [list(e) for e in cert.total.elements],
            "relations": [[list(a), list(b)] for a, b in cert.total.relations],
        },
    }


def _trivialize_doc(res):
    if res.ok:
        t = res.trivialization
        return {"region": list(t.region), "object": t.object, "charts": dict(t.charts)}
    o = res.obstruction
    return {"loop": list(o.loop), "holonomy": o.holonomy, "detail": o.detail}


def _outcome(fn, dumps):
    """``dumps`` of the document ``fn()`` returns, or the type and text of its error."""
    try:
        return dumps(fn())
    except (StructureError, PreconditionError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _reference_dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _assert_same_as_reference(x):
    """Certificate, covering and whole-base trivialization: the same bytes or the same error."""
    outcomes = set()
    for engine, reference in [
        (
            lambda: jsonio.certificate_to_doc(triviality.local_triviality_certificate(x)),
            lambda: _reference_certificate_doc(x),
        ),
        (
            lambda: jsonio.covering_to_doc(triviality.covering_space(x)),
            lambda: _reference_covering_doc(x),
        ),
        (
            lambda: _trivialize_doc(triviality.trivialize_over(x, set(x.base.cells))),
            lambda: _trivialize_doc(_reference_trivialize_over(x, set(x.base.cells))),
        ),
    ]:
        got = _outcome(engine, jsonio.canon_dumps)
        assert got == _outcome(reference, _reference_dumps)
        outcomes.add("document" if got.endswith("\n") else got.split(":")[0])
    return outcomes


@pytest.mark.parametrize("name", GOLDEN_BUNDLES)
def test_golden_bundles(name):
    _assert_same_as_reference(jsonio.bundle_from_doc(jsonio.read_doc(GOLDEN / f"{name}.json")))


def test_golden_refusals_are_compared():
    # the certificate's groupoid witness and the covering's bijection refusal
    x = jsonio.bundle_from_doc(jsonio.read_doc(GOLDEN / "disk_collapse_two_strata.json"))
    assert "PreconditionError" in _assert_same_as_reference(x)


@pytest.mark.parametrize("shuffled", [False, True], ids=["grid", "shuffled"])
def test_torus_covers(torus_cover, shuffled):
    # equal transports and monodromy triples recur all over a torus
    x = build_shuffled_torus_cover(9, 7)[0] if shuffled else torus_cover(9)
    assert _assert_same_as_reference(x) == {"document"}


def test_bundle_suite_seeds():
    outcomes = set()
    for seed in SUITE_SEEDS:
        # the bundle suite asks for groupoids; the other half gives refusals
        for groupoid_only in (True, False):
            spec = oracle.InstanceSpec(seed=seed, groupoid_only=groupoid_only)
            outcomes |= _assert_same_as_reference(oracle._gen_instance(spec)[3].bundle)
    assert {"document", "PreconditionError"} <= outcomes


def test_each_monodromy_entry_has_its_own_permutation(torus_cover):
    # equal monodromy triples are worked out once; each entry still owns its table
    x = torus_cover(9)
    cert = triviality.covering_space(x)
    before = [dict(e.permutation) for e in cert.monodromy]
    assert len({tuple(sorted(p.items())) for p in before}) < len(before)  # some are equal
    for i in (0, len(cert.monodromy) // 2, len(cert.monodromy) - 1):
        entry = cert.monodromy[i]
        key = next(iter(entry.permutation))
        entry.permutation[key] = "changed"
        assert [e.permutation for j, e in enumerate(cert.monodromy) if j != i] == [
            p for j, p in enumerate(before) if j != i
        ]
        entry.permutation[key] = before[i][key]


@pytest.mark.parametrize("pair", [("p2:01", "p2:01"), ("p2:01", "p2:10"), ("p2:10", "p2:01")])
def test_a_missing_composite_raises_the_same_error(pair):
    # the charts are composed by table lookups; a composite the table lacks
    # must still be named as cat.compose names it
    x = jsonio.bundle_from_doc(jsonio.read_doc(GOLDEN / "double_cover_c3.json"))
    del x.cat.compose_table[pair]
    outcomes = _assert_same_as_reference(x)
    assert "StructureError" in outcomes
