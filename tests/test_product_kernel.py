"""``fincat.product_category`` against the version it replaced.

``_reference_product_category`` below is the earlier implementation: it
calls ``pair_id`` once per composite and once per table entry, so equal
ids are separate strings.  The engine must build equal categories and
fibre functors, with every dict in the same insertion order, while
formatting each pair id once and sharing it wherever it appears.  The
product's composition table is read through the factors' tables, and it
must answer every lookup as the reference's dict does.
"""
import dataclasses
import gc
import itertools
import tracemalloc
from collections.abc import Mapping
from pathlib import Path

import pytest

from stratabundle import corpus, fincat, jsonio, oracle, strabundle
from stratabundle.fincat import FibreFunctor, FiniteCategory, Morphism, pair_id

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
ACCEPTANCE = oracle.InstanceSpec(
    seed=1, max_cells=30, max_objects=3, max_fibre_size=4, strata_depth=3
)


def _reference_product_category(cat_a, ff_a, cat_b, ff_b):
    mors = {}
    for m in cat_a.morphisms.values():
        for n in cat_b.morphisms.values():
            mid = pair_id(m.id, n.id)
            mors[mid] = Morphism(mid, pair_id(m.src, n.src), pair_id(m.tgt, n.tgt))
    compose = {}
    for (g1, f1), c1 in cat_a.compose_table.items():
        for (g2, f2), c2 in cat_b.compose_table.items():
            compose[(pair_id(g1, g2), pair_id(f1, f2))] = pair_id(c1, c2)
    identities = {
        pair_id(a, b): pair_id(cat_a.identities[a], cat_b.identities[b])
        for a in cat_a.objects
        for b in cat_b.objects
    }
    cat = FiniteCategory(tuple(sorted(identities)), mors, compose, identities)

    on_objects = {
        pair_id(a, b): tuple(
            pair_id(x, y) for x in ff_a.on_objects[a] for y in ff_b.on_objects[b]
        )
        for a in cat_a.objects
        for b in cat_b.objects
    }
    on_morphisms = {}
    for m in cat_a.morphisms:
        for n in cat_b.morphisms:
            ta, tb = ff_a.on_morphisms[m], ff_b.on_morphisms[n]
            on_morphisms[pair_id(m, n)] = {
                pair_id(x, y): pair_id(ta[x], tb[y]) for x in ta for y in tb
            }
    return cat, FibreFunctor(on_objects, on_morphisms)


def _ordered(value):
    """``value`` with every mapping replaced by its item list, so order counts in ``==``."""
    if isinstance(value, Mapping):
        return [(k, _ordered(v)) for k, v in value.items()]
    if isinstance(value, (FiniteCategory, FibreFunctor)):
        return [_ordered(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, tuple):
        return tuple(map(_ordered, value))
    return value


def _elements(ff):
    found = {e for elems in ff.on_objects.values() for e in elems}
    for tab in ff.on_morphisms.values():
        found.update(tab)
        found.update(tab.values())
    return found


def _assert_one_object_per_id(ids):
    seen = {}
    for i in ids:
        assert seen.setdefault(i, i) is i, i


def _assert_matches_reference(cat_a, ff_a, cat_b, ff_b):
    want = _reference_product_category(cat_a, ff_a, cat_b, ff_b)
    got = fincat.product_category(cat_a, ff_a, cat_b, ff_b)
    assert _ordered(got) == _ordered(want)
    return got


def _assert_ids_shared(cat, ff):
    _assert_one_object_per_id(itertools.chain(
        cat.morphisms,
        (m.id for m in cat.morphisms.values()),
        itertools.chain.from_iterable(cat.compose_table),
        cat.compose_table.values(),
        cat.identities.values(),
        ff.on_morphisms,
    ))
    _assert_one_object_per_id(itertools.chain(
        cat.objects,
        cat.identities,
        (v for m in cat.morphisms.values() for v in (m.src, m.tgt)),
        ff.on_objects,
    ))
    _assert_one_object_per_id(itertools.chain(
        itertools.chain.from_iterable(ff.on_objects.values()),
        (e for tab in ff.on_morphisms.values() for item in tab.items() for e in item),
    ))


def _golden_bundles():
    bundles = {}
    for p in sorted(GOLDEN.glob("*.json")):
        doc = jsonio.read_doc(p)
        if jsonio.detect_kind(doc) == "bundle":
            bundles[p.stem] = jsonio.bundle_from_doc(doc)
    return bundles


def _golden_pairs():
    """Every ordered pair of golden bundles over one base and stratification."""
    return [
        (a, b) for a, b in itertools.product(_golden_bundles().values(), repeat=2)
        if a.base.cells == b.base.cells and a.strat.strata == b.strat.strata
    ]


def test_fiberwise_suite_pairs_match_the_reference():
    for seed in range(1, 51):
        xa, xb = oracle._gen_pair(ACCEPTANCE.with_seed(seed))
        _assert_matches_reference(xa.cat, xa.ff, xb.cat, xb.ff)


def test_golden_pairs_match_the_reference():
    pairs = _golden_pairs()
    assert len(pairs) == 38
    for a, b in pairs:
        cat, ff = _assert_matches_reference(a.cat, a.ff, b.cat, b.ff)
        _assert_ids_shared(cat, ff)


def test_tables_with_values_outside_their_fibre_match_the_reference():
    a = _golden_bundles()["double_cover_c3"]
    b = _golden_bundles()["triple_cover_c3"]
    for x, tag in ((a, "a"), (b, "b")):
        for mid in sorted(x.ff.on_morphisms)[::2]:
            tab = x.ff.on_morphisms[mid]
            tab[next(iter(tab))] = f"stray.{tag}.{mid}"
    assert not fincat.check_fibre_tables(a.cat, a.ff).ok
    cat, ff = _assert_matches_reference(a.cat, a.ff, b.cat, b.ff)
    _assert_ids_shared(cat, ff)


def test_largest_suite_product_shares_every_id_and_formats_each_once(monkeypatch):
    xa, xb = oracle._gen_pair(ACCEPTANCE.with_seed(49))
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return pair_id(a, b)

    monkeypatch.setattr(fincat, "pair_id", counting)
    cat, ff = fincat.product_category(xa.cat, xa.ff, xb.cat, xb.ff)
    assert len(cat.morphisms) == 408 and len(cat.compose_table) == 68_544
    cells = (
        len(xa.cat.morphisms) * len(xb.cat.morphisms)
        + len(xa.cat.objects) * len(xb.cat.objects)
        + len(_elements(xa.ff)) * len(_elements(xb.ff))
    )
    assert len(calls) <= cells
    _assert_ids_shared(cat, ff)



def test_the_fibrewise_product_takes_its_ids_from_the_category():
    xa, xb = oracle._gen_pair(ACCEPTANCE.with_seed(49))
    prod = strabundle.fiberwise_product(xa, xb)
    objects = {v: v for v in prod.cat.objects}
    morphisms = {m: m for m in prod.cat.morphisms}
    assert len(prod.fibre_obj) == 11 and len(prod.transition) == 16
    assert all(objects[v] is v for v in prod.fibre_obj.values())
    assert all(morphisms[m] is m for m in prod.transition.values())
    for c, v in prod.fibre_obj.items():
        assert v == pair_id(xa.fibre_obj[c], xb.fibre_obj[c])
    for key, m in prod.transition.items():
        assert m == pair_id(xa.transition[key], xb.transition[key])


def _arrow_category():
    """a -> b by u, with fibres {x} and {y, z}: pairs (u, u) and (ida, u) do not compose."""
    cat = fincat.category(
        ["a", "b"],
        [("ida", "a", "a"), ("idb", "b", "b"), ("u", "a", "b")],
        {("ida", "ida"): "ida", ("idb", "idb"): "idb", ("u", "ida"): "u", ("idb", "u"): "u"},
        {"a": "ida", "b": "idb"},
    )
    ff = fincat.fibre_functor(
        {"a": ["x"], "b": ["y", "z"]},
        {"ida": {"x": "x"}, "idb": {"y": "y", "z": "z"}, "u": {"x": "z"}},
    )
    return cat, ff


def _factors(name):
    """The factor pair of a fiberwise seed, ``seed<n>``, or the hand-built pair."""
    if name == "arrow x perm2":
        return (*_arrow_category(), *corpus.perm_category(2))
    xa, xb = oracle._gen_pair(ACCEPTANCE.with_seed(int(name.removeprefix("seed"))))
    return xa.cat, xa.ff, xb.cat, xb.ff


@pytest.mark.parametrize("name", ["seed1", "seed2", "seed34", "seed49", "arrow x perm2"])
def test_the_read_through_table_answers_as_the_reference_dict(name):
    factors = _factors(name)
    ref = _reference_product_category(*factors)[0]
    want = ref.compose_table
    table = fincat.product_category(*factors)[0].compose_table
    assert not isinstance(table, dict)
    missing = object()
    for key in itertools.product(ref.morphisms, repeat=2):
        assert table.get(key, missing) == want.get(key, missing)
        assert (key in table) == (key in want)
    assert len(table) == len(want)
    assert list(table) == list(want)
    assert list(table.items()) == list(want.items())
    assert list(table.values()) == list(want.values())
    assert table == want and want == table
    g, f = next(iter(want))
    for key in (("nowhere", f), (g, "nowhere"), ("nowhere", "nowhere")):
        with pytest.raises(KeyError):
            table[key]


def test_the_read_through_table_refuses_pairs_that_do_not_compose():
    cat, _ = fincat.product_category(*_arrow_category(), *corpus.perm_category(2))
    uu = pair_id("u", "p2:01")
    assert cat.compose_table[(uu, pair_id("ida", "p2:10"))] == pair_id("u", "p2:10")
    with pytest.raises(KeyError):
        cat.compose_table[(uu, uu)]
    # composable in A, not in B
    assert (pair_id("idb", "p1:0"), uu) not in cat.compose_table
    assert fincat.validate_category(cat).ok


def test_the_fiberwise_suite_reads_no_product_composite(monkeypatch):
    reads = []
    for name in ("__getitem__", "__iter__", "_items"):
        original = getattr(fincat._ProductCompose, name)

        def counting(self, *args, _original=original, _name=name):
            reads.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(fincat._ProductCompose, name, counting)
    built = []
    product_category = fincat.product_category

    def recording(*args):
        built.append(product_category(*args))
        return built[-1]

    monkeypatch.setattr(fincat, "product_category", recording)
    for seed in range(1, 51):
        assert oracle._check_fiberwise(ACCEPTANCE.with_seed(seed)) == ("pass", "", "")
    assert len(built) == 50 and reads == []
    # the wrapper sees a read
    cat = built[-1][0]
    i = next(iter(cat.identities.values()))
    assert cat.compose_table.get((i, i)) == i
    assert reads == ["__getitem__"]


def test_the_largest_fiberwise_check_stays_small_in_memory(collector_off):
    # with its 68,544 composites stored in a dict, this check peaked at 6.84 MiB
    spec = ACCEPTANCE.with_seed(49)
    assert oracle._check_fiberwise(spec) == ("pass", "", "")
    gc.collect()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        assert oracle._check_fiberwise(spec) == ("pass", "", "")
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
