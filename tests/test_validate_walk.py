"""``validate_bundle`` over the cached incidence index against the version it replaced.

``_reference_validate_bundle`` below is the earlier implementation: it
sorts the transition items for the typing and invertibility checks and
builds and sorts a set of common faces for every coherence square.  The
engine must name the same violations in the same order.
"""
import dataclasses
import importlib.util
import random
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

from stratabundle import cellbase, corpus, fincat, jsonio, oracle, strabundle
from stratabundle.fincat import compose_tables
from stratabundle.validation import ValidationReport

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
GOLDEN_BUNDLES = sorted(
    p.stem for p in GOLDEN.glob("*.json") if jsonio.detect_kind(jsonio.read_doc(p)) == "bundle"
)
ORACLE_SEEDS = range(1, 101)


def _reference_validate_bundle(x):
    rep = ValidationReport("bundle")
    rep.merge(cellbase.validate_complex(x.base, x.strat))
    if not rep.ok:
        return rep
    objset = set(x.cat.objects)
    for c in x.base.sorted_cells():
        if x.fibre_obj.get(c) not in objset:
            rep.add("fibre-object", f"cell {c} carries no object")
    if any(v.code == "fibre-object" for v in rep.violations):
        return rep
    incidences = set(x.base.incidences)
    if set(x.transition) != incidences:
        extra = sorted(set(x.transition) - incidences)
        missing = sorted(incidences - set(x.transition))
        if extra:
            rep.add("transition-spurious", f"{extra}")
        if missing:
            rep.add("transition-missing", f"{missing}")
        return rep
    for (f, c), mid in sorted(x.transition.items()):
        if mid not in x.cat.morphisms:
            rep.add("transition-unknown", f"({f}, {c}) -> {mid}")
            continue
        m = x.cat.morphisms[mid]
        if m.src != x.fibre_obj[c] or m.tgt != x.fibre_obj[f]:
            rep.add("transition-typing", f"({f}, {c}) -> {mid}")
    if not rep.ok:
        return rep
    is_iso = {}
    for (f, c), mid in sorted(x.transition.items()):
        if x.strat.strata[f] == x.strat.strata[c]:
            if mid not in is_iso:
                is_iso[mid] = fincat.is_iso_in_image(x.cat, x.ff, mid)
            if not is_iso[mid]:
                rep.add(
                    "stratum-iso",
                    f"within-stratum transition ({f}, {c}) -> {mid} is not invertible",
                )
    commutes = {}
    on, t = x.ff.on_morphisms, x.transition
    for c in x.base.sorted_cells():
        faces = x.base.cells[c].faces
        for i, a in enumerate(faces):
            for b in faces[i + 1 :]:
                common = set(x.base.cells[a].faces) & set(x.base.cells[b].faces)
                for g in sorted(common):
                    key = (t[(g, a)], t[(a, c)], t[(g, b)], t[(b, c)])
                    if key not in commutes:
                        via_a = compose_tables(on[key[0]], on[key[1]])
                        via_b = compose_tables(on[key[2]], on[key[3]])
                        commutes[key] = via_a == via_b
                    if not commutes[key]:
                        rep.add(
                            "coherence",
                            f"descents {c} -> {a} -> {g} and {c} -> {b} -> {g} disagree",
                        )
    return rep


def _assert_same_as_reference(x):
    # the coherence walk reads common faces off one sorted face tuple
    for cell in x.base.cells.values():
        assert list(cell.faces) == sorted(set(cell.faces))
    engine = strabundle.validate_bundle(x).violations
    assert engine == _reference_validate_bundle(x).violations
    return engine


@lru_cache(maxsize=None)
def _torus_doc(n=15):
    """The benchmark's torus cover document at seed 1."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # its dataclasses look their module up there
    spec.loader.exec_module(inputs)
    with tempfile.TemporaryDirectory() as workdir:
        return jsonio.read_doc(inputs.torus_cover(n, 1, Path(workdir)).docs["bundle"])


def _torus():
    return jsonio.bundle_from_doc(_torus_doc())


def _copy(x):
    return dataclasses.replace(x, fibre_obj=dict(x.fibre_obj), transition=dict(x.transition))


class TestValidInputs:
    @pytest.mark.parametrize("name", GOLDEN_BUNDLES)
    def test_golden_bundles(self, name):
        x = jsonio.bundle_from_doc(jsonio.read_doc(GOLDEN / f"{name}.json"))
        _assert_same_as_reference(x)

    def test_oracle_instances(self):
        for seed in ORACLE_SEEDS:
            for groupoid_only in (False, True):
                spec = oracle.InstanceSpec(seed=seed, groupoid_only=groupoid_only)
                _, _, _, gen = oracle._gen_instance(spec)
                assert _assert_same_as_reference(gen.bundle) == []

    def test_benchmark_torus(self):
        x = _torus()
        assert _assert_same_as_reference(x) == []


class TestMutants:
    def test_oracle_instances_with_one_transition_replaced(self):
        # a random morphism in place of a transition is mistyped, breaks a
        # coherence square or invertibility, or happens to be harmless
        codes = set()
        for seed in ORACLE_SEEDS:
            _, cat, _, gen = oracle._gen_instance(oracle.InstanceSpec(seed=seed))
            rng = random.Random(seed)
            for _ in range(3):
                x = _copy(gen.bundle)
                key = rng.choice(sorted(x.transition))
                x.transition[key] = rng.choice(sorted(cat.morphisms))
                codes |= {v.code for v in _assert_same_as_reference(x)}
        assert {"transition-typing", "coherence"} <= codes

    @pytest.mark.parametrize("damage, code", [
        ("missing", "transition-missing"),
        ("spurious", "transition-spurious"),
        ("unknown", "transition-unknown"),
        ("mistyped", "transition-typing"),
        ("fibre-object", "fibre-object"),
    ])
    def test_reference_damage(self, damage, code):
        for x in (corpus.double_cover_c3(), _torus()):
            keys = sorted(x.transition)
            if damage == "missing":
                for key in keys[1::7]:
                    del x.transition[key]
            elif damage == "spurious":
                x.transition[("v0", "v1")] = x.transition[keys[0]]
            elif damage in ("unknown", "mistyped"):
                mid = "nope" if damage == "unknown" else "p1:0"
                for key in keys[::5]:
                    x.transition[key] = mid
            else:
                for c in sorted(x.fibre_obj)[::3]:
                    x.fibre_obj[c] = "nope"
            found = _assert_same_as_reference(x)
            assert found and {v.code for v in found} == {code}

    def test_empty_complex(self):
        x = corpus.double_cover_c3()
        x = dataclasses.replace(
            x, base=cellbase.BaseComplex({}), strat=cellbase.Stratification({}),
            fibre_obj={}, transition={},
        )
        assert [v.code for v in _assert_same_as_reference(x)] == ["empty"]

    def test_non_invertible_within_stratum(self):
        x = corpus.disk_collapse_two_strata()
        assert _assert_same_as_reference(x) == []
        flat = dataclasses.replace(x, strat=cellbase.single_stratum(x.base))
        found = _assert_same_as_reference(flat)
        assert found and {v.code for v in found} == {"stratum-iso"}

    def test_broken_bigon_names_both_common_faces_in_order(self):
        # two edges with the same two end points bound one 2-cell (a
        # Delta-style disk), so its one pair of faces has two common faces
        base = cellbase.complex_from_cells([
            ("p", 0, []), ("q", 0, []), ("a", 1, ["q", "p"]), ("b", 1, ["p", "q"]), ("D", 2, ["b", "a"]),
        ])
        c3 = corpus.double_cover_c3()
        transition = {inc: "p2:01" for inc in base.incidences}
        transition[("a", "D")] = "p2:10"
        x = strabundle.StratBundle(
            base, cellbase.single_stratum(base), c3.cat, c3.ff, dict.fromkeys(base.cells, "set2"),
            transition,
        )
        assert [v.detail for v in _assert_same_as_reference(x)] == [
            "descents D -> a -> p and D -> b -> p disagree",
            "descents D -> a -> q and D -> b -> q disagree",
        ]

    @pytest.mark.parametrize("flips", [1, 5, 40])
    def test_broken_coherence_squares(self, flips):
        x = _torus()
        swap = {"p2:01": "p2:10", "p2:10": "p2:01"}
        for key in random.Random(flips).sample(sorted(x.transition), flips):
            x.transition[key] = swap[x.transition[key]]
        found = _assert_same_as_reference(x)
        assert found and {v.code for v in found} == {"coherence"}
