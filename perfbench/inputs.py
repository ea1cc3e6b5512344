"""Seeded inputs of the three benchmark workloads.

Each function here takes the workload seed and returns the documents the
program will see, together with the sizes the benchmark reports.  It
re-validates what it made with the program's own validators and raises if
anything is invalid, so a timed pass never starts on bad input.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from stratabundle import cellbase, corpus, fincat, jsonio, oracle, strabundle

# The reference torus has n = 33: 6534 cells and 13068 incidences.  n must
# be an odd multiple of 3: a multiple of 3 so the vertex map onto the
# three-vertex circle is well defined across the seam, odd so that n / 3
# loops around the circle give the double cover non-trivial holonomy and a
# connected total space.
TORUS_N = 33
HALF_TORUS_N = 15  # the odd multiple of 3 nearest TORUS_N / 2

PERM_N = 5  # perm_category(5): 153 morphisms, 15017 composable pairs

# Acceptance scale of the five suites, with the spec pinned explicitly.  The
# instances are those of the acceptance seeds from 1: moving the window with
# the workload seed changed peak memory 4x (34-137 MB) and throughput by 30 %
# between seeds, as single heavy fibrewise products enter or leave it.  The
# workload seed shuffles the order of the ops instead.
SUITE_SEEDS = {"pullback": 100, "bundle": 100, "principal": 100, "fiberwise": 50, "associated": 50}
SUITE_SPEC = dict(max_cells=30, max_objects=3, max_fibre_size=4, strata_depth=3)
SUITE_BASE_SEED = 1


@dataclass
class Inputs:
    """Paths of the written documents and the sizes of the main input."""

    docs: dict[str, Path] = field(default_factory=dict)
    doc_bytes: dict[str, int] = field(default_factory=dict)
    sizes: dict[str, float] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def _validate_bundle_fully(x: strabundle.StratBundle) -> None:
    strabundle.validate_bundle(x).raise_if_invalid()
    fincat.validate_category(x.cat).raise_if_invalid()
    fincat.validate_fibre_functor(x.cat, x.ff).raise_if_invalid()


def _category_sizes(cat: fincat.FiniteCategory) -> dict[str, float]:
    homs = {}
    for m in cat.morphisms.values():
        homs[(m.src, m.tgt)] = homs.get((m.src, m.tgt), 0) + 1
    return {
        "morphisms": len(cat.morphisms),
        "composable_pairs": len(cat.compose_table),
        "max_hom": max(homs.values(), default=0),
    }


def _bundle_sizes(x: strabundle.StratBundle) -> dict[str, float]:
    return {
        "cells": len(x.base.cells),
        "incidences": len(x.base.incidences),
        **_category_sizes(x.cat),
    }


def _write(inputs: Inputs, workdir: Path, name: str, doc: dict) -> None:
    path = workdir / f"{name}.json"
    jsonio.write_doc(path, doc)
    inputs.docs[name] = path
    inputs.doc_bytes[name] = path.stat().st_size


def torus_complex(n: int, rng: random.Random) -> tuple[cellbase.BaseComplex, dict]:
    """n x n triangulated torus with 6 n^2 cells and shuffled vertex names.

    Returns the complex and the grid position of each vertex name.  The
    shuffle changes the sorted cell order, hence every BFS tree the
    program builds over the complex.
    """
    grid = [(i, j) for i in range(n) for j in range(n)]
    labels = [f"t{k:05d}" for k in range(n * n)]
    rng.shuffle(labels)
    name = dict(zip(grid, labels))
    entries = [(name[p], 0, []) for p in grid]
    for i, j in grid:
        a = name[i, j]
        right = name[i, (j + 1) % n]
        down = name[(i + 1) % n, j]
        diag = name[(i + 1) % n, (j + 1) % n]
        for u, v in ((a, right), (a, down), (a, diag)):
            entries.append((cellbase.simplex_name([u, v]), 1, [u, v]))
        for u in (down, right):
            faces = [cellbase.simplex_name(e) for e in ((a, u), (u, diag), (a, diag))]
            entries.append((cellbase.simplex_name([a, u, diag]), 2, faces))
    return cellbase.complex_from_cells(entries), {label: p for p, label in name.items()}


def torus_cover(n: int, seed: int, workdir: Path) -> Inputs:
    """Pull-back of the double cover of the circle to the n x n torus.

    The vertex map is (i, j) -> v_{(i + k) mod 3}, with the offset k and
    the vertex names drawn from the seed.  Writes the circle cover, the
    map (which carries the torus) and the pulled-back bundle.
    """
    rng = random.Random(seed)
    torus, position = torus_complex(n, rng)
    offset = rng.randrange(3)
    c3_cover = corpus.double_cover_c3()
    vertex_map = {v: f"v{(i + offset) % 3}" for v, (i, _) in position.items()}
    fbar = cellbase.SimplicialMap.from_vertex_map(torus, c3_cover.base, vertex_map)
    strat = cellbase.single_stratum(torus)
    bundle = strabundle.pullback(c3_cover, fbar, strat).bundle
    _validate_bundle_fully(bundle)

    inputs = Inputs(sizes=_bundle_sizes(bundle))
    _write(inputs, workdir, "c3_cover", jsonio.bundle_to_doc(c3_cover))
    _write(inputs, workdir, "map", jsonio.map_to_doc(fbar, strat))
    _write(inputs, workdir, "bundle", jsonio.bundle_to_doc(bundle))
    return inputs


def wide_category(seed: int, workdir: Path) -> Inputs:
    """A 5-sheeted cover of the circle with perm_category(5) as structure.

    Every transition is the identity except one incidence, drawn from the
    seed, which carries a 5-cycle that is also drawn from the seed.
    Writes the bundle, its category and the identity functor on it.
    """
    rng = random.Random(seed)
    cat, ff = corpus.perm_category(PERM_N)
    base, strat = corpus.c3()
    order = list(range(PERM_N))
    rng.shuffle(order)
    cycle = [0] * PERM_N
    for t in range(PERM_N):
        cycle[order[t]] = order[(t + 1) % PERM_N]
    twisted = f"p{PERM_N}:" + "".join(map(str, cycle))
    plain = cat.identities[f"set{PERM_N}"]
    twist_at = rng.choice(base.incidences)
    transition = {inc: (twisted if inc == twist_at else plain) for inc in base.incidences}
    bundle = strabundle.StratBundle(
        base, strat, cat, ff, {c: f"set{PERM_N}" for c in base.cells}, transition
    )
    _validate_bundle_fully(bundle)

    inputs = Inputs(sizes=_bundle_sizes(bundle))
    _write(inputs, workdir, "bundle", jsonio.bundle_to_doc(bundle))
    _write(inputs, workdir, "category", jsonio.category_to_doc(cat, ff))
    _write(inputs, workdir, "functor", jsonio.functor_to_doc(fincat.identity_cat_functor(cat), ff))
    return inputs


def suite_instances(seed: int) -> Inputs:
    """Generate and validate the instances the five suites will rebuild.

    The suites regenerate every instance from its seed inside the timed
    op; this pass builds the same first instance per seed up front with
    the public generators, so invalid generator output shows in set-up and
    the instance sizes can be reported.  Sizes are the largest instance;
    ``extra`` holds the per-instance means and the workload seed, which
    orders the ops.
    """
    base_spec = oracle.InstanceSpec(seed=SUITE_BASE_SEED, **SUITE_SPEC)
    cells, morphisms = [], []
    largest: dict[str, float] = {}
    for name, count in SUITE_SEEDS.items():
        spec = replace(base_spec, groupoid_only=(name == "bundle"))
        for s in range(SUITE_BASE_SEED, SUITE_BASE_SEED + count):
            sub = replace(spec, seed=s)
            rng = oracle.SplitMix64(s)
            cat, ff = oracle.gen_category(sub, rng)
            x = oracle.gen_bundle(sub, cat, ff, rng).bundle
            _validate_bundle_fully(x)
            sizes = _bundle_sizes(x)
            cells.append(sizes["cells"])
            morphisms.append(sizes["morphisms"])
            for key, value in sizes.items():
                largest[key] = max(largest.get(key, 0), value)
    inputs = Inputs(sizes=largest)
    inputs.extra["spec"] = base_spec
    inputs.extra["order_seed"] = seed
    inputs.extra["cells_per_instance"] = sum(cells) / len(cells)
    inputs.extra["morphisms_per_instance"] = sum(morphisms) / len(morphisms)
    return inputs
