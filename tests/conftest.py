"""Helpers shared by several test modules: small triangulated tori, a
twisted circle, the principal diagrams of the golden bundles, a groupoid
reference, a paused collector and a count of the exhaustive law passes."""
import functools
import gc
import random
from pathlib import Path

import pytest

from stratabundle import cellbase, corpus, fincat, funcspace, jsonio, strabundle

GOLDEN = Path(__file__).resolve().parent / "golden"


def build_torus(n: int, labels=None):
    """n x n triangulated torus (n >= 3): n^2 vertices t<i>_<j>, 6 n^2 cells.

    ``labels``, when given, lists n^2 vertex names to use in grid order instead.
    """
    def name(i, j):
        if labels is not None:
            return labels[(i % n) * n + j % n]
        return f"t{i % n}_{j % n}"

    entries = [(name(i, j), 0, []) for i in range(n) for j in range(n)]
    for i in range(n):
        for j in range(n):
            a, right, down, diag = name(i, j), name(i, j + 1), name(i + 1, j), name(i + 1, j + 1)
            for u, v in ((a, right), (a, down), (a, diag)):
                entries.append((cellbase.simplex_name([u, v]), 1, [u, v]))
            for u in (down, right):
                faces = [cellbase.simplex_name(e) for e in ((a, u), (u, diag), (a, diag))]
                entries.append((cellbase.simplex_name([a, u, diag]), 2, faces))
    b = cellbase.complex_from_cells(entries)
    return b, cellbase.single_stratum(b)


def build_torus_cover(n: int) -> strabundle.StratBundle:
    """Pull-back of ``corpus.double_cover_c3`` along (i, j) -> v_{i mod 3}.

    n must be a multiple of 3.  Each row-direction cycle winds n / 3 times
    around the circle, so the cover is connected when n / 3 is odd and
    splits into two sheets when it is even.
    """
    return _torus_pullback(n, [f"t{i}_{j}" for i in range(n) for j in range(n)])[0]


def build_shuffled_torus_cover(n: int, seed: int):
    """``build_torus_cover(n)`` with its vertex names shuffled by ``random.Random(seed)``.

    The names are ``t<k>`` with five digits, as the benchmark's torus has
    them.  The shuffle changes the sorted cell order, hence every BFS tree
    the engine builds over the complex.  Returns the bundle and the
    simplicial map it is pulled back along.
    """
    labels = [f"t{k:05d}" for k in range(n * n)]
    random.Random(seed).shuffle(labels)
    return _torus_pullback(n, labels)


def _torus_pullback(n: int, labels):
    """Pull-back of ``corpus.double_cover_c3`` along (i, j) -> v_{i mod 3}, and the map."""
    b, s = build_torus(n, labels)
    circle = corpus.double_cover_c3()
    vertex_map = {labels[i * n + j]: f"v{i % 3}" for i in range(n) for j in range(n)}
    fbar = cellbase.SimplicialMap.from_vertex_map(b, circle.base, vertex_map)
    return strabundle.pullback(circle, fbar, s).bundle, fbar


def build_twisted_circle(cat, ff, obj: str, twist: str) -> strabundle.StratBundle:
    """The circle ``c3`` with fibre ``obj`` at every cell, every transition the
    identity of ``obj`` except ``twist`` at its first incidence."""
    base, strat = corpus.c3()
    transition = dict.fromkeys(base.incidences, cat.identities[obj])
    transition[base.incidences[0]] = twist
    return strabundle.StratBundle(base, strat, cat, ff, dict.fromkeys(base.cells, obj), transition)


@functools.cache
def principal_text(name: str) -> str:
    """The canonical principal diagram of the golden bundle ``name``."""
    x = jsonio.bundle_from_doc(jsonio.read_doc(GOLDEN / f"{name}.json"))
    return jsonio.canon_dumps(jsonio.diagram_to_doc(funcspace.principal_diagram(x)))


@pytest.fixture
def torus():
    return build_torus


@pytest.fixture
def torus_cover():
    return build_torus_cover


@pytest.fixture
def collector_off():
    """The cyclic collector paused, so only reference counting frees objects."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def is_groupoid(cat):
    """True when every morphism has a strict two-sided inverse; else the least witness."""
    for m in sorted(cat.morphisms.values(), key=lambda x: x.id):
        if not any(
            cat.compose_table.get((u, m.id)) == cat.identities[m.src]
            and cat.compose_table.get((m.id, u)) == cat.identities[m.tgt]
            for u in cat.hom(m.tgt, m.src)
        ):
            return False, m.id
    return True, None


@pytest.fixture
def exhaustive_calls(monkeypatch):
    """Calls of the exhaustive associativity and functor-law passes, by name."""
    calls = {"_check_associativity": 0, "_failing_pairs": 0}

    def counting(name):
        original = getattr(fincat, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(fincat, name, wrapper)

    for name in calls:
        counting(name)
    return calls
