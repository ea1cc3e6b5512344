"""Coverings of the figure-eight and the 3 x 3 torus against closed-form counts.

Every cell of a connected base carries the fibre ``set n`` of
``perm_category(n)``, and the transitions are twisted by permutations
along generators of the fundamental group.  Such a choice is a
homomorphism from the fundamental group to S_n, and the components of
the total space are the orbits of its image.  None of the counts below
is computed by the engine:

- A homomorphism is transitive on n points for (n - 1)! a_n choices,
  where a_n is the number of subgroups of index n: a point's stabiliser
  is such a subgroup, and each arises from (n - 1)! labellings of the
  other cosets.
- With k orbits, sum over the partitions of the n points into k blocks
  the product of the blocks' transitive counts.
- The figure-eight's group is free of rank 2, and M. Hall's recurrence
  ("Subgroups of finite index in free groups", Canad. J. Math. 1, 1949)
  gives a_n(2).  Every choice of two twists is a bundle.
- The torus's group is Z^2, with sigma(n) subgroups of index n.  The
  coherence squares of the corner triangles hold exactly when the two
  twists commute, so the gate accepts |Hom(Z^2, S_n)| = n! p(n) pairs,
  p the partition function, and refuses the rest at stage 8.

Over the whole base, only the identity choice trivializes.
"""
from collections import Counter
from itertools import permutations, product
from math import comb, factorial

import pytest

from stratabundle import cellbase, corpus, strabundle, triviality

from conftest import build_torus

TORUS_N = 3


def _hall(n: int, rank: int) -> dict[int, int]:
    """a_m(rank) for m = 1..n: a_m = m (m!)^(rank-1) - sum_{k<m} ((m-k)!)^(rank-1) a_k."""
    a = {}
    for m in range(1, n + 1):
        a[m] = m * factorial(m) ** (rank - 1) - sum(
            factorial(m - k) ** (rank - 1) * a[k] for k in range(1, m)
        )
    return a


def _divisor_sum(m: int) -> int:
    return sum(d for d in range(1, m + 1) if m % d == 0)


def _partitions(n: int) -> int:
    """p(n), counting partitions by their parts up to each size in turn."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _by_orbits(n: int, transitive: dict[int, int]) -> dict[int, int]:
    """Actions on n labelled points by number of orbits, from the transitive counts.

    The orbit of the least point has j points, chosen in C(m - 1, j - 1) ways.
    """
    rows = [{0: 1}]
    for m in range(1, n + 1):
        row = Counter()
        for j in range(1, m + 1):
            for k, count in rows[m - j].items():
                row[k + 1] += comb(m - 1, j - 1) * transitive[j] * count
        rows.append(row)
    return dict(rows[n])


def _perm_id(n: int, perm) -> str:
    return f"p{n}:" + "".join(map(str, perm))


def _figure_eight():
    """The boundaries of two triangles sharing v0: a graph with two independent loops."""
    entries = [(f"v{i}", 0, []) for i in range(5)]
    for u, v in (("v0", "v1"), ("v1", "v2"), ("v0", "v2"), ("v0", "v3"), ("v3", "v4"), ("v0", "v4")):
        entries.append((cellbase.simplex_name([u, v]), 1, [u, v]))
    base = cellbase.complex_from_cells(entries)
    return base, cellbase.single_stratum(base)


def _figure_eight_bundle(cat, ff, n, sigma, tau):
    base, strat = _figure_eight()
    transition = dict.fromkeys(base.incidences, cat.identities[f"set{n}"])
    transition[("v0", "v0.v2")] = _perm_id(n, sigma)
    transition[("v0", "v0.v4")] = _perm_id(n, tau)
    return strabundle.StratBundle(base, strat, cat, ff, dict.fromkeys(base.cells, f"set{n}"), transition)


def _torus_steps():
    """For each incidence (f, c) of the 3 x 3 torus, the seams crossed from c's fibre to f's.

    Each cell's fibre is read at its least vertex.  Lift the cell into one
    grid square of the plane; the step from its least vertex to its face's
    least vertex, less the same step read on the torus, is N times the
    number of seams crossed in each direction.
    """
    base, strat = build_torus(TORUS_N)
    coords = {v: tuple(map(int, v[1:].split("_"))) for v in base.cells if base.cells[v].dim == 0}

    def lift(vertices):
        # a cell spans one row or two neighbouring ones, x and x + 1 mod N; the same for columns
        lifted = {v: [] for v in vertices}
        for axis in (0, 1):
            values = {coords[v][axis] for v in vertices}
            low = next(x for x in values if len(values) == 1 or (x + 1) % TORUS_N in values)
            for v in vertices:
                lifted[v].append(low if coords[v][axis] == low else low + 1)
        return lifted

    steps = {}
    for f, c in base.incidences:
        lifted = lift(c.split("."))
        ref_c, ref_f = min(c.split(".")), min(f.split("."))
        steps[(f, c)] = tuple(
            (lifted[ref_f][k] - lifted[ref_c][k] - coords[ref_f][k] + coords[ref_c][k]) // TORUS_N
            for k in (0, 1)
        )
    return base, strat, steps


def _compose(p, q):
    """p after q."""
    return tuple(p[i] for i in q)


def _power(p, k: int):
    if k < 0:
        p = tuple(sorted(range(len(p)), key=p.__getitem__))
    result = tuple(range(len(p)))
    for _ in range(abs(k)):
        result = _compose(p, result)
    return result


def _stage(x) -> tuple[int, str] | None:
    """The 1-based index and first violation code of the first failing gate stage."""
    for index, rep in enumerate(strabundle.bundle_stages(x), start=1):
        if not rep.ok:
            return index, rep.violations[0].code
    return None


@pytest.mark.parametrize("n, connected", [(2, 3), (3, 26), (4, 426)])
def test_figure_eight_components_count_as_subgroups_of_the_free_group(n, connected):
    cat, ff = corpus.perm_category(n)
    transitive = {m: factorial(m - 1) * a for m, a in _hall(n, 2).items()}
    components, trivialized = Counter(), []
    for sigma, tau in product(permutations(range(n)), repeat=2):
        x = _figure_eight_bundle(cat, ff, n, sigma, tau)
        assert _stage(x) is None
        components[triviality.covering_space(x).components] += 1
        if triviality.trivialize_over(x, set(x.base.cells)).ok:
            trivialized.append((sigma, tau))
    assert components[1] == transitive[n] == connected
    assert components == _by_orbits(n, transitive)
    assert trivialized == [(tuple(range(n)),) * 2]


def test_figure_eight_distribution_at_four_sheets():
    transitive = {m: factorial(m - 1) * a for m, a in _hall(4, 2).items()}
    assert _hall(4, 2) == {1: 1, 2: 3, 3: 13, 4: 71}
    assert _by_orbits(4, transitive) == {1: 426, 2: 131, 3: 18, 4: 1}


@pytest.mark.parametrize("n, accepted, connected", [(2, 4, 3), (3, 18, 8), (4, 120, 42)])
def test_torus_gate_accepts_commuting_pairs_and_components_count_as_subgroups_of_z2(
    n, accepted, connected
):
    cat, ff = corpus.perm_category(n)
    base, strat, steps = _torus_steps()
    fibre_obj = dict.fromkeys(base.cells, f"set{n}")
    transitive = {m: factorial(m - 1) * _divisor_sum(m) for m in range(1, n + 1)}
    components, refused, trivialized = Counter(), Counter(), []
    for sigma, tau in product(permutations(range(n)), repeat=2):
        twist = {
            step: _perm_id(n, _compose(_power(sigma, step[0]), _power(tau, step[1])))
            for step in set(steps.values())
        }
        transition = {key: twist[step] for key, step in steps.items()}
        x = strabundle.StratBundle(base, strat, cat, ff, fibre_obj, transition)
        failed = _stage(x)
        assert (failed is None) == (_compose(sigma, tau) == _compose(tau, sigma))
        if failed is not None:
            refused[failed] += 1
            continue
        components[triviality.covering_space(x).components] += 1
        if triviality.trivialize_over(x, set(base.cells)).ok:
            trivialized.append((sigma, tau))
    assert sum(components.values()) == factorial(n) * _partitions(n) == accepted
    assert components[1] == transitive[n] == connected
    assert components == _by_orbits(n, transitive)
    assert set(refused) <= {(8, "coherence")}
    assert sum(refused.values()) == factorial(n) ** 2 - accepted
    assert trivialized == [(tuple(range(n)),) * 2]
