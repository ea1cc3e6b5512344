"""Acceptance criteria, one test per criterion, one printed line each.

Bounds are pinned here: instance sizes (30 cells, 3 strata, 3 objects,
fibres of 4), seed counts, zero-tolerance on theorem violations, and the
wall-clock budgets.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import time

from stratabundle import corpus, funcspace, jsonio, oracle, triviality

SPEC = oracle.InstanceSpec(
    seed=1, max_cells=30, max_objects=3, max_fibre_size=4, strata_depth=3
)


def _report_line(number: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, text


def _run(suite: str, spec: oracle.InstanceSpec, seeds: int):
    start = time.perf_counter()
    rep = oracle.run_suite(suite, spec, seeds)
    elapsed = time.perf_counter() - start
    return rep, elapsed


def test_criterion_1_pullback_theorem_suite():
    rep, elapsed = _run("pullback", SPEC, 100)
    ok = (
        rep.instances == 100
        and rep.passes == 100
        and not rep.failures
        and not rep.invalid_inputs
        and elapsed < 60.0
    )
    _report_line(
        1,
        ok,
        f"pull-back suite {rep.passes}/100 with 0 violations in {elapsed:.2f}s (< 60s)",
    )


def test_criterion_2_bundle_theorem_suite():
    spec = oracle.InstanceSpec(
        seed=1, max_cells=30, max_objects=3, max_fibre_size=4,
        groupoid_only=True, strata_depth=3,
    )
    rep, elapsed = _run("bundle", spec, 100)
    ok = (
        rep.instances == 100
        and rep.passes == 100
        and not rep.failures
        and not rep.invalid_inputs
        and elapsed < 60.0
    )
    _report_line(
        2,
        ok,
        f"bundle suite {rep.passes}/100 groupoid instances certified and "
        f"re-stratified in {elapsed:.2f}s (< 60s)",
    )


def test_criterion_3_principal_theorem_suite():
    rep, elapsed = _run("principal", SPEC, 100)
    ok = (
        rep.instances == 100
        and rep.passes == 100
        and not rep.failures
        and not rep.invalid_inputs
        and elapsed < 120.0
    )
    _report_line(
        3,
        ok,
        f"principal suite {rep.passes}/100 reconstructions plus pointwise "
        f"coend identities in {elapsed:.2f}s (< 120s)",
    )


def test_criterion_4_covering_examples():
    cov = triviality.covering_space(corpus.double_cover_c3())
    total = cov.total
    by_dim = {0: 0, 1: 0}
    for cell, _ in total.elements:
        dim = len(cell.split(".")) - 1
        by_dim[dim] += 1
    connected = cov.components == 1
    transposition = [m.cycle_type for m in cov.monodromy] == [(2,)]
    trivial = triviality.covering_space(corpus.trivial_two_sheets_c3())
    ok = (
        connected
        and by_dim == {0: 6, 1: 6}
        and transposition
        and trivial.components == 2
    )
    _report_line(
        4,
        ok,
        "double cover is connected with 6 vertices, 6 edges and transposition "
        f"monodromy; trivial cover splits into {trivial.components} components",
    )


def test_criterion_5_fiberwise_product_suite():
    rep, elapsed = _run("fiberwise", SPEC, 50)
    ok = (
        rep.instances == 50
        and rep.passes == 50
        and not rep.failures
        and not rep.invalid_inputs
        and elapsed < 30.0
    )
    _report_line(
        5,
        ok,
        f"fibrewise product suite {rep.passes}/50 with total-space pairing "
        f"in {elapsed:.2f}s (< 30s)",
    )


def test_criterion_6_associated_bundle():
    rep, _ = _run("associated", SPEC, 50)
    x = corpus.bz2_double_cover_c3()
    before = [m.cycle_type for m in triviality.covering_space(x).monodromy]
    phi, gg = corpus.bz2_trivializer()
    killed = funcspace.associated_bundle(x, phi, gg)
    after = triviality.covering_space(killed)
    ok = (
        rep.instances == 50
        and rep.passes == 50
        and not rep.failures
        and not rep.invalid_inputs
        and before == [(2,)]
        and [m.cycle_type for m in after.monodromy] == [(1, 1)]
        and after.components == 2
    )
    _report_line(
        6,
        ok,
        f"identity transport reproduces {rep.passes}/50 instances; the "
        "trivializing homomorphism kills the double cover's monodromy",
    )


def test_criterion_7_determinism():
    ok = True
    for suite in ["pullback", "bundle", "principal"]:
        spec = oracle.InstanceSpec(
            seed=17, groupoid_only=(suite == "bundle")
        )
        first = jsonio.canon_dumps(oracle.run_suite(suite, spec, 8).to_doc())
        second = jsonio.canon_dumps(oracle.run_suite(suite, spec, 8).to_doc())
        ok = ok and first == second
    _report_line(7, ok, "re-running each suite with one seed is byte-identical")
