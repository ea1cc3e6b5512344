"""The operations of each workload and the checks on their outputs.

An operation is one in-process ``cli.main(argv)`` command with stdout and
stderr captured, or one seed of one verification suite.  ``call`` is the
timed part.  Untimed afterwards, ``output`` turns its result into the
output bytes, whose sha256 must be the same in every pass of a run, and
``check`` raises ``OpFailed`` when those bytes are wrong.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from stratabundle import cli, jsonio, oracle

import inputs


class OpFailed(Exception):
    pass


@dataclass
class Op:
    key: str
    call: Callable[[], object]
    output: Callable[[object], bytes]
    check: Callable[[bytes], None]


def _run_cli(argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _cli_op(key: str, argv: list[str], out: Path, check: Callable[[bytes], None]) -> Op:
    def output(code) -> bytes:
        if code != 0:
            raise OpFailed(f"{key}: exit code {code}")
        return out.read_bytes()

    return Op(key, lambda: _run_cli(argv + ["-o", str(out)]), output, check)


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise OpFailed(what)


def _doc(data: bytes) -> dict:
    return json.loads(data)


def _report_ok(data: bytes) -> None:
    _expect(_doc(data)["ok"] is True, "validate: report is not ok")


def _same_bytes(expected: Path, what: str) -> Callable[[bytes], None]:
    def check(data: bytes) -> None:
        _expect(data == expected.read_bytes(), f"{what}: output differs from the input bundle")

    return check


def torus_pass(inp: inputs.Inputs, out: Path, label: str = "") -> list[Op]:
    """validate, pullback, cover, trivialize, certify and total on the torus."""
    bundle = str(inp.docs["bundle"])
    cells, incidences = inp.sizes["cells"], inp.sizes["incidences"]

    def cover(data: bytes) -> None:
        doc = _doc(data)
        _expect(doc["components"] == 1, "cover: total space is not connected")
        _expect(list(doc["sheets"].values()) == [2], "cover: not one component of 2 sheets")
        _expect(doc["even_cover"] is True, "cover: not an even cover")
        _expect(
            len(doc["monodromy"]) == incidences - cells + 1,
            "cover: monodromy entries differ from incidences - cells + 1",
        )

    def trivialize(data: bytes) -> None:
        _expect(_doc(data)["kind"] == "obstruction", "trivialize: no obstruction loop")

    def certify(data: bytes) -> None:
        _expect(len(_doc(data)["stars"]) == cells, "certify: not one star per cell")

    def total(data: bytes) -> None:
        _expect(len(_doc(data)["elements"]) == 2 * cells, "total: not 2 elements per cell")

    def op(name, argv, check):
        return _cli_op(label + name, [name] + argv, out / f"{label}{name}.json", check)

    return [
        op("validate", [bundle], _report_ok),
        op("pullback", [str(inp.docs["c3_cover"]), str(inp.docs["map"])],
           _same_bytes(inp.docs["bundle"], "pullback")),
        op("cover", [bundle], cover),
        op("trivialize", [bundle], trivialize),
        op("certify", [bundle], certify),
        op("total", [bundle], total),
    ]


def growth_pass(inp: inputs.Inputs, out: Path) -> list[Op]:
    """cover and certify only, on the half-side torus."""
    return [op for op in torus_pass(inp, out, "half-") if op.key in ("half-cover", "half-certify")]


def wide_pass(inp: inputs.Inputs, out: Path) -> list[Op]:
    """validate, principal, coend, reconstruct, associate and fnspace on perm_category(5)."""
    bundle = str(inp.docs["bundle"])
    diagram = out / "principal.json"
    n = inputs.PERM_N

    def reconstruct(data: bytes) -> None:
        iso = _doc(data)["cells"]
        _expect(len(iso) == inp.sizes["cells"], "reconstruct: iso misses cells")
        _expect(all(len(t) == n for t in iso.values()), "reconstruct: iso is not fibrewise")

    def fnspace(data: bytes) -> None:
        fibres = _doc(data)["category"]["fibres"][f"set{n}"]
        _expect(len(fibres) == inp.sizes["max_hom"], "fnspace: fibre is not the hom-set")

    def op(name, argv, check):
        return _cli_op(name, [name] + argv, out / f"{name}.json", check)

    return [
        op("validate", [bundle], _report_ok),
        op("principal", [bundle], lambda data: None),  # checked through coend below
        op("coend", [str(diagram), "--category", str(inp.docs["category"])],
           _same_bytes(inp.docs["bundle"], "coend")),
        op("reconstruct", [bundle], reconstruct),
        op("associate", [bundle, str(inp.docs["functor"])],
           _same_bytes(inp.docs["bundle"], "associate")),
        op("fnspace", [bundle, "-V", f"set{n}"], fnspace),
    ]


def suite_pass(inp: inputs.Inputs) -> list[Op]:
    """One op per seed of each suite at acceptance scale, in a seeded order."""
    spec = inp.extra["spec"]

    def output(rep) -> bytes:
        return jsonio.canon_dumps(rep.to_doc()).encode()

    def check(data: bytes) -> None:
        rep = _doc(data)
        _expect(
            rep["passes"] == rep["instances"] and not rep["failures"] and not rep["invalid_inputs"],
            f"{rep['suite']} seed {rep['base_seed']}: {rep['passes']}/{rep['instances']} pass",
        )

    ops = []
    for name, count in inputs.SUITE_SEEDS.items():
        for s in range(spec.seed, spec.seed + count):
            sub = spec.with_seed(s)
            call = lambda name=name, sub=sub: oracle.run_suite(name, sub, 1)  # noqa: E731
            ops.append(Op(f"{name}:{s}", call, output, check))
    random.Random(inp.extra["order_seed"]).shuffle(ops)
    return ops
