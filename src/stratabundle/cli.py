"""Command-line surface binding every operation to the JSON documents.

Exit codes: 0 success, 1 validation failure, 2 precondition refused,
3 unreadable or malformed document.  Every command writes its output
atomically and prints a one-line summary to stderr; reports and documents
go to the path given with ``-o`` or to stdout.

Every bundle passes one gate, the stage list ``strabundle.bundle_stages``:
``_valid_bundle`` raises its first failing stage, for every bundle that
``_load_bundle`` reads and for the one ``coend`` builds from its diagram
and ``--category``, and ``validate`` and ``reconstruct`` merge every stage
into the report that ``_report`` writes; a diagram's stage list is
``funcspace.diagram_stages``.  No command calls a validator of its own
beside it.

A command that reads a second category document (``associate``'s functor
target, ``product``'s second bundle, ``attach``'s piece bundle, ``coend``'s
``--category``) hands the reader the ``known`` pair of the first, so an
equal category is one object and its laws are decided once.
"""
from __future__ import annotations

import argparse
import functools
import gc
import sys
import time
from pathlib import Path

from . import cellbase, corpus, fincat, funcspace, jsonio, oracle, strabundle, triviality
from .validation import (
    DocumentError, PreconditionError, StructureError, ValidationReport, first_failure,
)

OK, INVALID, REFUSED, UNREADABLE = 0, 1, 2, 3


def _emit(doc, out: str | None) -> None:
    if out:
        jsonio.write_doc(out, doc)
    else:
        sys.stdout.writelines(jsonio.canon_chunks(doc))


def _say(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _report(rep: ValidationReport, out: str | None, summary: str = "") -> int:
    """Write ``rep`` and summarise it on stderr; exit 0 if it is ok and 1 otherwise."""
    _emit(rep.to_doc(), out)
    _say(summary or str(rep))
    return OK if rep.ok else INVALID


def _valid_bundle(x: strabundle.StratBundle) -> strabundle.StratBundle:
    """Raise the first failing stage of ``strabundle.bundle_stages``; the one bundle gate."""
    if (failed := first_failure(strabundle.bundle_stages(x))) is not None:
        failed.raise_if_invalid()
    return x


def _load_bundle(path: str, known=None) -> strabundle.StratBundle:
    """The gated bundle at ``path``; ``known`` is passed on to ``category_from_doc``."""
    return _valid_bundle(jsonio.bundle_from_doc(jsonio.read_doc(path), known))


def _load_bundle_pair(path: str) -> tuple[strabundle.StratBundle, tuple]:
    """``_load_bundle(path)`` and its ``(category document, category)`` pair.

    A command hands the pair on as ``known`` to its reads of a second
    category document, which then reuse an equal category (see
    ``jsonio.category_from_doc``).  Of the document only the category
    subtree outlives the read, and only while the caller keeps the pair.
    """
    doc = jsonio.read_doc(path)
    x = jsonio.bundle_from_doc(doc)
    category = doc["category"]
    del doc  # the rest of the tree is freed before the gate builds the indexes
    return _valid_bundle(x), (category, x.cat)


def cmd_validate(args) -> int:
    doc = jsonio.read_shared(args.document)
    kind = args.kind or jsonio.detect_kind(doc)
    if kind == "category":
        stages = fincat.functor_stages(*jsonio.category_from_doc(doc))
    elif kind == "complex":
        stages = [cellbase.validate_complex(*jsonio.complex_from_doc(doc))]
    elif kind == "bundle":
        stages = strabundle.bundle_stages(jsonio.bundle_from_doc(doc))
    elif kind == "diagram":
        stages = funcspace.diagram_stages(jsonio.diagram_from_doc(doc))
    else:
        raise DocumentError(f"cannot validate a document of kind {kind!r}")
    return _report(ValidationReport.merged(kind, stages), args.out)


def cmd_attach(args) -> int:
    y, known = _load_bundle_pair(args.bundle)
    m, a_cells, base_map, fibre_morphisms = jsonio.attachment_from_doc(
        jsonio.read_doc(args.attachment), y, known=known
    )
    _valid_bundle(m)
    res = strabundle.attach_bundle(y, m, a_cells, base_map, fibre_morphisms)
    _emit(jsonio.bundle_to_doc(res.bundle), args.out)
    _say(f"attached {len(res.new_cells)} new cell(s)")
    return OK


def cmd_pullback(args) -> int:
    x = _load_bundle(args.bundle)
    fbar, w_strat = jsonio.map_from_doc(jsonio.read_doc(args.map), x.base)
    res = strabundle.pullback(x, fbar, w_strat)
    _emit(jsonio.bundle_to_doc(res.bundle), args.out)
    _say(f"pulled back over {len(fbar.source.cells)} cell(s)")
    return OK


def cmd_restrict(args) -> int:
    x = _load_bundle(args.bundle)
    if args.star is not None:
        region = cellbase.star_cells(x.base, args.star)
    else:
        region = set(args.cells.split(","))
    sub = strabundle.restrict(x, region)
    _emit(jsonio.bundle_to_doc(sub), args.out)
    _say(f"restricted to {len(sub.base.cells)} cell(s)")
    return OK


def cmd_product(args) -> int:
    x, known = _load_bundle_pair(args.bundle)
    x2 = _load_bundle(args.other, known=known)
    _emit(jsonio.bundle_to_doc(strabundle.fiberwise_product(x, x2)), args.out)
    _say("fibrewise product built")
    return OK


def cmd_fnspace(args) -> int:
    x = _load_bundle(args.bundle)
    _emit(jsonio.bundle_to_doc(funcspace.function_bundle(x, args.object)), args.out)
    _say(f"function bundle at {args.object}")
    return OK


def cmd_principal(args) -> int:
    x = _load_bundle(args.bundle)
    d = funcspace.principal_diagram(x)
    _emit(jsonio.diagram_to_doc(d), args.out)
    _say(f"principal diagram with {len(d.components)} component(s)")
    return OK


def cmd_coend(args) -> int:
    # a --category document whose category core equals the first
    # component's is read as d.cat; of the parsed diagram only that
    # component's category document outlives the read
    d, first = jsonio.read_diagram(args.diagram)
    rep = funcspace.validate_diagram(d)
    if not rep.ok:
        return _report(rep, args.out)
    if not args.category:
        raise PreconditionError(
            "coend needs a fibre functor: pass a category document with --category"
        )
    cat, ff = jsonio.category_from_doc(jsonio.read_doc(args.category), known=(first, d.cat))
    if cat != d.cat:
        rep = ValidationReport("coend")
        rep.add("category-mismatch", "the --category document's category is not the diagram's")
        return _report(rep, args.out)
    y = strabundle.StratBundle(d.base, d.strat, d.cat, ff, d.fibre_obj, d.transitions)
    res = funcspace.coend(_valid_bundle(y))
    if not res.report.ok:
        return _report(res.report, args.out)
    _emit(jsonio.bundle_to_doc(y), args.out)
    _say("coend computed")
    return OK


def cmd_reconstruct(args) -> int:
    x = jsonio.bundle_from_doc(jsonio.read_doc(args.bundle))
    rep = ValidationReport.merged("bundle", strabundle.bundle_stages(x))
    if not rep.ok:
        return _report(rep, args.out)
    res = funcspace.reconstruct_check(x)
    if not res.ok:
        return _report(res.coend.report, args.out, "reconstruction failed")
    _emit(jsonio.iso_to_doc(res), args.out)
    _say("reconstruction verified; iso written")
    return OK


def cmd_associate(args) -> int:
    x, known = _load_bundle_pair(args.bundle)
    phi, gg = jsonio.functor_from_doc(jsonio.read_doc(args.functor), x.cat, known=known)
    _emit(jsonio.bundle_to_doc(funcspace.associated_bundle(x, phi, gg)), args.out)
    _say("associated bundle built")
    return OK


def cmd_trivialize(args) -> int:
    x = _load_bundle(args.bundle)
    if args.star is not None:
        region = cellbase.star_cells(x.base, args.star)
    elif args.region is not None:
        region = set(args.region.split(","))
    else:
        region = set(x.base.cells)
    res = triviality.trivialize_over(x, region)
    _say("trivialization found" if res.ok else "obstructed: " + res.obstruction.detail)
    _emit(jsonio.trivialize_to_doc(res), args.out)
    return OK


def cmd_certify(args) -> int:
    x = _load_bundle(args.bundle)
    cert = triviality.local_triviality_certificate(x)
    _emit(jsonio.certificate_to_doc(cert), args.out)
    _say(f"atlas with {len(cert.stars)} star trivialization(s)")
    return OK


def cmd_cover(args) -> int:
    x = _load_bundle(args.bundle)
    cert = triviality.covering_space(x)
    if args.dot:
        jsonio.write_atomic(args.dot, [jsonio.total_to_dot(cert.total)])
    _emit(jsonio.covering_to_doc(cert), args.out)
    sheets = ", ".join(f"{c}: {n}" for c, n in sorted(cert.sheets.items()))
    _say(f"covering with {cert.components} component(s); sheets {{{sheets}}}")
    return OK


def cmd_stratify(args) -> int:
    x = _load_bundle(args.bundle)
    strat = jsonio.strat_from_doc(jsonio.read_doc(args.stratification))
    res = triviality.stratify_bundle(x, strat)
    _emit(jsonio.bundle_to_doc(res.bundle), args.out)
    _say(f"stratified into {len(res.decomposition) + 1} stratum piece(s)")
    return OK


def cmd_verify(args) -> int:
    spec = oracle.InstanceSpec(
        seed=args.seed,
        max_cells=args.max_cells,
        max_objects=args.max_objects,
        max_fibre_size=args.max_fibre_size,
        strata_depth=args.strata_depth,
    )
    names = list(oracle.SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    docs = {}
    for name in names:
        rep = oracle.run_suite(name, spec, args.seeds)
        docs[name] = rep.to_doc()
        failures += len(rep.failures) + len(rep.invalid_inputs)
        _say(
            f"{name}: {rep.passes}/{rep.instances} pass, "
            f"{len(rep.failures)} theorem violation(s), "
            f"{len(rep.invalid_inputs)} invalid input(s), "
            f"{rep.elapsed:.2f}s"
        )
    out_doc = docs[names[0]] if len(names) == 1 else {"suites": docs}
    _emit(out_doc, args.out)
    return OK if failures == 0 else INVALID


def cmd_example(args) -> int:
    if args.list:
        for name in corpus.example_names():
            sys.stdout.write(name + "\n")
        return OK
    if not args.name:
        raise DocumentError("give an example name or --list")
    _emit(corpus.example_doc(args.name), args.out)
    return OK


def cmd_total(args) -> int:
    x = _load_bundle(args.bundle)
    total = strabundle.realize_total(x)
    if not args.dot:
        _emit(jsonio.total_to_doc(total), args.out)
    elif args.out:
        jsonio.write_atomic(args.out, [jsonio.total_to_dot(total)])
    else:
        sys.stdout.write(jsonio.total_to_dot(total))
    return OK


def cmd_manifest(args) -> int:
    directory = Path(args.directory)
    if args.check:
        problems = jsonio.check_manifest(directory)
        for p in problems:
            _say(p)
        return OK if not problems else INVALID
    manifest = jsonio.build_manifest(directory)
    jsonio.write_doc(directory / "manifest.json", manifest)
    _say(f"manifest covers {len(manifest['documents'])} document(s)")
    return OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratabundle",
        description="stratified bundles of finite fibres: build, transform, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, configure):
        p = sub.add_parser(name)
        p.add_argument("-o", "--out", help="output path (stdout otherwise)")
        configure(p)
        p.set_defaults(fn=fn)

    add("validate", cmd_validate, lambda p: (
        p.add_argument("document"),
        p.add_argument("--kind", choices=["category", "complex", "bundle", "diagram"]),
    ))
    add("attach", cmd_attach, lambda p: (
        p.add_argument("bundle"),
        p.add_argument("attachment"),
    ))
    add("pullback", cmd_pullback, lambda p: (
        p.add_argument("bundle"),
        p.add_argument("map"),
    ))
    def restrict_args(p):
        p.add_argument("bundle")
        region = p.add_mutually_exclusive_group(required=True)
        region.add_argument("--cells", help="comma-separated face-closed cell set")
        region.add_argument("--star", help="restrict to the closed star of this cell")

    add("restrict", cmd_restrict, restrict_args)
    add("product", cmd_product, lambda p: (
        p.add_argument("bundle"),
        p.add_argument("other"),
    ))
    add("fnspace", cmd_fnspace, lambda p: (
        p.add_argument("bundle"),
        p.add_argument("-V", "--object", required=True),
    ))
    add("principal", cmd_principal, lambda p: p.add_argument("bundle"))
    add("coend", cmd_coend, lambda p: (
        p.add_argument("diagram"),
        p.add_argument("--category", help="category document supplying the fibre functor"),
    ))
    add("reconstruct", cmd_reconstruct, lambda p: p.add_argument("bundle"))
    add("associate", cmd_associate, lambda p: (
        p.add_argument("bundle"),
        p.add_argument("functor"),
    ))
    def trivialize_args(p):
        p.add_argument("bundle")
        region = p.add_mutually_exclusive_group()
        region.add_argument("--region", help="comma-separated cells (the whole base otherwise)")
        region.add_argument("--star", help="trivialize over the closed star of this cell")

    add("trivialize", cmd_trivialize, trivialize_args)
    add("certify", cmd_certify, lambda p: p.add_argument("bundle"))
    add("cover", cmd_cover, lambda p: (
        p.add_argument("bundle"),
        p.add_argument("--dot", help="also write a dot-format graph here"),
    ))
    add("stratify", cmd_stratify, lambda p: (
        p.add_argument("bundle"),
        p.add_argument("stratification"),
    ))
    add("verify", cmd_verify, lambda p: (
        p.add_argument("--suite", default="all", choices=list(oracle.SUITES) + ["all"]),
        p.add_argument("--seeds", type=int, default=100),
        p.add_argument("--seed", type=int, default=1),
        p.add_argument("--max-cells", type=int, default=30),
        p.add_argument("--max-objects", type=int, default=3),
        p.add_argument("--max-fibre-size", type=int, default=4),
        p.add_argument("--strata-depth", type=int, default=3),
    ))
    add("example", cmd_example, lambda p: (
        p.add_argument("name", nargs="?"),
        p.add_argument("--list", action="store_true"),
    ))
    add("total", cmd_total, lambda p: (
        p.add_argument("bundle"),
        p.add_argument("--dot", action="store_true"),
    ))
    add("manifest", cmd_manifest, lambda p: (
        p.add_argument("directory"),
        p.add_argument("--check", action="store_true"),
    ))
    return parser


def main(argv=None) -> int:
    # engine data are acyclic and freed by reference counting, so the cyclic
    # collector would only walk the command's documents; pause it for the command
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        start = time.perf_counter()
        code = args.fn(args)
    except DocumentError as exc:
        _say(f"document error: {exc}")
        return UNREADABLE
    except PreconditionError as exc:
        _say(f"refused: {exc}")
        return REFUSED
    except StructureError as exc:
        _say(f"invalid: {exc}")
        return INVALID
    except OSError as exc:
        _say(f"i/o error: {exc}")
        return UNREADABLE
    finally:
        if was_enabled:
            gc.enable()
    _say(f"done in {time.perf_counter() - start:.3f}s")
    return code


def entry() -> None:
    sys.exit(main())
