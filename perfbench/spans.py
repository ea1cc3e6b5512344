"""In-memory span recorder that wraps named functions of the program.

Tracing replaces chosen module attributes with timing wrappers and puts
the originals back afterwards.  Calls the program makes through the
module (``jsonio.read_doc(...)``, or a bare ``read_doc(...)`` inside
``jsonio`` itself, which resolves through the module globals) are
recorded.  A name another module bound with ``from .x import y`` keeps the
original function, so its time counts in its caller's self time.  Only the
functions in ``WRAPPED`` are traced: wrapping every public function,
including ``compose_tables`` and ``identity_table`` with about 100k calls
per command, would double the traced time.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the index
of the enclosing span in the same pass, or -1, and ``op`` is the id of the
benchmark operation that caused it.
"""
from __future__ import annotations

import json
import math
import os
import time
from collections import defaultdict

from stratabundle import cellbase, cli, fincat, funcspace, jsonio, oracle, strabundle, triviality

LAYERS = {
    "cli": cli,
    "jsonio": jsonio,
    "oracle": oracle,
    "funcspace": funcspace,
    "triviality": triviality,
    "strabundle": strabundle,
    "fincat": fincat,
    "cellbase": cellbase,
}

# Entry points of each layer plus the functions the per-layer metrics name.
WRAPPED = {
    "cli": ["main"],
    "jsonio": [
        "read_doc", "write_doc", "bundle_from_doc", "bundle_to_doc", "category_from_doc",
        "diagram_from_doc", "diagram_to_doc", "map_from_doc", "functor_from_doc", "total_to_doc",
    ],
    "oracle": ["run_suite", "gen_category", "gen_base", "gen_bundle"],
    "funcspace": [
        "principal_diagram", "validate_diagram", "coend", "reconstruct_check",
        "function_bundle", "associated_bundle",
    ],
    "triviality": [
        "covering_space", "local_triviality_certificate", "trivialize_over",
        "validate_trivialization", "stratify_bundle",
    ],
    "strabundle": [
        "validate_bundle", "realize_total", "pullback", "restrict", "attach_bundle",
        "fiberwise_product", "bundle_eq",
    ],
    "fincat": [
        "validate_category", "validate_fibre_functor", "faithful_image", "image_inverse",
        "product_category", "hom_fibre_functor",
    ],
    "cellbase": [
        "validate_complex", "subcomplex", "star_cells", "poset_spanning_tree",
        "connected_components", "attach_base",
    ],
}

# Functions whose inclusive time (and for some, call count) is reported.
TIMED = [
    "triviality.covering_space", "triviality.local_triviality_certificate",
    "triviality.trivialize_over", "cellbase.subcomplex", "cellbase.star_cells",
    "cellbase.poset_spanning_tree", "cellbase.connected_components", "fincat.image_inverse",
    "fincat.validate_category", "fincat.validate_fibre_functor", "fincat.faithful_image",
    "funcspace.principal_diagram", "funcspace.validate_diagram", "funcspace.coend",
    "funcspace.reconstruct_check", "jsonio.read_doc", "jsonio.write_doc",
    "strabundle.validate_bundle", "strabundle.realize_total", "strabundle.pullback",
]
COUNTED = [
    "triviality.trivialize_over", "cellbase.subcomplex", "fincat.image_inverse",
    "strabundle.validate_bundle",
]
GEN = ["oracle.gen_category", "oracle.gen_base", "oracle.gen_bundle"]


class Tracer:
    """Records spans and counters for one pass at a time."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.asked: set[str] = set()
        self._originals: list = []

    def install(self) -> None:
        for layer, names in WRAPPED.items():
            module = LAYERS[layer]
            for name in names:
                fn = getattr(module, name)
                self._originals.append((module, name, fn))
                setattr(module, name, self._wrap(f"{layer}.{name}", fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._originals):
            setattr(module, name, fn)
        self._originals.clear()

    def _wrap(self, label: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        observe = self._observers().get(label)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent, self.op)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observers(self) -> dict:
        c = self.counters

        def read(args, _):
            c["jsonio.bytes_read"] += os.path.getsize(args[0])

        def written(args, _):
            c["jsonio.bytes_written"] += os.path.getsize(args[0])

        def asked(args, _):
            self.asked.add(args[2])

        def classes(_, res):
            c["funcspace.coend_classes"] += sum(len(v) for v in res.classes.values())

        def monodromy(_, cert):
            c["triviality.monodromy_entries"] += len(cert.monodromy)

        def stars(_, cert):
            c["triviality.stars"] += len(cert.stars)

        return {
            "jsonio.read_doc": read,
            "jsonio.write_doc": written,
            "fincat.image_inverse": asked,
            "funcspace.coend": classes,
            "triviality.covering_space": monodromy,
            "triviality.local_triviality_certificate": stars,
        }

    def take_pass(self) -> "PassTrace":
        """Hand over the spans and counters recorded since the last call."""
        out = PassTrace(list(self.spans), dict(self.counters), len(self.asked))
        self.spans.clear()
        self.counters.clear()
        self.asked.clear()
        return out


class PassTrace:
    """Spans of one pass and what is derived from them."""

    def __init__(self, spans, counters, distinct_asked):
        self.spans = spans
        self.counters = counters
        self.distinct_asked = distinct_asked

    def summary(self) -> dict[str, float]:
        """Layer self times and counts, function times and counts, counters."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += (end - start - child[i]) / 1e9
            out[f"{layer}.calls"] += 1
            out[f"{name}.s"] += (end - start) / 1e9
            out[f"{name}.calls"] += 1
        out.update(self.counters)
        calls = out["fincat.image_inverse.calls"]
        out["fincat.image_inverse.distinct_ratio"] = self.distinct_asked / calls if calls else 0.0
        out["oracle.gen.s"] = sum(out[f"{g}.s"] for g in GEN)
        return out

    def lines(self, pass_label: str):
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            yield json.dumps(
                {"pass": pass_label, "span": i, "parent": parent, "op": op,
                 "name": name, "start_ns": start, "end_ns": end},
                separators=(",", ":"),
            )


def growth(t_ref: float, t_half: float, size_ref: int, size_half: int) -> float:
    """Log-log slope of time against input size between two sizes."""
    if t_ref <= 0 or t_half <= 0:
        return 0.0
    return math.log(t_ref / t_half) / math.log(size_ref / size_half)


SIZE_KEYS = ("cells", "incidences", "morphisms", "composable_pairs", "max_hom")


def _metric_table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    rows = []
    for layer in LAYERS:
        rows += [(f"{layer}.self_s", "s", "lower"), (f"{layer}.calls", "count", "lower")]
    rows += [(f"{fn}.s", "s", "lower") for fn in TIMED]
    rows += [(f"{fn}.calls", "count", "lower") for fn in COUNTED]
    rows += [
        ("fincat.image_inverse.distinct_ratio", "ratio", "higher"),
        ("triviality.covering_space.growth", "slope", "lower"),
        ("triviality.local_triviality_certificate.growth", "slope", "lower"),
        ("funcspace.coend_classes", "count", "higher"),
        ("jsonio.bytes_read", "B", "lower"),
        ("jsonio.bytes_written", "B", "lower"),
        ("triviality.monodromy_entries", "count", "higher"),
        ("triviality.stars", "count", "higher"),
        ("oracle.gen.s", "s", "lower"),
        ("oracle.cells_per_instance", "count", "higher"),
        ("oracle.morphisms_per_instance", "count", "higher"),
    ]
    rows += [(f"input.{k}", "count", "higher") for k in SIZE_KEYS]
    rows += [("trace.overhead", "ratio", "lower"), ("fail_ratio", "ratio", "lower")]
    return rows


METRICS = _metric_table()
