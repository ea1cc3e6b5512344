#!/usr/bin/env python3
"""Benchmark of the stratabundle engine on three seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload torus-cover --seed 1 --seconds 32 --trace 0

Workloads: ``torus-cover`` (CLI commands on a 6534-cell double cover of
a torus), ``wide-category`` (CLI commands on a bundle with perm_category(5)
as structure category) and ``suite-acceptance`` (the five verification
suites at acceptance scale, one op per seed).  Load is one closed-loop
client in this process: each op starts when the previous one has ended.

Set-up builds, validates and writes the inputs, three times, and reports
the median.  Whole passes over the workload's ops then repeat for
``--seconds``, stopping at the pass end nearest to it.  Every output is checked, and its sha256 must repeat in every
pass.  The last stdout line is the result: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``; the line before it
holds run metadata.  A traced run alternates untraced and traced passes and
writes spans to ``.perfbench_out/trace-<workload>.jsonl``.

Timing on a shared virtual machine drifts: the same code runs up to 1.8x
slower for seconds or minutes at a time.  End-to-end times are therefore
corrected by the speed probe in ``drift.py``; an op's latency is the median
of its corrected times over the passes, and the median, the tail and the
throughput are taken over the ops of one pass.  A traced run reports raw
span times of its fastest traced pass.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("torus-cover", "wide-category", "suite-acceptance")
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it


class Runner:
    """Runs passes of ops, times each call and checks every output."""

    def __init__(self, tracer=None, probe=None):
        self.tracer = tracer
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.timings: list[tuple[str, float, int, int]] = []  # key, seconds, probe marks
        self.digests: dict[str, str] = {}

    def run_pass(self, ops) -> float:
        """Run every op once; return the summed time of the calls."""
        from ops import OpFailed

        busy = 0.0
        for op in ops:
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.op = self.attempted
            first = self.probe.mark() if self.probe else 0
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception:  # an op that raises is a failed op, not a crash of the run
                busy += time.perf_counter() - start
                self._fail(f"{op.key} raised\n{traceback.format_exc()}")
                continue
            elapsed = time.perf_counter() - start
            last = self.probe.mark() if self.probe else 0
            busy += elapsed
            try:
                data = op.output(result)
                digest = hashlib.sha256(data).hexdigest()
                if op.key not in self.digests:  # equal bytes later need no second check
                    op.check(data)
                    self.digests[op.key] = digest
                elif self.digests[op.key] != digest:
                    raise OpFailed("output differs from an earlier pass")
            except (OpFailed, OSError, KeyError, TypeError, ValueError) as exc:
                self._fail(f"{op.key}: {exc!r}")
                continue
            self.timings.append((op.key, elapsed, first, last))
        return busy

    def _fail(self, why: str) -> None:
        self.failed += 1
        print(f"perfbench: op failed: {why}", file=sys.stderr)


def _setup(workload: str, seed: int, directory: Path, n: int | None = None):
    import inputs

    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    if workload == "torus-cover":
        return inputs.torus_cover(n or inputs.TORUS_N, seed, directory)
    if workload == "wide-category":
        return inputs.wide_category(seed, directory)
    return inputs.suite_instances(seed)


def _ops(workload: str, inp, out: Path):
    import ops

    if workload == "torus-cover":
        return ops.torus_pass(inp, out)
    if workload == "wide-category":
        return ops.wide_pass(inp, out)
    return ops.suite_pass(inp)


def _another(elapsed: float, rounds: int, seconds: int) -> bool:
    """Whether to start another round: it should end nearer ``seconds`` than stopping now."""
    return rounds == 0 or elapsed + elapsed / rounds / 2 < seconds


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with TAIL_BEYOND samples beyond it.

    With TAIL_BEYOND samples or fewer no percentile qualifies, and the
    maximum is reported as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n


def end_to_end(workload: str, seed: int, seconds: int, work: Path) -> tuple[dict, dict, Runner]:
    import drift

    setups = []  # (seconds, probe marks)

    def set_up():
        first = probe.mark()
        start = time.perf_counter()
        inp = _setup(workload, seed, work / "inputs")
        setups.append((time.perf_counter() - start, first, probe.mark()))
        return inp

    with drift.SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            inp = set_up()
        out = work / "out"
        out.mkdir()
        runner = Runner(probe=probe)
        passes, measured = 0, 0.0
        while _another(measured, passes, seconds):
            start = time.perf_counter()
            runner.run_pass(_ops(workload, inp, out))
            measured += time.perf_counter() - start
            passes += 1

    def latencies(correct: bool) -> dict[str, float]:
        """Median over the passes of each op's time."""
        per_op: dict[str, list[float]] = {}
        for key, elapsed, first, last in runner.timings:
            value = probe.corrected(elapsed, first, last) if correct else elapsed
            per_op.setdefault(key, []).append(value)
        return {key: statistics.median(v) for key, v in per_op.items()}

    def summary(correct: bool) -> dict[str, float]:
        lat = list(latencies(correct).values())
        tail, _ = _tail(lat) if lat else (0.0, 0.0)  # no op succeeded: correct is false
        setup = [probe.corrected(*s) if correct else s[0] for s in setups]
        return {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(lat) / sum(lat) if lat else 0.0,
            "op_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
            "op_tail_ms": tail * 1e3,
        }

    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}
    metrics = {k: _metric(v, units[k]) for k, v in summary(True).items()}
    metrics["peak_rss_mb"] = _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    lat = latencies(True)
    meta = {
        "passes": passes,
        "op_tail_ms": {
            "percentile": round(_tail(list(lat.values()))[1], 3) if lat else 0.0,
            "samples": len(lat),
        },
        "uncorrected": summary(False),
        "probe_samples": probe.mark(),
        "setup_s_samples": [s[0] for s in setups],
        "input_sizes": inp.sizes,
        "input_doc_bytes": inp.doc_bytes,
    }
    if len(lat) <= 12:
        meta["op_ms"] = {key: v * 1e3 for key, v in lat.items()}
    return metrics, meta, runner


def traced(workload: str, seed: int, seconds: int, work: Path) -> tuple[dict, dict, Runner]:
    import inputs
    import ops
    import spans

    inp = _setup(workload, seed, work / "inputs")
    half = None
    if workload == "torus-cover":
        half = _setup(workload, seed, work / "half", n=inputs.HALF_TORUS_N)
    out = work / "out"
    out.mkdir()

    tracer = spans.Tracer()
    runner = Runner(tracer)
    plain, timed, summaries, half_summaries = [], [], [], []
    kept: dict[str, tuple[float, str, object]] = {}  # spans of the fastest pass of each kind

    def traced_pass(pass_ops, kind: str, label: str) -> tuple[float, dict]:
        tracer.install()
        try:
            busy = runner.run_pass(pass_ops)
        finally:
            tracer.uninstall()
        taken = tracer.take_pass()
        if kind not in kept or busy < kept[kind][0]:
            kept[kind] = (busy, label, taken)
        return busy, taken.summary()

    begin = time.perf_counter()
    while _another(time.perf_counter() - begin, len(timed), seconds):
        label = str(len(timed))
        plain.append(runner.run_pass(_ops(workload, inp, out)))
        busy, summary = traced_pass(_ops(workload, inp, out), "reference", label)
        timed.append(busy)
        summaries.append(summary)
        if half is not None:
            half_summaries.append(traced_pass(ops.growth_pass(half, out), "half", f"half-{label}")[1])

    fastest = summaries[timed.index(min(timed))]
    metrics = {name: fastest.get(name, 0.0) for name, _, _ in spans.METRICS}
    for fn in ("triviality.covering_space", "triviality.local_triviality_certificate"):
        metrics[f"{fn}.growth"] = 0.0
        if half is not None:
            metrics[f"{fn}.growth"] = spans.growth(
                min(s[f"{fn}.s"] for s in summaries),
                min(s[f"{fn}.s"] for s in half_summaries),
                inp.sizes["cells"],
                half.sizes["cells"],
            )
    for key in ("cells_per_instance", "morphisms_per_instance"):
        metrics[f"oracle.{key}"] = inp.extra.get(key, 0.0)
    for key in spans.SIZE_KEYS:
        metrics[f"input.{key}"] = inp.sizes[key]
    metrics["trace.overhead"] = min(timed) / min(plain) - 1.0
    metrics["fail_ratio"] = runner.failed / runner.attempted

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{workload}.jsonl"
    with open(trace_file, "w", encoding="utf-8") as fh:
        for _, label, taken in kept.values():
            for line in taken.lines(label):
                fh.write(line + "\n")

    meta = {
        "traced_passes": len(timed),
        "traced_pass_s": timed,
        "untraced_pass_s": plain,
        "layer_self_s_sum": sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS),
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    return {name: _metric(metrics[name], unit) for name, unit, _ in spans.METRICS}, meta, runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    src = ROOT / "src"
    if not (src / "stratabundle" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        run = traced if args.trace else end_to_end
        metrics, meta, runner = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    meta.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        machine=platform.machine(),
        nproc=len(os.sched_getaffinity(0)),
    )
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
