#!/usr/bin/env python3
"""Run every verification suite at acceptance scale and write the reports.

Reports land in ./reports by default, one canonical JSON file per suite;
timing goes to stderr only, so the report bytes depend on the seed alone.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stratabundle import jsonio, oracle  # noqa: E402

DEFAULT_SEEDS = {"pullback": 100, "bundle": 100, "principal": 100, "fiberwise": 50, "associated": 50}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", type=int, help="override the per-suite seed count")
    parser.add_argument("--max-cells", type=int, default=30)
    parser.add_argument("--out", default="reports")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    worst = 0
    for name, default_count in DEFAULT_SEEDS.items():
        spec = oracle.InstanceSpec(seed=args.seed, max_cells=args.max_cells)
        count = args.seeds or default_count
        rep = oracle.run_suite(name, spec, count)
        jsonio.write_doc(out / f"{name}.json", rep.to_doc())
        bad = len(rep.failures) + len(rep.invalid_inputs)
        worst = max(worst, bad)
        print(
            f"{name:10s} {rep.passes}/{rep.instances} pass  "
            f"{len(rep.failures)} violation(s)  {len(rep.invalid_inputs)} invalid  "
            f"{rep.elapsed:.2f}s",
            file=sys.stderr,
        )
    return 0 if worst == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
