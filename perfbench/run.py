"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload bounded-fanout --seed 1 \\
        --seconds 10 --trace 0

Builds the workload's inputs from ``--seed``, replays them through
``MatcherPool`` in a closed loop, verifies the answers, and prints one
JSON object as its last line: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` reports its per-layer metrics from a
traced run.  Lines before the last one describe the run (environment,
input fingerprint, sample counts).  The program is imported from
``src/`` next to this directory; without it the benchmark exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing: "
              f"{ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import runs, workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    work = workloads.make(args.workload, args.seed)
    print(json.dumps({"environment": runs.environment(work)}))
    if args.trace:
        result, details = runs.traced(work)
    else:
        result, details = runs.end_to_end(work, args.seconds)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
