"""Benchmark of cache-group formation and cooperative-cache simulation.

Run from the repository root::

    python3 perfbench/run.py --workload coop-sweep --seed 1 --seconds 20 \\
        --trace 0

It imports ``repro`` from the checkout's ``src/``, builds the workload's
inputs from ``--seed``, repeats the workload's sweep for ``--seconds``
and checks every output.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  The line before it records the run's context: seed,
commit, ``nproc``, library versions and thread pins.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from benchlib import THREAD_PINS

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("coop-sweep", "formation", "update-storm")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pin BLAS/OpenMP pools before numpy is imported anywhere.
    for name in THREAD_PINS:
        os.environ[name] = "1"
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from benchlib.runner import run_benchmark

    result, context = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT
    )
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
