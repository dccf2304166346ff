"""Helpers shared by the benchmark's tests: run it, read its spec."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
#: A short window: every run still makes at least one sweep of each kind.
SECONDS = "1"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


WORKLOADS = tuple(w["name"] for w in spec()["workloads"])


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    """Run ``cwd``'s copy of the benchmark, as its command line does.

    Returns ``(completed process, result, context)``; the last two are
    ``None`` when the run printed no result.
    """
    done = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return done, None, None
    return done, json.loads(lines[-1]), json.loads(lines[-2])["context"]


def value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]
