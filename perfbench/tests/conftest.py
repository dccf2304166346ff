"""Shared fixture: each distinct benchmark run is made once per test run."""

from __future__ import annotations

import pytest

from bench_helpers import run_bench


@pytest.fixture(scope="session")
def bench():
    """Memoised ``run_bench(workload, seed, trace)`` -> (result, context)."""
    runs = {}

    def get(workload: str, seed: int, trace: int):
        key = (workload, seed, trace)
        if key not in runs:
            done, result, context = run_bench(workload, seed, trace)
            assert result is not None, done.stderr[-3000:]
            runs[key] = (result, context)
        return runs[key]

    return get
