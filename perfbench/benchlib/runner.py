"""One benchmark run: set-up, reference check, measured sweeps, metrics.

Untraced runs (``trace=False``) repeat the workload's sweep through the
timed path until ``seconds`` are used and report the end-to-end
metrics.  Traced runs alternate an untraced sweep with a traced one;
the traced sweeps give per-layer self times and counters, and the
difference between the two kinds gives the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

from benchlib import THREAD_PINS
from benchlib.calibration import REFERENCE_S, kernel_seconds
from benchlib.checks import Ledger, point_problems
from benchlib.spans import SpanRecorder, median_over
from benchlib.workloads import (
    SPECS,
    Point,
    PointResult,
    Testbed,
    WorkloadSpec,
    build_testbed,
    run_point,
    sweep_points,
)

#: Set-up is repeated this many times per run; the median is reported.
SETUP_ROUNDS = 5
#: Kernel runs (median taken) between two sweep points and on each side
#: of a set-up step.  Single kernel runs a second apart differed by up to
#: 1.6 times.  A set-up step is a single sample, so it gets more runs
#: than a point, whose kernel noise also averages out over the sweep.
POINT_KERNEL_REPEATS = 3
SETUP_KERNEL_REPEATS = 5

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro; "
    "print(time.perf_counter() - t)"
)


def _scale(kernel_before: float) -> float:
    """Calibration factor of a set-up step, from kernel times around it."""
    kernel_after = kernel_seconds(SETUP_KERNEL_REPEATS)
    return REFERENCE_S * 2 / (kernel_before + kernel_after)


def _import_seconds(src: Path) -> float:
    """Time of ``import repro`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(
    spec: WorkloadSpec, seed: int, src: Path, tracer: SpanRecorder
) -> Tuple[Testbed, Dict[str, List[Tuple[float, float]]]]:
    """Import ``repro`` and build the testbed ``SETUP_ROUNDS`` times each.

    Returns the last testbed and every ``(raw, calibrated)`` time.
    """
    times: Dict[str, List[Tuple[float, float]]] = {"import": [], "build": []}
    for _ in range(SETUP_ROUNDS):
        before = kernel_seconds(SETUP_KERNEL_REPEATS)
        raw = _import_seconds(src)
        times["import"].append((raw, raw * _scale(before)))
    for round_index in range(SETUP_ROUNDS):
        tracer.sweep = f"setup{round_index}"
        before = kernel_seconds(SETUP_KERNEL_REPEATS)
        start = perf_counter()
        testbed = build_testbed(spec, seed, tracer)
        raw = perf_counter() - start
        scale = _scale(before)
        tracer.scales[(tracer.sweep, None)] = scale
        times["build"].append((raw, raw * scale))
    return testbed, times


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources (identifies code without git)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path):
    """The checkout's commit, or ``None`` if ``root`` is no git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: Path, src: Path) -> Dict[str, object]:
    """What a result needs to be compared with another one."""
    import numpy
    import scipy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
        "nproc": nproc,
        "jobs": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
    }


def reference_check(
    spec: WorkloadSpec, testbed: Testbed, points: List[Point], seed: int,
    ledger: Ledger,
) -> None:
    """Re-run one point through a reference path; outputs must match.

    Simulation workloads re-simulate the point with the ``heap`` event
    loop.  The formation workload re-forms a GNP point step by step,
    which also checks its landmark fit error.  The point is chosen by
    the seed, and the check runs after the measured window.
    """
    if spec.workload is not None:
        point = points[seed % len(points)]
        fast = run_point(spec, testbed, point, None)
        reference = run_point(spec, testbed, point, None, event_loop="heap")
        what = f"{point.pid} heap re-simulation"
    else:
        gnp = [p for p in points if p.scheme == "euclidean-gnp"]
        point = gnp[seed % len(gnp)]
        fast = run_point(spec, testbed, point, None)
        reference = run_point(spec, testbed, point, SpanRecorder.disabled())
        what = f"{point.pid} step-by-step re-formation"
    network = testbed.networks[point.size]
    ledger.record(what, point_problems(reference, network, reference=fast))


class SweepChecker:
    """Checks every point of every sweep; later sweeps against the first."""

    def __init__(self, testbed: Testbed, ledger: Ledger) -> None:
        self._testbed = testbed
        self._ledger = ledger
        self.first: Dict[str, PointResult] = {}

    def check(self, results: List[PointResult]) -> None:
        for result in results:
            pid = result.point.pid
            network = self._testbed.networks[result.point.size]
            reference = self.first.setdefault(pid, result)
            self._ledger.record(pid, point_problems(
                result, network,
                reference=None if reference is result else reference,
            ))


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _timed_sweep(
    spec: WorkloadSpec, testbed: Testbed, points: List[Point],
    tracer=None,
) -> Tuple[float, float, List[PointResult]]:
    """Run the sweep; returns ``(raw wall, calibrated wall, results)``.

    The calibration kernel runs between points, outside the timed
    steps; each point's time is scaled by the kernel times on either
    side of it.
    """
    raw = calibrated = 0.0
    results = []
    kernel = kernel_seconds(POINT_KERNEL_REPEATS)
    for point in points:
        start = perf_counter()
        results.append(run_point(spec, testbed, point, tracer))
        elapsed = perf_counter() - start
        # The kernel after this point is the one before the next.
        kernel_before, kernel = kernel, kernel_seconds(POINT_KERNEL_REPEATS)
        scale = REFERENCE_S * 2 / (kernel_before + kernel)
        raw += elapsed
        calibrated += elapsed * scale
        if tracer is not None:
            tracer.scales[(tracer.sweep, point.pid)] = scale
    return raw, calibrated, results


def _keep_going(start: float, seconds: float, walls: List[float]) -> bool:
    """Start another sweep only if it should end inside the window."""
    return perf_counter() - start + statistics.median(walls) <= seconds


def measure_untraced(
    spec: WorkloadSpec, testbed: Testbed, points: List[Point],
    seconds: float, checker: SweepChecker,
) -> Dict[str, object]:
    """Repeat the sweep for ``seconds``; end-to-end metrics."""
    walls: List[float] = []
    calibrated: List[float] = []
    start = perf_counter()
    while not walls or _keep_going(start, seconds, walls):
        wall, scaled, results = _timed_sweep(spec, testbed, points)
        walls.append(wall)
        calibrated.append(scaled)
        checker.check(results)
        del results
        # Free the sweep's cyclic garbage now, so that the peak RSS
        # does not depend on where the collector's thresholds fall.
        gc.collect()
    first = checker.first.values()
    return {
        "metrics": {"wall_s": (statistics.median(calibrated), "s")},
        "model_gicost_ms": _mean([r.gicost_ms for r in first]),
        "sweep_raw_s": walls,
        "sweep_calibrated_s": calibrated,
    }


def measure_traced(
    spec: WorkloadSpec, testbed: Testbed, points: List[Point],
    seconds: float, checker: SweepChecker, tracer: SpanRecorder,
) -> Dict[str, object]:
    """Alternate untraced and traced sweeps for ``seconds``.

    Every traced point is checked against the first untraced sweep, so
    the step-by-step formation must reproduce ``form_groups`` exactly.
    """
    untraced: List[float] = []
    traced: List[float] = []
    traced_raw: List[float] = []
    pairs: List[float] = []
    sweeps: List[str] = []
    results: List[PointResult] = []
    start = perf_counter()
    while not pairs or _keep_going(start, seconds, pairs):
        plain_raw, scaled, plain = _timed_sweep(spec, testbed, points)
        untraced.append(scaled)
        checker.check(plain)
        tracer.sweep = f"sweep{len(sweeps)}"
        sweeps.append(tracer.sweep)
        wall, scaled, results = _timed_sweep(spec, testbed, points, tracer)
        traced.append(scaled)
        traced_raw.append(wall)
        checker.check(results)
        pairs.append(plain_raw + wall)
    tracer.sweep = None
    self_s = tracer.self_seconds()

    def layer(name: str) -> float:
        return median_over(sweeps, self_s, name)

    # Counters come from the last traced sweep; the checker has already
    # verified that every sweep reproduced the same outputs.
    sims = [r for r in results if r.metrics is not None]
    embeddings = [r.fit_error for r in results if r.fit_error is not None]
    probes = sum(r.probes_sent for r in results)
    pairs_measured = sum(r.pairs_measured for r in results)
    events = sum(r.events for r in sims)
    busy = layer("simulator")
    group_hits = origin_fetches = queries = invalidations = 0
    for r in sims:
        for node in r.metrics.cache_nodes():
            stats = r.metrics.cache_stats(node)
            group_hits += stats.group_hits
            origin_fetches += stats.origin_fetches
            queries += stats.query_messages
        invalidations += r.metrics.invalidation_messages
    requests = sum(w.num_requests for w in testbed.workloads.values())
    updates = sum(w.num_updates for w in testbed.workloads.values())
    setup_sweeps = [s for s in self_s if s and s.startswith("setup")]
    root = sum(tracer.root_seconds(s) for s in sweeps)
    metrics = {
        "topology.build_s": (median_over(setup_sweeps, self_s, "topology"),
                             "s"),
        "topology.networks": (len(testbed.networks), "count"),
        "workload.generate_s": (median_over(setup_sweeps, self_s, "workload"),
                                "s"),
        "workload.requests": (requests, "count"),
        "workload.updates": (updates, "count"),
        "landmarks.select_s": (layer("landmarks"), "s"),
        "probing.features_s": (layer("probing"), "s"),
        "probing.probes_sent": (probes, "count"),
        "probing.pairs_measured": (pairs_measured, "count"),
        "probing.probes_per_pair": (
            probes / pairs_measured if pairs_measured else 0.0, "ratio"),
        "coords.embed_s": (layer("coords"), "s"),
        "coords.embeddings": (len(embeddings), "count"),
        "coords.landmark_fit_error": (_mean(embeddings), "ratio"),
        "clustering.cluster_s": (layer("clustering"), "s"),
        "core.form_s": (statistics.median(
            tracer.total_seconds(s, "core") for s in sweeps), "s"),
        "core.self_s": (layer("core"), "s"),
        "core.formations": (len(results), "count"),
        "analysis.gicost_s": (layer("analysis"), "s"),
        "analysis.model_gicost_ms": (
            _mean([r.gicost_ms for r in results]), "ms"),
        "simulator.busy_s": (busy, "s"),
        "simulator.runs": (len(sims), "count"),
        "simulator.events": (events, "count"),
        "simulator.events_per_busy_s": (events / busy if busy else 0.0,
                                        "1/s"),
        "simulator.group_hits": (group_hits, "count"),
        "simulator.origin_fetches": (origin_fetches, "count"),
        "simulator.group_hit_ratio": (
            group_hits / (group_hits + origin_fetches)
            if group_hits + origin_fetches else 0.0, "ratio"),
        "simulator.query_messages": (queries, "count"),
        "simulator.invalidations": (invalidations, "count"),
        "simulator.updates_per_request": (
            updates / requests if requests else 0.0, "ratio"),
        "simulator.model_latency_ms": (_mean(
            [r.metrics.average_latency_ms() for r in sims]), "ms"),
        "trace.coverage": (root / sum(traced_raw), "ratio"),
        "trace.overhead_s": (
            statistics.median(traced) - statistics.median(untraced), "s"),
    }
    return {
        "metrics": metrics,
        "sweep_calibrated_s": untraced,
        "traced_calibrated_s": traced,
        "traced_raw_s": traced_raw,
        "self_s": {s: dict(self_s[s]) for s in sweeps},
    }


def run_benchmark(
    workload: str, seed: int, seconds: float, trace: bool, root: Path,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """One run; returns ``(result, context)`` ready to print."""
    src = root / "src"
    spec = SPECS[workload]
    tracer = SpanRecorder(enabled=trace)
    testbed, setup_times = measure_setup(spec, seed, src, tracer)
    points = sweep_points(spec, seed)
    ledger = Ledger()
    checker = SweepChecker(testbed, ledger)
    if trace:
        measured = measure_traced(
            spec, testbed, points, seconds, checker, tracer
        )
    else:
        measured = measure_untraced(spec, testbed, points, seconds, checker)
        measured["metrics"].update({
            "setup_s": (sum(
                statistics.median(c for _raw, c in times)
                for times in setup_times.values()
            ), "s"),
            # Read before the reference check, whose heap loop would
            # otherwise set the peak.
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        })
    reference_check(spec, testbed, points, seed, ledger)
    context = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        **environment(root, src),
        "inputs_sha256": testbed.inputs_digest(),
        "points": len(points),
        "setup_raw_calibrated_s": setup_times,
        **{k: v for k, v in measured.items() if k != "metrics"},
        "failures": ledger.reasons,
    }
    if trace:
        out = root / ".bench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{workload}-seed{seed}.json"
        path.write_text(json.dumps({
            "context": context,
            "spans": tracer.spans,
        }))
        context["spans_file"] = str(path.relative_to(root))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(measured["metrics"].items())
        },
    }
    return result, context
