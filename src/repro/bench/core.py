"""Benchmark measurement, persistence, comparison, and gating.

This formalises the ad-hoc ``BENCH_engine.json`` emitter into a
subsystem: a :class:`BenchScenario` pins every input the measurement
depends on (so two results are comparable exactly when their scenarios
— and hence event counts — match), :func:`run_bench` measures engine
throughput (plain / instrumented / reference heap loops, best-of-N
rounds) and optionally full-suite throughput per jobs level, and
:func:`gate_bench` turns a baseline + candidate pair into a pass/fail
decision with a relative tolerance for machine variance.

Committed baselines live under ``benchmarks/baselines/``; the CI
``perf-smoke`` job runs ``repro bench gate`` against them with a
generous threshold so only real regressions (not runner noise) fail
the build.  Suite throughput is measured through the worker-telemetry
layer (``run_suite(worker_perf=True)``), which is what makes
*events/s-per-core* reportable: the scheduler attributes engine events
to tasks, and the suite aggregate divides by the jobs level.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import BenchmarkError
from repro.obs.profiling import perf_seconds

PathLike = Union[str, Path]

#: Format 2 adds the optional ``scenarios`` mapping (named extra
#: scenarios measured alongside the primary one); format-1 files load
#: unchanged with no extras.
BENCH_FORMAT_VERSION = 2

_READABLE_FORMAT_VERSIONS = (1, 2)

#: Default relative throughput drop treated as a regression.  An
#: events/s metric below ``(1 - tolerance) x baseline`` fails the gate;
#: CI passes a larger value to absorb shared-runner variance.
DEFAULT_TOLERANCE = 0.15


@dataclass(frozen=True)
class BenchScenario:
    """Every input the engine measurement depends on.

    The workload/cache knobs default to the library defaults that were
    implicitly in effect before they became scenario fields, so older
    baselines (which omit them) keep their exact event counts.
    """

    num_caches: int = 100
    network_seed: int = 5
    num_documents: int = 300
    requests_per_cache: int = 100
    workload_seed: int = 9
    rounds: int = 3
    zipf_alpha: float = 0.9
    dynamic_fraction: float = 0.6
    update_interarrival_ms: float = 400.0
    capacity_fraction: float = 0.1
    #: 1 = one cooperative group of everything; N > 1 partitions the
    #: caches round-robin into N groups.
    num_groups: int = 1
    #: ``"all"`` measures the plain, instrumented, and heap loops;
    #: ``"plain"`` measures only the default loop (used by the large
    #: scenario, where three full 1M-event sweeps would dominate CI).
    measure: str = "all"

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BenchScenario":
        coerced: Dict[str, Any] = {}
        try:
            for spec in dataclasses.fields(cls):
                if spec.name not in payload:
                    continue
                value = payload[spec.name]
                if spec.type in ("int", int):
                    coerced[spec.name] = int(value)
                elif spec.type in ("float", float):
                    coerced[spec.name] = float(value)
                else:
                    coerced[spec.name] = str(value)
            return cls(**coerced)
        except (TypeError, ValueError) as exc:
            raise BenchmarkError(
                f"malformed bench scenario: {payload!r}"
            ) from exc


#: The canonical scenario (matches the committed seed baseline's
#: 10,076-event single-group run on the 100-cache seed-5 network).
DEFAULT_SCENARIO = BenchScenario()

#: A fast scenario for tests and quick local sanity checks.
SMALL_SCENARIO = BenchScenario(
    num_caches=30, num_documents=80, requests_per_cache=30, rounds=1
)

#: The 1M-event steady-state scenario: a hot, mostly-static corpus on a
#: 100-cache network split into ten groups, sized so caches warm up and
#: the loop spends its time in the request hot path rather than cold
#: misses.  This is the ``plain_events_per_sec`` number the 500k-events/s
#: target tracks; the heap/instrumented sweeps are skipped
#: (``measure="plain"``) to keep the CI gate affordable.
LARGE_SCENARIO = BenchScenario(
    num_caches=100,
    num_documents=150,
    requests_per_cache=10_000,
    rounds=2,
    zipf_alpha=1.2,
    dynamic_fraction=0.1,
    update_interarrival_ms=2_000.0,
    capacity_fraction=1.0,
    num_groups=10,
    measure="plain",
)

_SCENARIOS = {
    "default": DEFAULT_SCENARIO,
    "small": SMALL_SCENARIO,
    "large": LARGE_SCENARIO,
}


def scenario_by_name(name: str) -> BenchScenario:
    """Resolve a named scenario (``default``, ``small``, or ``large``)."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise BenchmarkError(
            f"unknown bench scenario {name!r}; "
            f"known: {', '.join(sorted(_SCENARIOS))}"
        ) from None


@dataclass
class BenchResult:
    """One benchmark measurement (or a loaded baseline)."""

    label: str
    scenario: BenchScenario = field(default_factory=BenchScenario)
    cores: int = 1
    # Run metadata only — the stamp never feeds back into measurement.
    created_unix: float = field(default_factory=time.time)  # repro-lint: allow[sim-wallclock]
    #: events, plain/instrumented/heap events_per_sec
    engine: Dict[str, float] = field(default_factory=dict)
    #: per jobs level: wall_s, events, events_per_sec, events_per_sec_per_core
    suite: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: named extra scenarios: name -> {"scenario": {...}, "engine": {...}}
    scenarios: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def metrics(self) -> Dict[str, float]:
        """Flat ``name -> value`` view of every gated throughput metric."""
        flat = {
            f"engine.{name}": float(value)
            for name, value in self.engine.items()
            if name.endswith("_per_sec")
        }
        for level in sorted(self.suite):
            for name, value in self.suite[level].items():
                if name.endswith("_per_sec") or name.endswith("_per_core"):
                    flat[f"suite.{level}.{name}"] = float(value)
        for extra in sorted(self.scenarios):
            engine = self.scenarios[extra].get("engine") or {}
            for name, value in engine.items():
                if name.endswith("_per_sec"):
                    flat[f"scenario.{extra}.{name}"] = float(value)
        return flat

    def extra_scenario(self, name: str) -> BenchScenario:
        """The recorded definition of one named extra scenario."""
        try:
            payload = self.scenarios[name]
        except KeyError:
            raise BenchmarkError(
                f"bench result {self.label!r} has no extra scenario "
                f"{name!r}"
            ) from None
        return BenchScenario.from_dict(payload.get("scenario") or {})

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format_version": BENCH_FORMAT_VERSION,
            "kind": "bench_result",
            "label": self.label,
            "created_unix": self.created_unix,
            "cores": self.cores,
            "scenario": self.scenario.to_dict(),
            "engine": dict(self.engine),
            "suite": {k: dict(v) for k, v in self.suite.items()},
            "scenarios": {
                name: {
                    "scenario": dict(payload.get("scenario") or {}),
                    "engine": dict(payload.get("engine") or {}),
                }
                for name, payload in self.scenarios.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BenchResult":
        try:
            return cls(
                label=str(payload.get("label", "")),
                scenario=BenchScenario.from_dict(
                    payload.get("scenario") or {}
                ),
                cores=int(payload.get("cores", 1)),
                created_unix=float(payload.get("created_unix", 0.0)),
                engine={
                    str(k): float(v)
                    for k, v in (payload.get("engine") or {}).items()
                },
                suite={
                    str(level): {
                        str(k): float(v) for k, v in stats.items()
                    }
                    for level, stats in (payload.get("suite") or {}).items()
                },
                scenarios={
                    str(name): {
                        "scenario": dict(entry.get("scenario") or {}),
                        "engine": {
                            str(k): float(v)
                            for k, v in (entry.get("engine") or {}).items()
                        },
                    }
                    for name, entry in (
                        payload.get("scenarios") or {}
                    ).items()
                },
            )
        except (TypeError, ValueError, AttributeError) as exc:
            raise BenchmarkError(
                f"malformed bench result payload: {exc}"
            ) from exc


def save_bench(result: BenchResult, path: PathLike) -> None:
    """Write a bench result to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench(path: PathLike) -> BenchResult:
    """Read a bench result (or a trajectory artifact embedding one).

    Accepts both the native ``bench_result`` format and the CI
    trajectory artifact (``BENCH_engine.json``), whose ``bench`` key
    embeds a result — so ``repro bench compare`` works directly on
    either file.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise BenchmarkError(f"cannot read bench result {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BenchmarkError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise BenchmarkError(f"{path} is not a bench result")
    if payload.get("kind") != "bench_result" and "bench" in payload:
        payload = payload["bench"]
    if payload.get("kind") != "bench_result":
        raise BenchmarkError(
            f"{path} is not a bench result (kind="
            f"{payload.get('kind')!r})"
        )
    version = payload.get("format_version")
    if version not in _READABLE_FORMAT_VERSIONS:
        raise BenchmarkError(
            f"{path} has bench format version {version}, "
            f"expected one of {_READABLE_FORMAT_VERSIONS}"
        )
    return BenchResult.from_dict(payload)


# -- measurement --------------------------------------------------------


def _best_of(fn: Any, rounds: int) -> float:
    """Minimum wall seconds over ``rounds`` runs of ``fn``."""
    best = float("inf")
    for _ in range(max(1, rounds)):
        start = perf_seconds()
        fn()
        best = min(best, perf_seconds() - start)
    return best


def _build_bench_testbed(
    scenario: BenchScenario,
) -> Tuple[Any, Any, Any, Any]:
    from repro.config import (
        CacheConfig,
        DocumentConfig,
        SimulationConfig,
        WorkloadConfig,
    )
    from repro.core.groups import (
        GroupingResult,
        groups_from_labels,
        single_group,
    )
    from repro.topology import build_network
    from repro.workload import generate_workload

    network = build_network(
        num_caches=scenario.num_caches, seed=scenario.network_seed
    )
    workload = generate_workload(
        network.cache_nodes,
        WorkloadConfig(
            documents=DocumentConfig(
                num_documents=scenario.num_documents,
                dynamic_fraction=scenario.dynamic_fraction,
            ),
            requests_per_cache=scenario.requests_per_cache,
            zipf_alpha=scenario.zipf_alpha,
            mean_update_interarrival_ms=scenario.update_interarrival_ms,
        ),
        seed=scenario.workload_seed,
    )
    if scenario.num_groups <= 1:
        grouping = single_group(network.cache_nodes)
    else:
        grouping = GroupingResult(
            scheme="bench-round-robin",
            groups=groups_from_labels(
                network.cache_nodes,
                [
                    node % scenario.num_groups
                    for node in network.cache_nodes
                ],
            ),
        )
    config = SimulationConfig(
        cache=CacheConfig(capacity_fraction=scenario.capacity_fraction)
    )
    return network, workload, grouping, config


def run_engine_bench(scenario: BenchScenario) -> Dict[str, float]:
    """Measure event-loop throughput for one scenario.

    Returns ``events`` (loop length — the comparability anchor) and
    best-of-``rounds`` events/s for the default batched loop and — for
    ``measure="all"`` scenarios — the fully instrumented loop (trace +
    sampler) and the reference heap loop.
    """
    from repro.obs import MetricsSampler, Observer, TraceCollector
    from repro.simulator import simulate

    network, workload, grouping, config = _build_bench_testbed(scenario)

    # The event count is the workload's requests plus its update
    # barriers — a pure function of the scenario, counted without
    # paying for an extra instrumented run.
    events = len(workload.requests) + len(workload.updates)

    t_plain = _best_of(
        lambda: simulate(network, grouping, workload, config=config),
        scenario.rounds,
    )
    metrics = {
        "events": float(events),
        "plain_events_per_sec": events / t_plain,
    }
    if scenario.measure == "plain":
        return metrics
    t_heap = _best_of(
        lambda: simulate(
            network, grouping, workload, config=config,
            event_loop="heap",
        ),
        scenario.rounds,
    )
    t_instrumented = _best_of(
        lambda: simulate(
            network, grouping, workload, config=config,
            observer=Observer(
                trace=TraceCollector(capacity=10_000),
                sampler=MetricsSampler(interval_ms=1_000.0),
            ),
        ),
        scenario.rounds,
    )
    metrics["instrumented_events_per_sec"] = events / t_instrumented
    metrics["heap_events_per_sec"] = events / t_heap
    return metrics


def run_suite_bench(
    jobs_levels: Sequence[int] = (1, 2),
    figures: Optional[Sequence[str]] = None,
    repetitions: Optional[int] = None,
) -> Dict[str, Dict[str, float]]:
    """Measure full-suite wall clock and events/s per jobs level.

    Each level runs the suite fresh (testbed cache reset) under worker
    telemetry, so the aggregate event count comes from the scheduler's
    per-task accounting; ``events_per_sec_per_core`` divides by the
    jobs level — the scaling number the ROADMAP's sharded-simulation
    arc tracks.
    """
    import tempfile

    from repro.experiments.suite import run_suite
    from repro.runtime import reset_cache

    levels: Dict[str, Dict[str, float]] = {}
    with tempfile.TemporaryDirectory(prefix="bench-testbed-") as cache_dir:
        for jobs in jobs_levels:
            reset_cache()
            start = perf_seconds()
            run = run_suite(
                figures=figures, repetitions=repetitions, jobs=jobs,
                worker_perf=True,
                # Share built testbeds across worker processes via the
                # disk tier: without it every forked worker rebuilds the
                # figure's networks/workloads from scratch, which is what
                # collapsed the measured events/s-per-core at jobs >= 2
                # (see docs/performance.md).
                cache_dir=cache_dir,
            )
            wall_s = perf_seconds() - start
            manifests = run.manifests.values()
            events = sum(
                manifest.run_stats.get("worker_events", 0.0)
                for manifest in manifests
            )
            levels[f"jobs{jobs}"] = {
                "wall_s": wall_s,
                "events": events,
                "events_per_sec": events / wall_s if wall_s else 0.0,
                "events_per_sec_per_core": (
                    events / wall_s / jobs if wall_s else 0.0
                ),
                # Cache effectiveness context (not gated: no _per_sec
                # suffix).
                "testbed_cache_hits": sum(
                    m.run_stats.get("testbed_cache_hits", 0.0)
                    for m in manifests
                ),
                "testbed_cache_misses": sum(
                    m.run_stats.get("testbed_cache_misses", 0.0)
                    for m in manifests
                ),
            }
    reset_cache()
    return levels


def run_bench(
    scenario: BenchScenario = DEFAULT_SCENARIO,
    label: str = "local",
    include_suite: bool = False,
    suite_jobs: Sequence[int] = (1, 2),
    extra_scenarios: Optional[Dict[str, BenchScenario]] = None,
) -> BenchResult:
    """Measure one full bench result (engine, optionally suite).

    ``extra_scenarios`` maps names to additional scenarios measured
    after the primary one; each is recorded with its full definition so
    a later gate can re-measure it from the baseline file alone.
    """
    result = BenchResult(
        label=label,
        scenario=scenario,
        cores=os.cpu_count() or 1,
        engine=run_engine_bench(scenario),
    )
    for name, extra in (extra_scenarios or {}).items():
        result.scenarios[name] = {
            "scenario": extra.to_dict(),
            "engine": run_engine_bench(extra),
        }
    if include_suite:
        result.suite = run_suite_bench(jobs_levels=suite_jobs)
    return result


# -- comparison and gating ----------------------------------------------


@dataclass(frozen=True)
class BenchCheck:
    """One gated metric: baseline vs candidate."""

    name: str
    baseline: float
    candidate: float

    @property
    def ratio(self) -> float:
        """candidate / baseline (1.0 = unchanged, < 1 = slower)."""
        return self.candidate / self.baseline if self.baseline else 0.0

    def regressed(self, tolerance: float) -> bool:
        return self.ratio < 1.0 - tolerance


@dataclass(frozen=True)
class GateReport:
    """Outcome of gating a candidate against a baseline."""

    baseline_label: str
    candidate_label: str
    tolerance: float
    checks: Tuple[BenchCheck, ...]
    skipped: Tuple[str, ...] = ()

    @property
    def regressions(self) -> List[BenchCheck]:
        return [c for c in self.checks if c.regressed(self.tolerance)]

    @property
    def passed(self) -> bool:
        return bool(self.checks) and not self.regressions


def compare_bench(
    baseline: BenchResult, candidate: BenchResult, tolerance: float =
    DEFAULT_TOLERANCE,
) -> GateReport:
    """Compare every throughput metric present in both results.

    Metrics only one side measured are listed as skipped, so a
    baseline without suite numbers still gates the engine.
    """
    base_metrics = baseline.metrics()
    cand_metrics = candidate.metrics()
    shared = sorted(set(base_metrics) & set(cand_metrics))
    skipped = sorted(set(base_metrics) ^ set(cand_metrics))
    checks = tuple(
        BenchCheck(
            name=name,
            baseline=base_metrics[name],
            candidate=cand_metrics[name],
        )
        for name in shared
    )
    return GateReport(
        baseline_label=baseline.label,
        candidate_label=candidate.label,
        tolerance=tolerance,
        checks=checks,
        skipped=tuple(skipped),
    )


def gate_bench(
    baseline: BenchResult,
    candidate: BenchResult,
    tolerance: float = DEFAULT_TOLERANCE,
) -> GateReport:
    """Gate a candidate against a baseline; raises when incomparable.

    Comparability means the same scenario — anchored by the measured
    event count, which is a pure function of the scenario inputs.
    """
    base_events = baseline.engine.get("events")
    cand_events = candidate.engine.get("events")
    if base_events is not None and cand_events is not None \
            and base_events != cand_events:
        raise BenchmarkError(
            f"bench results are not comparable: baseline processed "
            f"{base_events:.0f} events, candidate {cand_events:.0f} "
            f"(different scenarios — re-baseline instead of gating)"
        )
    for name in set(baseline.scenarios) & set(candidate.scenarios):
        base_extra = (baseline.scenarios[name].get("engine") or {}).get(
            "events"
        )
        cand_extra = (candidate.scenarios[name].get("engine") or {}).get(
            "events"
        )
        if base_extra is not None and cand_extra is not None \
                and base_extra != cand_extra:
            raise BenchmarkError(
                f"bench results are not comparable: scenario {name!r} "
                f"processed {base_extra:.0f} events in the baseline, "
                f"{cand_extra:.0f} in the candidate (different "
                f"definitions — re-baseline instead of gating)"
            )
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    report = compare_bench(baseline, candidate, tolerance=tolerance)
    if not report.checks:
        raise BenchmarkError(
            "bench results share no throughput metrics to gate on"
        )
    return report
