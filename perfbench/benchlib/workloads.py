"""The benchmark's three workloads: testbeds, sweep points and one sweep.

A workload is a fixed sweep of *points*.  Each point forms one grouping
of one network, scores it by GICost and, on the simulation workloads,
simulates it over the network's workload.  The sweep runs the points
one after another (a closed loop with one caller, ``jobs=1``); see
``benchlib.runner``.

Formation has two paths:

* the timed path calls ``scheme.form_groups`` exactly as the figures do;
* the traced path drives the GF-Coordinator's public steps itself so
  that landmarks, probing, coordinates and clustering get their own
  spans.  Its groupings are compared with the timed path's on every
  point, so the two cannot drift apart.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.gicost import average_group_interaction_cost
from repro.clustering.init import ServerDistanceBiasedInit
from repro.config import (
    CacheConfig,
    DocumentConfig,
    GNPConfig,
    KMeansConfig,
    ProbeConfig,
    SDSLConfig,
    SimulationConfig,
    WorkloadConfig,
)
from repro.coords.gnp import embed_gnp
from repro.core.coordinator import GFCoordinator
from repro.core.groups import GroupingResult
from repro.core.schemes import (
    EuclideanGNPScheme,
    GroupFormationScheme,
    MinDistLandmarksScheme,
    RandomLandmarksScheme,
    SDSLScheme,
    SLScheme,
)
from repro.experiments.base import default_workload_config, landmark_config
from repro.landmarks.greedy import GreedyMaxMinSelector
from repro.landmarks.mindist import MinDistSelector
from repro.landmarks.random_sel import RandomSelector
from repro.simulator import engine
from repro.simulator.metrics import SimulationMetrics
from repro.simulator.runner import simulate
from repro.topology.network import EdgeCacheNetwork, build_network
from repro.utils.rng import RngFactory
from repro.workload.ibm_synthetic import Workload, generate_workload

from benchlib.spans import SpanRecorder

#: Landmarks per formation, as in the paper's evaluation (Section 5).
NUM_LANDMARKS = 25
#: SDSL's server-distance exponent, as in fig9.
SDSL_THETA = 2.0

_SCHEMES = {
    "SL": SLScheme,
    "random-landmarks": RandomLandmarksScheme,
    "mindist-landmarks": MinDistLandmarksScheme,
    "euclidean-gnp": EuclideanGNPScheme,
}
#: Landmark selector each scheme's ``_run`` uses (the traced path needs
#: it explicitly; the grouping comparison catches any mismatch).
_SELECTORS = {
    "SL": GreedyMaxMinSelector,
    "SDSL": GreedyMaxMinSelector,
    "random-landmarks": RandomSelector,
    "mindist-landmarks": MinDistSelector,
    "euclidean-gnp": GreedyMaxMinSelector,
}


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: network sizes, K values, schemes, inputs."""

    name: str
    sizes: Tuple[int, ...]
    k_values: Tuple[int, ...]
    schemes: Tuple[str, ...]
    #: request/update workload; ``None`` means nothing is simulated
    workload: Optional[WorkloadConfig]
    simulation: SimulationConfig = field(default_factory=SimulationConfig)


SPECS: Dict[str, WorkloadSpec] = {
    # fig9: one 150-cache testbed, caches hold 10% of the catalog,
    # updates are under 1% of events, SL and SDSL at K = 5..40.
    "coop-sweep": WorkloadSpec(
        name="coop-sweep",
        sizes=(150,),
        k_values=(5, 10, 15, 25, 40),
        schemes=("SL", "SDSL"),
        workload=default_workload_config(),
    ),
    # figs 4-7: every GF-Coordinator layer, GNP included; GICost only.
    "formation": WorkloadSpec(
        name="formation",
        sizes=(100, 150, 200),
        k_values=(5, 20, 40),
        schemes=("SL", "random-landmarks", "mindist-landmarks",
                 "euclidean-gnp"),
        workload=None,
    ),
    # Writes beside reads: every document is dynamic and there is about
    # one origin update per 3.5 requests; few large groups, big caches.
    "update-storm": WorkloadSpec(
        name="update-storm",
        sizes=(100,),
        k_values=(1, 2, 3, 4, 5),
        schemes=("SL",),
        workload=WorkloadConfig(
            documents=DocumentConfig(num_documents=400, dynamic_fraction=1.0),
            requests_per_cache=300,
            zipf_alpha=0.9,
            shared_interest=0.8,
            mean_update_interarrival_ms=9.5,
        ),
        simulation=SimulationConfig(cache=CacheConfig(capacity_fraction=0.3)),
    ),
}


@dataclass(frozen=True)
class Point:
    """One (network size, K, scheme) formation, with its own seed."""

    pid: str
    size: int
    k: int
    scheme: str
    seed: int


@dataclass
class Testbed:
    """Networks (and their workloads) keyed by cache count."""

    networks: Dict[int, EdgeCacheNetwork]
    workloads: Dict[int, Workload]

    def inputs_digest(self) -> str:
        """SHA-256 over every generated input: RTT matrices and logs."""
        digest = hashlib.sha256()
        for size in sorted(self.networks):
            digest.update(self.networks[size].distances.as_array().tobytes())
            workload = self.workloads.get(size)
            if workload is None:
                continue
            for column in workload.request_columns():
                digest.update(column.tobytes())
            digest.update(np.asarray(
                [(u.timestamp_ms, u.doc_id) for u in workload.updates],
                dtype=np.float64,
            ).tobytes())
        return digest.hexdigest()


def build_testbed(
    spec: WorkloadSpec, seed: int, tracer: SpanRecorder
) -> Testbed:
    """Build every network and workload of ``spec`` from ``seed``.

    The request columns the simulator reads are extracted here, so that
    lazy work the first simulation would otherwise pay counts as set-up.
    """
    networks: Dict[int, EdgeCacheNetwork] = {}
    workloads: Dict[int, Workload] = {}
    for size in spec.sizes:
        factory = RngFactory(seed).fork(f"n{size}")
        with tracer.span("topology"):
            network = build_network(
                num_caches=size, seed=factory.stream("topology")
            )
        networks[size] = network
        if spec.workload is not None:
            with tracer.span("workload"):
                workload = generate_workload(
                    network.cache_nodes, spec.workload,
                    seed=factory.stream("workload"),
                )
                workload.request_columns()
            workloads[size] = workload
    return Testbed(networks=networks, workloads=workloads)


def sweep_points(spec: WorkloadSpec, seed: int) -> List[Point]:
    """The sweep's points, each with a seed derived from ``seed``."""
    factory = RngFactory(seed).fork("points")
    points = []
    for size in spec.sizes:
        for k in spec.k_values:
            for scheme in spec.schemes:
                pid = f"n{size}-k{k}-{scheme}"
                point_seed = int(factory.stream(pid).integers(2**62))
                points.append(Point(pid, size, k, scheme, point_seed))
    return points


def make_scheme(point: Point) -> GroupFormationScheme:
    """The scheme object the figures would build for ``point``."""
    lm_config = landmark_config(NUM_LANDMARKS, num_caches=point.size)
    if point.scheme == "SDSL":
        return SDSLScheme(
            sdsl_config=SDSLConfig(theta=SDSL_THETA),
            landmark_config=lm_config,
        )
    return _SCHEMES[point.scheme](landmark_config=lm_config)


@dataclass
class PointResult:
    """Everything one point produced, for checks and metrics."""

    point: Point
    grouping: GroupingResult
    gicost_ms: float
    #: GNP landmark fit error (traced path of GNP points only)
    fit_error: Optional[float] = None
    metrics: Optional[SimulationMetrics] = None
    #: engine events this point's simulation processed
    events: int = 0
    #: probe counters of this point's formation (traced path only)
    probes_sent: int = 0
    pairs_measured: int = 0
    #: bit-exact digest of ``metrics`` (see ``checks.fingerprint``)
    fingerprint: Optional[str] = None


def form_traced(
    point: Point, network: EdgeCacheNetwork, tracer: SpanRecorder
) -> PointResult:
    """Form ``point``'s grouping step by step, one span per layer call.

    Mirrors the scheme classes' ``_run`` methods: the same coordinator
    seed, selector, configs and SDSL initializer.
    """
    lm_config = landmark_config(NUM_LANDMARKS, num_caches=point.size)
    fit_error = None
    with tracer.span("core"):
        coordinator = GFCoordinator(
            network, probe_config=ProbeConfig(), seed=point.seed
        )
        with tracer.span("landmarks"):
            landmarks = coordinator.choose_landmarks(
                _SELECTORS[point.scheme](), lm_config
            )
        with tracer.span("probing"):
            features = coordinator.build_features(landmarks)
        coords = None
        if point.scheme == "euclidean-gnp":
            with tracer.span("coords"):
                embedding = embed_gnp(
                    coordinator.prober, features, config=GNPConfig(),
                    seed=coordinator.prober.rng,
                )
            coords = embedding.node_coords
            fit_error = embedding.landmark_fit_error
        initializer = None
        if point.scheme == "SDSL":
            theta = SDSLConfig(theta=SDSL_THETA).effective_theta(
                point.k, network.num_caches
            )
            initializer = ServerDistanceBiasedInit(
                coordinator.measured_server_distances(features), theta=theta
            )
        with tracer.span("clustering"):
            grouping = coordinator.cluster(
                features, point.k, scheme_name=point.scheme,
                initializer=initializer, kmeans_config=KMeansConfig(),
                points=coords,
            )
    stats = coordinator.prober.stats
    return PointResult(
        point=point, grouping=grouping, gicost_ms=float("nan"),
        fit_error=fit_error, probes_sent=stats.probes_sent,
        pairs_measured=stats.pairs_measured,
    )


def run_point(
    spec: WorkloadSpec,
    testbed: Testbed,
    point: Point,
    tracer: Optional[SpanRecorder],
    event_loop: Optional[str] = None,
) -> PointResult:
    """Form, score and (on simulation workloads) simulate one point.

    ``tracer=None`` is the timed path through ``form_groups``; a
    recorder selects the traced step-by-step path.
    """
    network = testbed.networks[point.size]
    if tracer is None:
        tracer = SpanRecorder.disabled()
        result = PointResult(
            point=point,
            grouping=make_scheme(point).form_groups(
                network, point.k, seed=point.seed
            ),
            gicost_ms=float("nan"),
        )
    else:
        tracer.point = point.pid
        result = form_traced(point, network, tracer)
    with tracer.span("analysis"):
        result.gicost_ms = average_group_interaction_cost(
            network, result.grouping
        )
    if spec.workload is not None:
        before = engine.events_total()
        with tracer.span("simulator"):
            result.metrics = simulate(
                network, result.grouping, testbed.workloads[point.size],
                config=spec.simulation, event_loop=event_loop,
            ).metrics
        result.events = engine.events_total() - before
    return result

