"""GNP-style Euclidean coordinate embedding (paper Section 5.2 baseline).

Global Network Positioning (Ng & Zhang, INFOCOM 2002) maps hosts into a
D-dimensional Euclidean space in two phases:

1. the landmarks embed *themselves* by minimising the total squared
   relative error between measured inter-landmark RTTs and coordinate
   (L2) distances;
2. every other host solves the same least-squares problem against the
   now-fixed landmark coordinates, using only its own measured RTTs to
   the landmarks.

The landmark phase runs ``scipy.optimize.minimize`` (L-BFGS-B) from
several random starts, since its objective is non-convex.  The node
phase solves every node at once with a batched Levenberg-Marquardt
(damped Gauss-Newton) iteration that stops each node by L-BFGS-B's
default rules.  The paper's Figure 7 compares K-means on these
coordinates against K-means on raw feature vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import optimize

from repro.config import GNPConfig
from repro.errors import EmbeddingError
from repro.landmarks.feature_vectors import FeatureVectors
from repro.obs.profiling import phase_timer
from repro.probing.prober import Prober
from repro.utils.rng import SeedLike, spawn_rng


@dataclass(frozen=True)
class GNPEmbedding:
    """Result of a GNP embedding.

    ``landmark_coords[j]`` positions landmark ``j`` (ordered as in the
    landmark set); ``node_coords[i]`` positions node ``i`` (ordered as in
    the feature-vector node tuple).  ``landmark_fit_error`` is the mean
    relative error of the landmark self-embedding.
    """

    nodes: tuple
    node_coords: np.ndarray
    landmark_coords: np.ndarray
    landmark_fit_error: float

    def __post_init__(self) -> None:
        if self.node_coords.shape[0] != len(self.nodes):
            raise EmbeddingError(
                f"{self.node_coords.shape[0]} coordinate rows for "
                f"{len(self.nodes)} nodes"
            )
        self.node_coords.setflags(write=False)
        self.landmark_coords.setflags(write=False)

    @property
    def dimensions(self) -> int:
        return self.node_coords.shape[1]

    def coordinate_distance(self, i: int, j: int) -> float:
        """L2 distance between two embedded nodes (by row index)."""
        return float(
            np.linalg.norm(self.node_coords[i] - self.node_coords[j])
        )


#: L-BFGS-B's default stopping rules (scipy's ``factr`` times machine
#: epsilon, and ``pgtol``), which the batched node solve mirrors.
_FTOL = 1e7 * np.finfo(float).eps
_GTOL = 1e-5


def _residuals(
    points: np.ndarray,
    anchors: np.ndarray,
    target: np.ndarray,
    positive: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets, distances and relative errors of points to anchors.

    ``points`` is ``(n, D)`` and ``anchors`` ``(C, D)``; the results
    are ``(n, C, D)``, ``(n, C)`` and ``(n, C)``.  ``target`` holds the
    measured RTTs (1 where not ``positive``); entries whose RTT is not
    positive have zero error.
    """
    diff = points[:, None, :] - anchors[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    return diff, dist, np.where(positive, (dist - target) / target, 0.0)


def _embed_landmarks(
    measured: np.ndarray,
    dims: int,
    max_iterations: int,
    restarts: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Phase 1: landmarks position themselves (non-convex, restarted).

    The objective works on the dense, symmetric ``count x count``
    matrix, so every pair is counted twice and the value is halved.
    With relative error ``e_ij = (|ci-cj| - d_ij)/d_ij`` and
    ``coef_ij = 2 e_ij / (d_ij |ci-cj|)``, the analytic gradient is
    ``dF/dci = sum_j coef_ij (ci - cj)``, i.e. ``ci * rowsum(coef) -
    coef @ C``.  Without it L-BFGS-B falls back to finite differences,
    ``count*dims + 1`` objective evaluations per step.
    """
    count = measured.shape[0]
    scale = float(measured.max()) or 1.0

    positive = measured > 0
    target = np.where(positive, measured, 1.0)

    def objective(flat: np.ndarray):
        coords = flat.reshape(count, dims)
        _, dist, err = _residuals(coords, coords, target, positive)
        # The objective is non-differentiable where |ci-cj| == 0; a zero
        # subgradient there keeps L-BFGS-B stable.
        nonzero = dist > 0
        coef = np.where(
            nonzero, 2.0 * err / (target * np.where(nonzero, dist, 1.0)), 0.0
        )
        grad = coords * coef.sum(axis=1)[:, None] - coef @ coords
        return 0.5 * float((err * err).sum()), grad.ravel()

    best_coords: Optional[np.ndarray] = None
    best_value = np.inf
    for _ in range(restarts):
        start = rng.normal(0.0, scale / 2.0, size=count * dims)
        result = optimize.minimize(
            objective, start, method="L-BFGS-B", jac=True,
            options={"maxiter": max_iterations},
        )
        if result.fun < best_value:
            best_value = float(result.fun)
            best_coords = result.x.reshape(count, dims)
    if best_coords is None:
        raise EmbeddingError("landmark embedding produced no solution")
    return best_coords


def _embed_nodes(
    rtts: np.ndarray,
    landmark_coords: np.ndarray,
    max_iterations: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Phase 2: every node positions itself against fixed landmarks.

    Each node minimises its own sum of squared relative errors
    ``r_ij = (|x_i - a_j| - d_ij)/d_ij`` over its positive RTTs.  All
    nodes are solved together by Levenberg-Marquardt: one batched
    ``(n, D, D)`` solve of the damped normal equations per iteration,
    with a damping factor per node that shrinks after an accepted step
    and grows after a rejected one.  A node stops, and leaves the
    batch, when an accepted step lowers its cost by no more than
    ``_FTOL`` relative, or its gradient is at most ``_GTOL``; every
    node stops after ``max_iterations`` steps.  A node with no positive
    RTT keeps its start point.
    """
    count, dims = rtts.shape[0], landmark_coords.shape[1]
    # Start at the centroid of the landmarks, lightly perturbed.
    coords = landmark_coords.mean(axis=0) + rng.normal(
        0.0, 1.0, size=(count, dims)
    )
    positive = rtts > 0
    target = np.where(positive, rtts, 1.0)

    rows = np.flatnonzero(positive.any(axis=1))
    x = coords[rows]
    damping: Optional[np.ndarray] = None
    growth = np.full(rows.size, 2.0)
    eye = np.eye(dims)
    for _ in range(max_iterations):
        if rows.size == 0:
            break
        pos, tgt = positive[rows], target[rows]
        diff, dist, err = _residuals(x, landmark_coords, tgt, pos)
        cost = (err * err).sum(axis=1)
        nonzero = pos & (dist > 0)
        scale = np.where(
            nonzero, 1.0 / (tgt * np.where(nonzero, dist, 1.0)), 0.0
        )
        jac = diff * scale[:, :, None]
        half_grad = np.einsum("ncd,nc->nd", jac, err)
        normal = np.einsum("ncd,nce->nde", jac, jac)
        if damping is None:
            # The starts are far from every optimum, so the first steps
            # are kept short: damping starts at the largest curvature.
            damping = np.diagonal(normal, axis1=1, axis2=2).max(axis=1)

        moving = 2.0 * np.abs(half_grad).max(axis=1) > _GTOL
        step = np.linalg.solve(
            normal + damping[:, None, None] * eye, -half_grad[:, :, None]
        )[:, :, 0]
        trial = x + step
        _, _, trial_err = _residuals(trial, landmark_coords, tgt, pos)
        trial_cost = (trial_err * trial_err).sum(axis=1)
        better = moving & (trial_cost < cost)
        drop = cost - trial_cost
        moving &= ~(
            better
            & (drop <= _FTOL * np.maximum(np.maximum(cost, trial_cost), 1.0))
        )
        x = np.where(better[:, None], trial, x)
        # Nielsen's damping update: shrink by how well the linear model
        # predicted the drop (never below a third), grow ever faster
        # after consecutive rejections.  The predicted drop is positive
        # for any non-zero step.
        predicted = (step * (damping[:, None] * step - half_grad)).sum(axis=1)
        gain = drop / np.where(better, predicted, 1.0)
        damping = np.where(
            better,
            damping * np.maximum(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3),
            damping * growth,
        )
        growth = np.where(better, 2.0, 2.0 * growth)

        coords[rows[~moving]] = x[~moving]
        rows, x = rows[moving], x[moving]
        damping, growth = damping[moving], growth[moving]
    coords[rows] = x
    return coords


def embed_gnp(
    prober: Prober,
    features: FeatureVectors,
    config: Optional[GNPConfig] = None,
    seed: SeedLike = None,
) -> GNPEmbedding:
    """Embed all feature-vector nodes into GNP Euclidean coordinates.

    Reuses the already-measured node→landmark RTTs from ``features``
    (both schemes in the paper's Figure 7 share "the same sets of 25
    landmarks"); only inter-landmark RTTs are probed afresh here.
    """
    config = config or GNPConfig()
    config.validate()
    with phase_timer("coords/gnp"):
        rng = spawn_rng(seed)

        landmarks = list(features.landmarks)
        if config.dimensions >= len(landmarks):
            raise EmbeddingError(
                f"GNP needs dimensions < number of landmarks "
                f"({config.dimensions} >= {len(landmarks)})"
            )
        inter_landmark = prober.measure_matrix(landmarks)
        landmark_coords = _embed_landmarks(
            inter_landmark,
            config.dimensions,
            config.max_iterations,
            config.landmark_restarts,
            rng,
        )

        pred = np.linalg.norm(
            landmark_coords[:, None, :] - landmark_coords[None, :, :], axis=2
        )
        iu, ju = np.triu_indices(len(landmarks), k=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(pred[iu, ju] - inter_landmark[iu, ju]) / np.where(
                inter_landmark[iu, ju] > 0, inter_landmark[iu, ju], 1.0
            )
        fit_error = float(rel.mean()) if rel.size else 0.0

        node_coords = _embed_nodes(
            features.matrix, landmark_coords, config.max_iterations, rng
        )
        return GNPEmbedding(
            nodes=features.nodes,
            node_coords=node_coords,
            landmark_coords=landmark_coords,
            landmark_fit_error=fit_error,
        )
