"""Tests for the GNP Euclidean embedding."""

import numpy as np
import pytest
from scipy import optimize

from repro.config import GNPConfig, LandmarkConfig
from repro.coords import gnp
from repro.errors import EmbeddingError
from repro.landmarks import GreedyMaxMinSelector, build_feature_vectors
from repro.probing import NoNoise, Prober
from repro.coords import embed_gnp


@pytest.fixture
def small_embedding_inputs(small_network):
    prober = Prober(small_network, noise=NoNoise(), seed=0)
    landmarks = GreedyMaxMinSelector().select(
        prober, LandmarkConfig(num_landmarks=8, multiplier=3),
        np.random.default_rng(0),
    )
    features = build_feature_vectors(prober, landmarks)
    return prober, features


class TestEmbedGNP:
    def test_shapes(self, small_embedding_inputs):
        prober, features = small_embedding_inputs
        emb = embed_gnp(
            prober, features, config=GNPConfig(dimensions=4), seed=1
        )
        assert emb.node_coords.shape == (30, 4)
        assert emb.landmark_coords.shape == (8, 4)
        assert emb.dimensions == 4
        assert emb.nodes == features.nodes

    def test_landmark_fit_reasonable(self, small_embedding_inputs):
        """Landmark self-embedding reaches a modest relative error."""
        prober, features = small_embedding_inputs
        emb = embed_gnp(
            prober, features, config=GNPConfig(dimensions=5), seed=1
        )
        assert emb.landmark_fit_error < 0.35

    def test_coordinate_distance_correlates_with_rtt(
        self, small_network, small_embedding_inputs
    ):
        """Embedded distances track true RTTs (rank correlation)."""
        from scipy.stats import spearmanr

        prober, features = small_embedding_inputs
        emb = embed_gnp(
            prober, features, config=GNPConfig(dimensions=5), seed=2
        )
        true, predicted = [], []
        nodes = features.nodes
        for i in range(0, len(nodes), 3):
            for j in range(i + 1, len(nodes), 3):
                true.append(small_network.rtt(nodes[i], nodes[j]))
                predicted.append(emb.coordinate_distance(i, j))
        rho, _p = spearmanr(true, predicted)
        assert rho > 0.7

    def test_dimension_must_be_below_landmark_count(
        self, small_embedding_inputs
    ):
        prober, features = small_embedding_inputs
        with pytest.raises(EmbeddingError):
            embed_gnp(prober, features, config=GNPConfig(dimensions=8))

    def test_coords_read_only(self, small_embedding_inputs):
        prober, features = small_embedding_inputs
        emb = embed_gnp(
            prober, features, config=GNPConfig(dimensions=3), seed=0
        )
        with pytest.raises(ValueError):
            emb.node_coords[0, 0] = 1.0

    def test_reproducible(self, small_embedding_inputs):
        prober, features = small_embedding_inputs
        cfg = GNPConfig(dimensions=3, max_iterations=50)
        a = embed_gnp(prober, features, config=cfg, seed=5)
        # The prober's rng advanced, so rebuild an identical one.
        prober_b, features_b = small_embedding_inputs
        b = embed_gnp(prober_b, features_b, config=cfg, seed=5)
        # Same seed and same (noise-free) measurements: same bits.
        assert a.landmark_fit_error == b.landmark_fit_error
        np.testing.assert_array_equal(a.landmark_coords, b.landmark_coords)
        np.testing.assert_array_equal(a.node_coords, b.node_coords)

    def test_minimize_runs_once_per_landmark_restart(
        self, small_embedding_inputs, monkeypatch
    ):
        """Nodes are solved in one batch, never by a per-node minimize."""
        calls = []
        real = optimize.minimize

        def counting(*args, **kwargs):
            calls.append(args[1].size)
            return real(*args, **kwargs)

        monkeypatch.setattr(gnp.optimize, "minimize", counting)
        prober, features = small_embedding_inputs
        embed_gnp(
            prober, features,
            config=GNPConfig(dimensions=4, landmark_restarts=2), seed=3,
        )
        assert calls == [8 * 4, 8 * 4]


def _oracle_node_costs(rtts, landmark_coords, starts, max_iterations):
    """Per-node L-BFGS-B from ``starts``: the batched solve's reference.

    Returns each node's sum of squared relative errors at its optimum.
    """
    costs = []
    for row, start in zip(rtts, starts):
        positive = row > 0
        target, anchors = row[positive], landmark_coords[positive]

        def objective(coord):
            diff = coord[None, :] - anchors
            dist = np.linalg.norm(diff, axis=1)
            err = (dist - target) / target
            coef = 2.0 * err / (target * dist)
            return float((err**2).sum()), (diff * coef[:, None]).sum(axis=0)

        result = optimize.minimize(
            objective, start, method="L-BFGS-B", jac=True,
            options={"maxiter": max_iterations},
        )
        costs.append(result.fun)
    return np.array(costs)


def _node_costs(coords, rtts, landmark_coords):
    positive = rtts > 0
    target = np.where(positive, rtts, 1.0)
    dist = np.linalg.norm(
        coords[:, None, :] - landmark_coords[None, :, :], axis=2
    )
    return (np.where(positive, (dist - target) / target, 0.0) ** 2).sum(axis=1)


class TestBatchedNodeSolve:
    @pytest.mark.parametrize("dims,seed", [(2, 0), (4, 1), (6, 2)])
    def test_total_objective_matches_per_node_oracle(
        self, small_embedding_inputs, dims, seed
    ):
        """One batched solve fits the nodes as well as per-node L-BFGS-B.

        Nodes may settle in different local minima, so only the total
        is compared, at 1% above the oracle's.
        """
        prober, features = small_embedding_inputs
        emb = embed_gnp(
            prober, features, config=GNPConfig(dimensions=dims), seed=seed
        )
        landmarks = emb.landmark_coords
        rtts = features.matrix
        starts = landmarks.mean(axis=0) + np.random.default_rng(
            seed
        ).normal(0.0, 1.0, size=(rtts.shape[0], dims))
        batched = gnp._embed_nodes(
            rtts, landmarks, 200, np.random.default_rng(seed)
        )
        oracle = _oracle_node_costs(rtts, landmarks, starts, 200)
        assert _node_costs(batched, rtts, landmarks).sum() <= (
            1.01 * oracle.sum()
        )

    def test_row_without_positive_rtt_keeps_its_start(
        self, small_embedding_inputs
    ):
        prober, features = small_embedding_inputs
        emb = embed_gnp(
            prober, features, config=GNPConfig(dimensions=3), seed=4
        )
        rtts = features.matrix.copy()
        rtts[5] = 0.0
        landmarks = emb.landmark_coords
        starts = landmarks.mean(axis=0) + np.random.default_rng(9).normal(
            0.0, 1.0, size=(rtts.shape[0], 3)
        )
        coords = gnp._embed_nodes(
            rtts, landmarks, 200, np.random.default_rng(9)
        )
        np.testing.assert_array_equal(coords[5], starts[5])
        assert not np.array_equal(coords[4], starts[4])
