"""Tests for the MONAD (MPC) and model-free DDPG baselines."""

import numpy as np
import pytest

from repro.baselines import monad
from repro.baselines.modelfree import ModelFreeDDPGAllocator
from repro.baselines.monad import LinearPerformanceModel, MonadAllocator
from repro.baselines.static_alloc import (
    ProportionalToWipAllocator,
    UniformAllocator,
)
from repro.core.dataset import TransitionDataset
from repro.rl.ddpg import DDPGConfig

from tests.conftest import make_msd_env


def linear_dataset(A, B, c, n=300, seed=0, state_dim=2, action_dim=2):
    rng = np.random.default_rng(seed)
    dataset = TransitionDataset(state_dim, action_dim)
    for _ in range(n):
        w = rng.uniform(0, 50, state_dim)
        m = rng.uniform(0, 5, action_dim)
        dataset.add(w, m, A @ w + B @ m + c)
    return dataset


class TestLinearPerformanceModel:
    def test_recovers_known_system(self, monkeypatch):
        A = np.array([[0.9, 0.1], [0.0, 0.8]])
        B = np.array([[-2.0, 0.0], [0.0, -1.5]])
        c = np.array([3.0, 1.0])
        # A near-zero ridge, so the fit is the exact least-squares one.
        monkeypatch.setattr(monad, "RIDGE", 1e-6)
        model = LinearPerformanceModel(2, 2)
        mse = model.fit(linear_dataset(A, B, c))
        assert mse < 1e-10
        assert np.allclose(model.A, A, atol=1e-4)
        assert np.allclose(model.B, B, atol=1e-4)
        assert np.allclose(model.c, c, atol=1e-3)

    def test_predict(self):
        model = LinearPerformanceModel(2, 2)
        model.A = np.eye(2)
        model.B = -np.eye(2)
        model.c = np.zeros(2)
        out = model.predict(np.array([5.0, 3.0]), np.array([1.0, 1.0]))
        assert np.allclose(out, [4.0, 2.0])

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            LinearPerformanceModel(0, 2)
        with pytest.raises(ValueError):
            LinearPerformanceModel(2, 0)


def random_dataset(seed=0):
    """50 random transitions of MSD's 4 task types."""
    dataset = TransitionDataset(4, 4)
    rng = np.random.default_rng(seed)
    for _ in range(50):
        dataset.add(
            rng.uniform(0, 50, 4), rng.uniform(0, 4, 4), rng.uniform(0, 50, 4)
        )
    return dataset


class TestMonadAllocator:
    def test_fit_from_dataset(self):
        env = make_msd_env(seed=22)
        allocator = MonadAllocator()
        allocator.fit_from_dataset(env, random_dataset())
        assert allocator.model.fitted

    def test_allocation_feasible(self):
        env = make_msd_env(seed=23)
        allocator = MonadAllocator()
        allocator.fit_from_dataset(env, random_dataset())
        for wip in [np.zeros(4), np.array([100.0, 50, 25, 10])]:
            allocation = allocator.allocate(wip)
            assert allocation.sum() <= 14
            assert np.all(allocation >= 0)

    def test_mpc_targets_the_loaded_service(self):
        """With diagonal drain dynamics, MPC should spend more on the
        service with the largest predicted backlog."""
        env = make_msd_env(seed=24)
        allocator = MonadAllocator()
        allocator.bind(env)
        model = LinearPerformanceModel(4, 4)
        model.A = np.eye(4)
        model.B = -5.0 * np.eye(4)
        model.c = np.zeros(4)
        model.fitted = True
        allocator.model = model
        allocation = allocator.allocate(np.array([200.0, 10.0, 10.0, 10.0]))
        assert allocation[0] == allocation.max()

    def test_allocate_before_fit_raises(self):
        allocator = MonadAllocator()
        allocator.bind(make_msd_env())
        with pytest.raises(RuntimeError):
            allocator.allocate(np.zeros(4))


class TestModelFreeDDPG:
    def test_trains_and_allocates(self):
        env = make_msd_env(seed=25)
        allocator = ModelFreeDDPGAllocator(
            training_steps=30,
            reset_interval=10,
            config=DDPGConfig(hidden_sizes=(16, 16), batch_size=8),
        )
        allocator.prepare(env)
        assert len(allocator.episode_returns) >= 2
        allocation = allocator.allocate(np.array([10.0, 5.0, 3.0, 2.0]))
        assert allocation.sum() <= 14
        assert np.all(allocation >= 0)

    def test_allocate_before_prepare_raises(self):
        allocator = ModelFreeDDPGAllocator()
        allocator.bind(make_msd_env())
        with pytest.raises(RuntimeError):
            allocator.allocate(np.zeros(4))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ModelFreeDDPGAllocator(training_steps=0)
        with pytest.raises(ValueError):
            ModelFreeDDPGAllocator(burst_probability=2.0)


class TestStaticAllocators:
    def test_uniform_spends_budget(self):
        allocator = UniformAllocator()
        allocator.bind(make_msd_env())
        allocation = allocator.allocate(np.zeros(4))
        assert allocation.sum() == 14
        assert allocation.max() - allocation.min() <= 1

    def test_wip_proportional_tracks_queues(self):
        allocator = ProportionalToWipAllocator()
        allocator.bind(make_msd_env())
        allocation = allocator.allocate(np.array([90.0, 5.0, 3.0, 2.0]))
        assert allocation[0] == allocation.max()
        assert allocation.sum() == 14
