"""Tests for the RL environment wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.env import ConstraintViolation, allocation_from_simplex

from tests.conftest import make_msd_env


class TestDimensions:
    def test_dims_match_ensemble(self):
        env = make_msd_env()
        assert env.state_dim == 4
        assert env.action_dim == 4
        assert env.consumer_budget == 14


class TestActionMapping:
    def test_uniform_allocation_sums_to_budget(self):
        env = make_msd_env()
        allocation = env.uniform_allocation()
        assert allocation.sum() == 14
        assert allocation.max() - allocation.min() <= 1

    def test_floor_mapping_matches_paper(self):
        env = make_msd_env()
        simplex = np.array([0.5, 0.25, 0.15, 0.10])
        allocation = allocation_from_simplex(simplex[np.newaxis], 14)[0]
        assert np.array_equal(allocation, np.floor(14 * simplex))

    def test_floor_never_exceeds_budget(self):
        env = make_msd_env()
        rng = env.system.workload_rng.fork("t")
        for _ in range(200):
            simplex = rng.generator.dirichlet(np.ones(4))
            allocation = allocation_from_simplex(simplex[np.newaxis], 14)[0]
            assert allocation.sum() <= 14
            assert np.all(allocation >= 0)

    @given(
        st.lists(st.floats(0.01, 10.0), min_size=4, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_floor_budget_property(self, raw):
        env = make_msd_env()
        simplex = np.array(raw) / np.sum(raw)
        allocation = allocation_from_simplex(
            simplex[np.newaxis], env.consumer_budget
        )[0]
        assert int(allocation.sum()) <= env.consumer_budget

    def test_non_simplex_rejected(self):
        with pytest.raises(ValueError, match="simplex"):
            allocation_from_simplex(np.array([[0.5, 0.5, 0.5, 0.5]]), 14)

    def test_nan_simplex_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            allocation_from_simplex(np.array([[np.nan, 0.25, 0.25, 0.25]]), 14)

    def test_wrong_shape_rejected(self):
        env = make_msd_env()
        with pytest.raises(ValueError):
            allocation_from_simplex(np.array([1.0]), 14)  # not a (K, J) block
        with pytest.raises(ValueError):
            env.step(allocation_from_simplex(np.array([[1.0]]), 14)[0])

    def test_random_allocation_feasible(self):
        env = make_msd_env()
        rng = env.system.workload_rng.fork("r")
        for _ in range(50):
            allocation = env.random_allocation(rng)
            env.check_budget(allocation)


class TestBudgetEnforcement:
    def test_over_budget_rejected(self):
        env = make_msd_env()
        with pytest.raises(ConstraintViolation, match="budget"):
            env.step(np.array([14, 14, 14, 14]))

    def test_negative_rejected(self):
        env = make_msd_env()
        with pytest.raises(ConstraintViolation):
            env.check_budget(np.array([-1, 5, 5, 5]))

    def test_exact_budget_allowed(self):
        env = make_msd_env()
        env.check_budget(np.array([14, 0, 0, 0]))

    @pytest.mark.parametrize("bad", [1.5, np.inf, np.nan])
    def test_fractional_or_non_finite_rejected(self, bad):
        # Not floored to [1, 1, 1, 1], and a ValueError, not an
        # OverflowError from summing an infinity.
        env = make_msd_env()
        with pytest.raises(ValueError, match="integral and finite"):
            env.step(np.array([bad, 1, 1, 1]))
        assert env.steps_taken == 0

    def test_whole_floats_become_counts(self):
        env = make_msd_env()
        allocation = env.check_budget(np.array([2.0, 1.0, 0.0, 3.0]))
        assert allocation.dtype == np.int64
        assert allocation.tolist() == [2, 1, 0, 3]


class TestResetStep:
    def test_reset_leaves_nothing_waiting(self):
        env = make_msd_env()
        env.system.inject_burst({"Type1": 40})
        state = env.reset()
        services = env.system.microservices.values()
        assert all(ms.ready_count == 0 for ms in services)
        # What is left is in service, on a consumer that is busy or
        # finishing its last task after the step down to uniform.
        assert float(state.sum()) <= sum(
            ms.busy_consumers + len(ms.draining) for ms in services
        )
        assert env.system.conservation_ok()
        assert 1 <= env.reset_windows < 40
        assert env.episodes == 1

    def test_step_returns_consistent_observation(self):
        env = make_msd_env()
        env.reset()
        state, reward, observation = env.step(env.uniform_allocation())
        assert state.shape == (4,)
        assert reward == pytest.approx(1.0 - float(state.sum()))
        assert np.array_equal(observation.wip, state)
        assert env.steps_taken == 1

    def test_observe_does_not_advance_time(self):
        env = make_msd_env()
        before = env.system.loop.now
        env.observe()
        assert env.system.loop.now == before


class TestStarvation:
    def test_zero_allocation_accumulates_wip(self):
        env = make_msd_env(seed=3)
        env.reset()
        for _ in range(10):
            state, _, _ = env.step(np.array([0, 0, 0, 0]))
        assert float(state.sum()) > 0
        assert env.system.conservation_ok()
