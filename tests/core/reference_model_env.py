"""The serial synthetic environment, as it ran before rollouts were batched.

Kept in ``tests/`` as the K=1 oracle the production
:class:`repro.core.model_env.BatchedModelEnv` is held to: one rollout,
one ``(n,)`` state, one ``model.predict`` per step.  The class below is
the former ``repro.core.model_env.ModelEnv`` verbatim, and
:func:`reward_eq1` the one-state reward it called, as it stood in
``repro.core.reward`` before that became a function over ``(K, n)``;
tests/core/test_batched_model_env.py and
tests/core/test_agent_batched_equivalence.py require byte-identical
trajectories, weights and replay contents from the batched engine at
``batch_size=1`` under the same seed.
"""

from typing import Optional, Tuple, Union

import numpy as np

from repro.core.dataset import TransitionDataset
from repro.core.environment_model import EnvironmentModel
from repro.core.refinement import RefinedModel
from repro.utils.rng import RngStream
from repro.utils.validation import check_positive


def reward_eq1(wip: np.ndarray) -> float:
    """Eq. (1): one minus the aggregate work-in-progress."""
    wip = np.asarray(wip, dtype=np.float64)
    if np.any(wip < 0):
        raise ValueError(f"WIP must be non-negative, got {wip}")
    return 1.0 - float(wip.sum())


class ModelEnv:
    """reset/step environment over a learnt dynamics model."""

    def __init__(
        self,
        model: Union[EnvironmentModel, RefinedModel],
        dataset: TransitionDataset,
        consumer_budget: int,
        rollout_length: int = 25,
        rng: Optional[RngStream] = None,
    ):
        check_positive("consumer_budget", consumer_budget)
        check_positive("rollout_length", rollout_length)
        self.model = model
        self.dataset = dataset
        self.consumer_budget = consumer_budget
        self.rollout_length = rollout_length
        self._rng = rng
        self._state: Optional[np.ndarray] = None
        self._steps_in_rollout = 0
        self.total_steps = 0

    @property
    def state_dim(self) -> int:
        return self.model.state_dim

    @property
    def action_dim(self) -> int:
        return self.model.action_dim

    # Action mapping (same contract as the real env) ------------------------
    def allocation_from_simplex(self, simplex: np.ndarray) -> np.ndarray:
        """m_j = floor(C * a_j), valid whenever the input sums to one."""
        simplex = np.asarray(simplex, dtype=np.float64)
        if simplex.shape != (self.action_dim,):
            raise ValueError(
                f"simplex shape {simplex.shape} != ({self.action_dim},)"
            )
        if np.any(simplex < -1e-9) or abs(float(simplex.sum()) - 1.0) > 1e-6:
            raise ValueError(f"not a probability simplex: {simplex}")
        return np.floor(
            self.consumer_budget * np.clip(simplex, 0, 1)
        ).astype(np.int64)

    # Core interface -------------------------------------------------------
    def reset(self, initial_state: Optional[np.ndarray] = None) -> np.ndarray:
        """Start a rollout from a dataset state (or a provided one)."""
        if initial_state is not None:
            state = np.asarray(initial_state, dtype=np.float64)
            if state.shape != (self.state_dim,):
                raise ValueError(
                    f"state shape {state.shape} != ({self.state_dim},)"
                )
            self._state = state.copy()
        else:
            self._state = self.dataset.sample_states(1, self._rng)[0].copy()
        self._steps_in_rollout = 0
        return self._state.copy()

    def step(
        self, allocation: np.ndarray
    ) -> Tuple[np.ndarray, float, bool]:
        """Apply m(k) through the model; returns (s(k+1), r(k+1), done).

        ``done`` becomes True when the rollout-length budget is exhausted
        ("one episode before resetting the predictive model").
        """
        if self._state is None:
            raise RuntimeError("call reset() before step()")
        allocation = np.asarray(allocation, dtype=np.float64)
        if allocation.shape != (self.action_dim,):
            raise ValueError(
                f"allocation shape {allocation.shape} != ({self.action_dim},)"
            )
        if allocation.sum() > self.consumer_budget + 1e-9:
            raise ValueError(
                f"allocation {allocation} exceeds budget {self.consumer_budget}"
            )
        next_state = np.maximum(
            np.asarray(self.model.predict(self._state, allocation)), 0.0
        )
        reward = reward_eq1(next_state)
        self._state = next_state
        self._steps_in_rollout += 1
        self.total_steps += 1
        done = self._steps_in_rollout >= self.rollout_length
        return next_state.copy(), reward, done

    def step_simplex(
        self, simplex: np.ndarray
    ) -> Tuple[np.ndarray, float, bool]:
        """Step with a softmax-actor output."""
        return self.step(self.allocation_from_simplex(simplex))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelEnv(budget={self.consumer_budget}, "
            f"rollout={self.rollout_length}, steps={self.total_steps})"
        )
