"""Synthetic environment backed by the learnt (refined) model.

Policy learning interacts with this instead of the real system: "we train
a deep reinforcement learning agent by letting it interact with the learnt
environment model f̂_Φ instead of the actual real environment, and observe
rewards and state transitions" (Section IV-D).  The interface is
:class:`repro.sim.env.MicroserviceEnv`'s reset/step with a leading batch
axis: K rollouts advance through one model call per step.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.dataset import TransitionDataset
from repro.core.refinement import RefinedModel
from repro.core.reward import reward_eq1
from repro.utils.rng import RngStream
from repro.utils.validation import check_positive

__all__ = ["BatchedModelEnv"]


class BatchedModelEnv:
    """K synchronous synthetic rollouts as ``(K, state_dim)`` arrays.

    Advances all rollouts through one batched model call per step — the
    vectorised half of the training-loop hot path.  All K rollouts share
    one step counter and terminate together at ``rollout_length`` (the
    paper resets the predictive model after every episode anyway, so
    synthetic episodes always have equal length).

    Determinism contract: for ``batch_size=1`` the RNG draws and model
    forwards are call-for-call identical to the one-rollout environment
    this class replaced (kept as tests/core/reference_model_env.py), so
    K=1 trajectories are byte-identical to it under the same seed (pinned
    by tests/core/test_batched_model_env.py).
    """

    def __init__(
        self,
        model: RefinedModel,
        dataset: TransitionDataset,
        consumer_budget: int,
        rollout_length: int = 25,
        batch_size: int = 1,
        *,
        rng: RngStream,
    ):
        check_positive("consumer_budget", consumer_budget)
        check_positive("rollout_length", rollout_length)
        check_positive("batch_size", batch_size)
        self.model = model
        self.dataset = dataset
        self.consumer_budget = consumer_budget
        self.rollout_length = rollout_length
        self.batch_size = batch_size
        self._rng = rng
        self._states: Optional[np.ndarray] = None
        self._steps_in_rollout = 0
        #: Total synthetic *transitions* generated (K per step call).
        self.total_steps = 0

    @property
    def state_dim(self) -> int:
        return self.model.state_dim

    @property
    def action_dim(self) -> int:
        return self.model.action_dim

    # Core interface -------------------------------------------------------
    def reset(self, batch_size: Optional[int] = None) -> np.ndarray:
        """Start K rollouts from dataset states; returns ``(K, state_dim)``."""
        k = batch_size if batch_size is not None else self.batch_size
        check_positive("batch_size", k)
        self._states = self.dataset.sample_states(k, self._rng).copy()
        self._steps_in_rollout = 0
        return self._states.copy()

    def step(
        self, allocations: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, bool]:
        """Apply one ``(K, action_dim)`` allocation block to all rollouts.

        Returns ``(next_states, rewards, done)`` where ``rewards`` has
        shape ``(K,)`` and ``done`` applies to the whole batch.
        """
        if self._states is None:
            raise RuntimeError("call reset() before step()")
        allocations = np.asarray(allocations, dtype=np.float64)
        if allocations.shape != (self._states.shape[0], self.action_dim):
            raise ValueError(
                f"allocation batch shape {allocations.shape} != "
                f"({self._states.shape[0]}, {self.action_dim})"
            )
        if np.any(allocations.sum(axis=1) > self.consumer_budget + 1e-9):
            raise ValueError(
                f"allocation exceeds budget {self.consumer_budget}"
            )
        next_states = np.maximum(
            np.asarray(self.model.predict_batch(self._states, allocations)),
            0.0,
        )
        rewards = reward_eq1(next_states)
        self._states = next_states
        self._steps_in_rollout += 1
        self.total_steps += next_states.shape[0]
        done = self._steps_in_rollout >= self.rollout_length
        return next_states.copy(), rewards, done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchedModelEnv(K={self.batch_size}, "
            f"budget={self.consumer_budget}, "
            f"rollout={self.rollout_length}, steps={self.total_steps})"
        )
