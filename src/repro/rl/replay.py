"""Experience replay buffer."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.utils.rng import RngStream
from repro.utils.validation import check_positive

__all__ = ["ReplayBuffer"]


class ReplayBuffer:
    """Fixed-capacity ring buffer of (s, a, r, s') transitions.

    Storage is preallocated numpy, so sampling a batch is a single fancy
    index — important because DDPG samples every update step.
    """

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        check_positive("capacity", capacity)
        check_positive("state_dim", state_dim)
        check_positive("action_dim", action_dim)
        self.capacity = capacity
        self.state_dim = state_dim
        self.action_dim = action_dim
        self._states = np.zeros((capacity, state_dim), dtype=np.float64)
        self._actions = np.zeros((capacity, action_dim), dtype=np.float64)
        self._rewards = np.zeros((capacity, 1), dtype=np.float64)
        self._next_states = np.zeros((capacity, state_dim), dtype=np.float64)
        self._size = 0
        self._cursor = 0
        self.total_added = 0

    def add_batch(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
    ) -> None:
        """Store ``n`` transitions, evicting the oldest when full (FIFO).

        One shape check and at most two wraparound-aware slice writes
        per array, so the synthetic-rollout engine feeds a whole
        ``(K, dim)`` step in one call; a single transition is a block of
        one row.
        """
        states = np.asarray(states, dtype=np.float64)
        actions = np.asarray(actions, dtype=np.float64)
        rewards = np.asarray(rewards, dtype=np.float64).reshape(-1)
        next_states = np.asarray(next_states, dtype=np.float64)
        n = states.shape[0] if states.ndim == 2 else -1
        if states.shape != (n, self.state_dim):
            raise ValueError(
                f"states shape {states.shape} != (n, {self.state_dim})"
            )
        if actions.shape != (n, self.action_dim):
            raise ValueError(
                f"actions shape {actions.shape} != ({n}, {self.action_dim})"
            )
        if rewards.shape != (n,):
            raise ValueError(f"rewards shape {rewards.shape} != ({n},)")
        if next_states.shape != (n, self.state_dim):
            raise ValueError(
                f"next_states shape {next_states.shape} != "
                f"({n}, {self.state_dim})"
            )
        if n == 0:
            return
        start = self._cursor
        if n > self.capacity:
            # Row by row, the first n - capacity rows would be overwritten;
            # only the tail survives, landing after an advanced cursor.
            start = (start + n - self.capacity) % self.capacity
            states = states[-self.capacity :]
            actions = actions[-self.capacity :]
            rewards = rewards[-self.capacity :]
            next_states = next_states[-self.capacity :]
        first = min(states.shape[0], self.capacity - start)
        for dest, src in (
            (self._states, states),
            (self._actions, actions),
            (self._rewards, rewards[:, np.newaxis]),
            (self._next_states, next_states),
        ):
            dest[start : start + first] = src[:first]
            if first < src.shape[0]:
                dest[: src.shape[0] - first] = src[first:]
        self._cursor = (self._cursor + n) % self.capacity
        self._size = min(self._size + n, self.capacity)
        self.total_added += n

    def sample(self, batch_size: int, rng: RngStream) -> Dict[str, np.ndarray]:
        """Uniformly sample a batch (with replacement when undersized)."""
        if self._size == 0:
            raise RuntimeError("cannot sample from an empty replay buffer")
        check_positive("batch_size", batch_size)
        replace = batch_size > self._size
        idx = rng.choice(self._size, size=batch_size, replace=replace)
        # Fancy indexing already returns fresh arrays, never views.
        return {
            "states": self._states[idx],
            "actions": self._actions[idx],
            "rewards": self._rewards[idx],
            "next_states": self._next_states[idx],
        }

    def sample_states(self, batch_size: int, rng: RngStream) -> np.ndarray:
        """States only — used for parameter-noise distance adaptation."""
        return self.sample(batch_size, rng)["states"]

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Checkpointable snapshot: contents plus ring-buffer state.

        Captures the *physical* first ``size`` rows (for a full buffer
        that is the whole ring, mid-wraparound cursor included), so
        :meth:`load_state_dict` restores a buffer whose future eviction
        order, sampling population, and ``total_added`` are bit-exact —
        the warm-restart contract of ``repro.core.persistence``.  Rows
        beyond ``size`` are never sampled and never read before being
        overwritten, so they need not be saved.
        """
        return {
            "states": self._states[: self._size].copy(),
            "actions": self._actions[: self._size].copy(),
            "rewards": self._rewards[: self._size].copy(),
            "next_states": self._next_states[: self._size].copy(),
            "cursor": np.int64(self._cursor),
            "size": np.int64(self._size),
            "total_added": np.int64(self.total_added),
        }

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore a :meth:`state_dict` snapshot bit-exactly."""
        size = int(state["size"])
        cursor = int(state["cursor"])
        if not 0 <= size <= self.capacity:
            raise ValueError(
                f"snapshot size {size} exceeds capacity {self.capacity}"
            )
        if not 0 <= cursor < self.capacity or (
            size < self.capacity and cursor != size
        ):
            raise ValueError(
                f"snapshot cursor {cursor} inconsistent with size {size} "
                f"and capacity {self.capacity}"
            )
        states = np.asarray(state["states"], dtype=np.float64)
        actions = np.asarray(state["actions"], dtype=np.float64)
        rewards = np.asarray(state["rewards"], dtype=np.float64)
        next_states = np.asarray(state["next_states"], dtype=np.float64)
        if states.shape != (size, self.state_dim):
            raise ValueError(
                f"snapshot states shape {states.shape} != "
                f"({size}, {self.state_dim})"
            )
        if actions.shape != (size, self.action_dim):
            raise ValueError(
                f"snapshot actions shape {actions.shape} != "
                f"({size}, {self.action_dim})"
            )
        if rewards.shape != (size, 1):
            raise ValueError(
                f"snapshot rewards shape {rewards.shape} != ({size}, 1)"
            )
        if next_states.shape != (size, self.state_dim):
            raise ValueError(
                f"snapshot next_states shape {next_states.shape} != "
                f"({size}, {self.state_dim})"
            )
        self._states[:size] = states
        self._actions[:size] = actions
        self._rewards[:size] = rewards
        self._next_states[:size] = next_states
        self._size = size
        self._cursor = cursor
        self.total_added = int(state["total_added"])

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReplayBuffer(size={self._size}/{self.capacity})"
