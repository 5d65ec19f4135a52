"""Weight initialisers for dense layers."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RngStream

__all__ = ["glorot_uniform", "he_uniform", "uniform_init", "constant_init"]


def glorot_uniform(fan_in: int, fan_out: int, rng: RngStream) -> np.ndarray:
    """Glorot/Xavier uniform initialisation — good default for softmax."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def he_uniform(fan_in: int, fan_out: int, rng: RngStream) -> np.ndarray:
    """He uniform initialisation — default for ReLU layers."""
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def uniform_init(
    fan_in: int, fan_out: int, rng: RngStream, limit: float = 3e-3
) -> np.ndarray:
    """Small uniform initialisation.

    DDPG conventionally initialises the final actor/critic layers with small
    uniform weights so the initial policy output is near-uniform and initial
    Q estimates are near zero.
    """
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def constant_init(fan_in: int, fan_out: int, value: float = 0.0) -> np.ndarray:
    """Constant initialisation (used for biases)."""
    return np.full((fan_in, fan_out), value, dtype=np.float64)
