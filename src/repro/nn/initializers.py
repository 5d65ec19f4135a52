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


#: Bound of :func:`uniform_init`: DDPG's final-layer range (Lillicrap et
#: al., Section 7: uniform in [-3e-3, 3e-3]).
SMALL_UNIFORM_LIMIT = 3e-3


def uniform_init(fan_in: int, fan_out: int, rng: RngStream) -> np.ndarray:
    """Small uniform initialisation.

    DDPG conventionally initialises the final actor/critic layers with small
    uniform weights so the initial policy output is near-uniform and initial
    Q estimates are near zero.
    """
    return rng.uniform(
        -SMALL_UNIFORM_LIMIT, SMALL_UNIFORM_LIMIT, size=(fan_in, fan_out)
    )


#: What :func:`constant_init` fills with: zero biases, the usual default
#: beside Glorot/He weights.
FILL_VALUE = 0.0


def constant_init(fan_in: int, fan_out: int) -> np.ndarray:
    """Constant :data:`FILL_VALUE` initialisation (used for biases)."""
    return np.full((fan_in, fan_out), FILL_VALUE, dtype=np.float64)
