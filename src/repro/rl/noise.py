"""Exploration noise: action-space and parameter-space.

The paper's key exploration choice (Section IV-D): "Directly imposing
exploration noise to the output action actually performs poorly in our
system ... actions added by exploration noise often violate our constraints
on total number of consumers, leading to invalid exploration.  Our approach
... is to use parameter space noise in exploration [Plappert et al.]
instead of action space noise."

Both kinds are implemented here so the ablation bench can reproduce the
comparison.  :func:`project_to_simplex` is the repair step an action-noise
agent must apply to make its noisy action executable at all — the
"invalid exploration" the paper describes.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.utils.rng import RngStream
from repro.utils.validation import check_positive

__all__ = [
    "GaussianActionNoise",
    "OrnsteinUhlenbeckNoise",
    "AdaptiveParameterNoise",
    "project_to_simplex",
    "repair_action_noise",
]


def project_to_simplex(vectors: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean projection of a ``(K, dim)`` block onto the
    probability simplex.

    Algorithm of Duchi et al. (2008).  Used to repair constraint-violating
    noisy actions so the system can still execute them.  Every row is
    projected on its own, so row ``k`` does not depend on the others.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError(f"expected a (K, dim) block, got shape {vectors.shape}")
    if not np.all(np.isfinite(vectors)):
        raise ValueError(f"cannot project non-finite vectors: {vectors}")
    sorted_desc = np.sort(vectors, axis=1)[:, ::-1]
    cumulative = np.cumsum(sorted_desc, axis=1) - 1.0
    indices = np.arange(1, vectors.shape[1] + 1)
    candidates = sorted_desc - cumulative / indices
    # The last positive candidate (0 if rounding left none: the largest
    # coordinate then carries all the mass).
    rho = np.max(np.where(candidates > 0, indices - 1, 0), axis=1)
    theta = cumulative[np.arange(vectors.shape[0]), rho] / (rho + 1.0)
    return np.maximum(vectors - theta[:, np.newaxis], 0.0)


def repair_action_noise(
    clean: np.ndarray,
    noise: Union[GaussianActionNoise, OrnsteinUhlenbeckNoise],
    rng: RngStream,
) -> Tuple[np.ndarray, int]:
    """Action-space exploration: perturb a ``(K, dim)`` block of actions,
    count the rows that left the simplex, and project those back.

    Returns ``(actions, violations)`` — the violations are the paper's
    "invalid exploration".
    """
    noisy = clean + noise.sample(clean.shape[0], clean.shape[1], rng)
    bad = np.nonzero(
        np.any(noisy < 0, axis=1) | (np.abs(noisy.sum(axis=1) - 1.0) > 1e-6)
    )[0]
    if bad.size:
        noisy[bad] = project_to_simplex(noisy[bad])
    return noisy, int(bad.size)


class GaussianActionNoise:
    """I.i.d. Gaussian noise added to the action (the naive baseline)."""

    def __init__(self, sigma: float = 0.1):
        check_positive("sigma", sigma)
        self.sigma = sigma

    def sample(self, batch: int, action_dim: int, rng: RngStream) -> np.ndarray:
        """I.i.d. noise for K rollouts in one draw; ``(K, action_dim)``.

        numpy draws ``size=(1, d)`` and ``size=d`` identically, so a batch
        of one consumes the bit generator like a single action's draw.
        """
        check_positive("batch", batch)
        return rng.normal(0.0, self.sigma, size=(batch, action_dim))

    def reset(self) -> None:
        """No state to reset; present for interface symmetry."""


class OrnsteinUhlenbeckNoise:
    """Temporally correlated OU noise — classic DDPG exploration."""

    def __init__(
        self,
        action_dim: int,
        theta: float = 0.15,
        sigma: float = 0.2,
        dt: float = 1.0,
    ):
        check_positive("action_dim", action_dim)
        check_positive("theta", theta)
        check_positive("sigma", sigma)
        check_positive("dt", dt)
        self.action_dim = action_dim
        self.theta = theta
        self.sigma = sigma
        self.dt = dt
        self._state = np.zeros(action_dim)

    def sample(self, batch: int, action_dim: int, rng: RngStream) -> np.ndarray:
        """The next step of the process as a ``(1, action_dim)`` block.

        The OU process is a *temporal* correlation over one rollout's
        steps; K parallel rollouts sharing one OU state would correlate
        across rollouts instead, so only a batch of one is defined.
        """
        check_positive("batch", batch)
        if batch != 1:
            raise ValueError(
                "OrnsteinUhlenbeckNoise is temporally correlated per "
                "rollout and cannot drive a rollout batch; use "
                "rollout_batch=1 or gaussian/parameter exploration"
            )
        if action_dim != self.action_dim:
            raise ValueError(
                f"noise built for dim {self.action_dim}, asked for {action_dim}"
            )
        drift = -self.theta * self._state * self.dt
        diffusion = self.sigma * np.sqrt(self.dt) * rng.normal(
            size=self.action_dim
        )
        self._state = self._state + drift + diffusion
        return self._state[np.newaxis].copy()

    def reset(self) -> None:
        self._state = np.zeros(self.action_dim)


class AdaptiveParameterNoise:
    """Adaptive-scale Gaussian noise on policy *weights* (Plappert et al.).

    The perturbation scale ``sigma`` is adapted so the induced action-space
    distance between the clean and the perturbed policy tracks a target
    ``delta``: too-close means exploration is too timid (grow sigma),
    too-far means it is erratic (shrink sigma).
    """

    def __init__(
        self,
        initial_sigma: float = 0.05,
        delta: float = 0.05,
        adapt_coefficient: float = 1.05,
        min_sigma: float = 1e-4,
        max_sigma: float = 10.0,
    ):
        check_positive("initial_sigma", initial_sigma)
        check_positive("delta", delta)
        if adapt_coefficient <= 1.0:
            raise ValueError(
                f"adapt_coefficient must exceed 1, got {adapt_coefficient!r}"
            )
        if not 0 < min_sigma <= max_sigma:
            raise ValueError(
                f"need 0 < min_sigma <= max_sigma, got {min_sigma}, {max_sigma}"
            )
        self.sigma = initial_sigma
        self.delta = delta
        self.adapt_coefficient = adapt_coefficient
        self.min_sigma = min_sigma
        self.max_sigma = max_sigma

    def perturb(self, flat_params: np.ndarray, rng: RngStream) -> np.ndarray:
        """Return a noisy copy of a flat parameter vector."""
        flat_params = np.asarray(flat_params, dtype=np.float64)
        return flat_params + rng.normal(0.0, self.sigma, size=flat_params.shape)

    def adapt(self, action_distance: float) -> float:
        """Update sigma from the measured clean-vs-perturbed action distance.

        Returns the new sigma.  Distance below ``delta`` grows sigma;
        above shrinks it (Plappert et al., Eq. 4).
        """
        if action_distance < 0:
            raise ValueError(f"distance must be >= 0, got {action_distance!r}")
        if action_distance < self.delta:
            self.sigma *= self.adapt_coefficient
        else:
            self.sigma /= self.adapt_coefficient
        self.sigma = float(np.clip(self.sigma, self.min_sigma, self.max_sigma))
        return self.sigma

    @staticmethod
    def action_distance(clean: np.ndarray, perturbed: np.ndarray) -> float:
        """Mean Euclidean distance between two batches of actions."""
        clean = np.atleast_2d(clean)
        perturbed = np.atleast_2d(perturbed)
        if clean.shape != perturbed.shape:
            raise ValueError(
                f"shape mismatch: {clean.shape} vs {perturbed.shape}"
            )
        return float(np.mean(np.linalg.norm(clean - perturbed, axis=1)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdaptiveParameterNoise(sigma={self.sigma:.4g}, "
            f"delta={self.delta})"
        )
