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

import numpy as np

from repro.utils.batchpairs import batched_pair
from repro.utils.rng import RngStream
from repro.utils.validation import check_positive

__all__ = [
    "GaussianActionNoise",
    "OrnsteinUhlenbeckNoise",
    "AdaptiveParameterNoise",
    "project_to_simplex",
    "project_to_simplex_batch",
]


def project_to_simplex(vector: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    Algorithm of Duchi et al. (2008).  Used to repair constraint-violating
    noisy actions so the system can still execute them.
    """
    vector = np.asarray(vector, dtype=np.float64)
    if vector.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {vector.shape}")
    sorted_desc = np.sort(vector)[::-1]
    cumulative = np.cumsum(sorted_desc) - 1.0
    indices = np.arange(1, vector.size + 1)
    candidates = sorted_desc - cumulative / indices
    rho = np.nonzero(candidates > 0)[0][-1]
    theta = cumulative[rho] / (rho + 1.0)
    return np.maximum(vector - theta, 0.0)


@batched_pair("project_to_simplex")
def project_to_simplex_batch(vectors: np.ndarray) -> np.ndarray:
    """Row-wise :func:`project_to_simplex` for a ``(K, dim)`` batch.

    Applies the scalar projection per row (violating rows are rare, so
    this is not a hot path) — each row is bit-identical to the serial
    repair an unbatched agent would perform.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError(f"expected a 2-D batch, got shape {vectors.shape}")
    if vectors.shape[0] == 0:
        return vectors.copy()
    return np.stack([project_to_simplex(row) for row in vectors])


class GaussianActionNoise:
    """I.i.d. Gaussian noise added to the action (the naive baseline)."""

    def __init__(self, sigma: float = 0.1):
        check_positive("sigma", sigma)
        self.sigma = sigma

    def sample(self, action_dim: int, rng: RngStream) -> np.ndarray:
        return rng.normal(0.0, self.sigma, size=action_dim)

    @batched_pair("sample")
    def sample_batch(
        self, batch: int, action_dim: int, rng: RngStream
    ) -> np.ndarray:
        """I.i.d. noise for K rollouts in one draw; ``(K, action_dim)``.

        For ``batch=1`` this consumes the bit generator exactly like
        :meth:`sample` (numpy draws ``size=(1, d)`` and ``size=d``
        identically), so batched K=1 exploration matches serial.
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

    def sample(self, action_dim: int, rng: RngStream) -> np.ndarray:
        if action_dim != self.action_dim:
            raise ValueError(
                f"noise built for dim {self.action_dim}, asked for {action_dim}"
            )
        drift = -self.theta * self._state * self.dt
        diffusion = self.sigma * np.sqrt(self.dt) * rng.normal(
            size=self.action_dim
        )
        self._state = self._state + drift + diffusion
        return self._state.copy()

    @batched_pair("sample")
    def sample_batch(
        self, batch: int, action_dim: int, rng: RngStream
    ) -> np.ndarray:
        """Batched sampling is only defined for a single rollout.

        The OU process is a *temporal* correlation over one rollout's
        steps; K parallel rollouts sharing one OU state would correlate
        across rollouts instead.  ``batch=1`` delegates to :meth:`sample`
        (preserving serial bit-identity); larger batches are an error.
        """
        check_positive("batch", batch)
        if batch != 1:
            raise ValueError(
                "OrnsteinUhlenbeckNoise is temporally correlated per "
                "rollout and cannot drive a rollout batch; use "
                "rollout_batch=1 or gaussian/parameter exploration"
            )
        return self.sample(action_dim, rng)[np.newaxis]

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
