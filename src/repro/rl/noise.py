"""Exploration noise: action-space and parameter-space.

The paper's key exploration choice (Section IV-D): "Directly imposing
exploration noise to the output action actually performs poorly in our
system ... actions added by exploration noise often violate our constraints
on total number of consumers, leading to invalid exploration.  Our approach
... is to use parameter space noise in exploration [Plappert et al.]
instead of action space noise."

Both kinds are implemented here (i.i.d. Gaussian on the action, adaptive
Gaussian on the weights) so the ablation bench can reproduce the
comparison.  :func:`project_to_simplex` is the repair step an action-noise
agent must apply to make its noisy action executable at all — the
"invalid exploration" the paper describes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.rng import RngStream
from repro.utils.validation import check_positive

__all__ = [
    "GaussianActionNoise",
    "AdaptiveParameterNoise",
    "project_to_simplex",
    "repair_action_noise",
]

#: Adaptive scaling (Plappert et al., Section 3): each adaptation
#: multiplies or divides sigma by ``PARAM_NOISE_ADAPT`` so the clean vs
#: perturbed action distance tracks ``PARAM_NOISE_DELTA``.  The method
#: leaves both to the user; these are this reproduction's calibration.
PARAM_NOISE_DELTA = 0.05
PARAM_NOISE_ADAPT = 1.05
#: Clamp on the adapted sigma, so a run of one-sided distances can neither
#: switch exploration off nor blow the weights up.
PARAM_NOISE_MIN_SIGMA = 1e-4
PARAM_NOISE_MAX_SIGMA = 10.0


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
    noise: GaussianActionNoise,
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


class AdaptiveParameterNoise:
    """Adaptive-scale Gaussian noise on policy *weights* (Plappert et al.).

    The perturbation scale ``sigma`` is adapted so the induced action-space
    distance between the clean and the perturbed policy tracks the target
    :data:`PARAM_NOISE_DELTA`: too-close means exploration is too timid
    (grow sigma), too-far means it is erratic (shrink sigma).
    """

    def __init__(self, initial_sigma: float = 0.05):
        check_positive("initial_sigma", initial_sigma)
        self.sigma = initial_sigma

    def perturb(self, flat_params: np.ndarray, rng: RngStream) -> np.ndarray:
        """Return a noisy copy of a flat parameter vector."""
        flat_params = np.asarray(flat_params, dtype=np.float64)
        return flat_params + rng.normal(0.0, self.sigma, size=flat_params.shape)

    def adapt(self, action_distance: float) -> float:
        """Update sigma from the measured clean-vs-perturbed action distance.

        Returns the new sigma.  Distance below the target delta grows
        sigma; above shrinks it (Plappert et al., Eq. 4).
        """
        if action_distance < 0:
            raise ValueError(f"distance must be >= 0, got {action_distance!r}")
        if action_distance < PARAM_NOISE_DELTA:
            self.sigma *= PARAM_NOISE_ADAPT
        else:
            self.sigma /= PARAM_NOISE_ADAPT
        self.sigma = float(
            np.clip(self.sigma, PARAM_NOISE_MIN_SIGMA, PARAM_NOISE_MAX_SIGMA)
        )
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
            f"delta={PARAM_NOISE_DELTA})"
        )
