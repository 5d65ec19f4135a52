"""Regression loss for the environment model and the DDPG critic."""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["MeanSquaredError"]


class MeanSquaredError:
    """Mean squared error — the paper's environment-model objective (Eq. 2).

    ``__call__`` returns ``(loss_value, grad_wrt_prediction)``: the mean
    loss over the batch and its gradient.
    """

    def __call__(
        self, prediction: np.ndarray, target: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        if prediction.shape != target.shape:
            raise ValueError(
                f"prediction shape {prediction.shape} != target shape {target.shape}"
            )
        diff = prediction - target
        loss = float((diff * diff).mean())
        grad = 2.0 * diff / diff.size
        return loss, grad
