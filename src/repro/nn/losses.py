"""Regression losses for the environment model and the DDPG critic."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Tuple

import numpy as np

__all__ = ["Loss", "MeanSquaredError"]


class Loss(ABC):
    """Base class: ``__call__`` returns ``(loss_value, grad_wrt_prediction)``."""

    name = "loss"

    @abstractmethod
    def __call__(
        self, prediction: np.ndarray, target: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Return mean loss over the batch and its gradient."""

    def _check(self, prediction: np.ndarray, target: np.ndarray) -> None:
        if prediction.shape != target.shape:
            raise ValueError(
                f"prediction shape {prediction.shape} != target shape {target.shape}"
            )


class MeanSquaredError(Loss):
    """Mean squared error — the paper's environment-model objective (Eq. 2)."""

    name = "mse"

    def __call__(self, prediction, target):
        self._check(prediction, target)
        diff = prediction - target
        loss = float(np.mean(diff * diff))
        grad = 2.0 * diff / diff.size
        return loss, grad

