"""Activation functions with forward and backward passes.

Every activation implements ``forward(z) -> y`` and
``backward(grad_y, z, y) -> grad_z``.  The backward pass receives both the
pre-activation ``z`` and the cached output ``y`` so that each activation can
use whichever is cheaper (e.g. softmax only needs ``y``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "Activation",
    "ReLU",
    "Softmax",
    "Linear",
    "get_activation",
]


class Activation(ABC):
    """Base class for activation functions."""

    name = "activation"

    @abstractmethod
    def forward(self, z: np.ndarray) -> np.ndarray:
        """Apply the non-linearity elementwise (or rowwise for softmax)."""

    @abstractmethod
    def backward(
        self, grad_y: np.ndarray, z: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Chain ``grad_y = dL/dy`` back to ``dL/dz``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class ReLU(Activation):
    """Rectified linear unit — the paper's stated hidden activation."""

    name = "relu"

    def forward(self, z: np.ndarray) -> np.ndarray:
        return np.maximum(z, 0.0)

    def backward(self, grad_y, z, y):
        return grad_y * (z > 0.0)


class Softmax(Activation):
    """Row-wise softmax.

    The MIRAS actor ends in a softmax so its output is a categorical
    distribution over task types; the allocation is then
    ``m_j = floor(C * a_j)`` which automatically satisfies the consumer
    budget (Section IV-D of the paper).
    """

    name = "softmax"

    def forward(self, z: np.ndarray) -> np.ndarray:
        shifted = z - np.max(z, axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / np.sum(exp, axis=-1, keepdims=True)

    def backward(self, grad_y, z, y):
        # Jacobian-vector product: dz_i = y_i * (g_i - sum_j g_j y_j)
        dot = np.sum(grad_y * y, axis=-1, keepdims=True)
        return y * (grad_y - dot)


class Linear(Activation):
    """Identity activation (used for regression output layers)."""

    name = "linear"

    def forward(self, z: np.ndarray) -> np.ndarray:
        return z

    def backward(self, grad_y, z, y):
        return grad_y


_REGISTRY = {
    cls.name: cls for cls in (ReLU, Softmax, Linear)
}


def get_activation(name: str) -> Activation:
    """Look up an activation by name (``relu``, ``softmax``, ``linear``)."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown activation {name!r}; known: {known}") from None
