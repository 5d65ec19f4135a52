"""From-scratch numpy neural-network substrate.

The paper trains three kinds of small multilayer perceptrons with
TensorFlow: the environment (performance) model, the DDPG actor, and the
DDPG critic.  This package re-implements everything those networks need —
dense layers, activations, losses, optimisers, backpropagation, gradients
with respect to *inputs* (required by the deterministic policy gradient),
flattened parameter vectors (required by parameter-space exploration noise),
and soft target-network updates.
"""

from repro.nn.activations import (
    Activation,
    Linear,
    Softmax,
    get_activation,
)
from repro.nn.initializers import (
    constant_init,
    glorot_uniform,
    he_uniform,
    uniform_init,
)
from repro.nn.layers import Dense
from repro.nn.losses import MeanSquaredError
from repro.nn.network import MLP, soft_update
from repro.nn.optimizers import Adam

__all__ = [
    "Activation",
    "Softmax",
    "Linear",
    "get_activation",
    "Dense",
    "MeanSquaredError",
    "Adam",
    "MLP",
    "soft_update",
    "glorot_uniform",
    "he_uniform",
    "uniform_init",
    "constant_init",
]
