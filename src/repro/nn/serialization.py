"""Save/load MLPs as ``.npz`` archives.

The archive stores the architecture (layer sizes, activations, auxiliary
input config) alongside every layer's weights and biases, so a saved
network can be reconstructed without any other context.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.nn.network import MLP
from repro.utils.rng import RngStream

__all__ = ["save_mlp", "load_mlp"]

_META_KEY = "__meta__"


def save_mlp(path: Union[str, Path], network: MLP) -> Path:
    """Write ``network`` to ``path`` (``.npz`` appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    meta = {
        "layer_sizes": network.layer_sizes,
        "hidden_activation": network.hidden_activation,
        "output_activation": network.output_activation,
        "aux_dim": network.aux_dim,
        "aux_layer": network.aux_layer if network.aux_dim else 1,
    }
    arrays = {
        _META_KEY: np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
    }
    for i, layer in enumerate(network.layers):
        arrays[f"layer{i}/weights"] = layer.weights
        arrays[f"layer{i}/bias"] = layer.bias
    np.savez(path, **arrays)
    return path


def load_mlp(path: Union[str, Path]) -> MLP:
    """Reconstruct an MLP written by :func:`save_mlp`."""
    path = Path(path)
    with np.load(path) as archive:
        if _META_KEY not in archive:
            raise ValueError(f"{path} is not a saved MLP (missing metadata)")
        meta = json.loads(bytes(archive[_META_KEY].tobytes()).decode("utf-8"))
        network = MLP(
            meta["layer_sizes"],
            hidden_activation=meta["hidden_activation"],
            output_activation=meta["output_activation"],
            aux_dim=meta["aux_dim"],
            aux_layer=meta["aux_layer"],
            # Initial weights are discarded below, so a fixed init seed
            # is fine here and the loaded network stays deterministic.
            rng=RngStream(  # reprolint: disable=D201
                "load-mlp", np.random.SeedSequence(0)
            ),
        )
        for i, layer in enumerate(network.layers):
            weights = archive[f"layer{i}/weights"]
            bias = archive[f"layer{i}/bias"]
            if weights.shape != layer.weights.shape:
                raise ValueError(
                    f"layer {i} weight shape mismatch in {path}: "
                    f"{weights.shape} vs {layer.weights.shape}"
                )
            layer.weights[...] = weights
            layer.bias[...] = bias
    return network
