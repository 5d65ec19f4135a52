"""Tests for MLP save/load."""

import json

import numpy as np
import pytest

from repro.nn import MLP
from repro.nn.serialization import _META_KEY, load_mlp, save_mlp
from repro.utils.rng import RngStream


@pytest.fixture
def ser_rng():
    return RngStream("ser", np.random.SeedSequence(4))


class TestRoundtrip:
    def test_plain_network(self, tmp_path, ser_rng):
        net = MLP([3, 16, 2], rng=ser_rng)
        path = save_mlp(tmp_path / "net", net)
        loaded = load_mlp(path)
        x = ser_rng.normal(size=(5, 3))
        assert np.allclose(loaded.forward(x), net.forward(x))

    def test_softmax_network(self, tmp_path, ser_rng):
        net = MLP(
            [4, 8, 4], output_activation="softmax", rng=ser_rng
        )
        loaded = load_mlp(save_mlp(tmp_path / "actor", net))
        assert loaded.output_activation == "softmax"
        x = ser_rng.uniform(size=(3, 4))
        assert np.allclose(loaded.forward(x), net.forward(x))

    def test_aux_network(self, tmp_path, ser_rng):
        net = MLP([4, 8, 1], aux_dim=2, aux_layer=1, rng=ser_rng)
        loaded = load_mlp(save_mlp(tmp_path / "critic", net))
        x = ser_rng.normal(size=(3, 4))
        aux = ser_rng.normal(size=(3, 2))
        assert np.allclose(loaded.forward(x, aux), net.forward(x, aux))

    def test_npz_suffix_added(self, tmp_path, ser_rng):
        net = MLP([2, 4, 1], rng=ser_rng)
        path = save_mlp(tmp_path / "model", net)
        assert path.suffix == ".npz"
        assert path.exists()

    def test_non_mlp_archive_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(ValueError, match="not a saved MLP"):
            load_mlp(path)


class TestHiddenActivationKey:
    """Archives from before every hidden layer was ReLU carry the key."""

    def rewrite_meta(self, path, **extra):
        with np.load(path) as archive:
            arrays = dict(archive)
        meta = json.loads(arrays[_META_KEY].tobytes().decode("utf-8"))
        meta.update(extra)
        arrays[_META_KEY] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(path, **arrays)

    def test_save_writes_no_hidden_activation(self, tmp_path, ser_rng):
        path = save_mlp(tmp_path / "net", MLP([2, 4, 1], rng=ser_rng))
        with np.load(path) as archive:
            meta = json.loads(archive[_META_KEY].tobytes().decode("utf-8"))
        assert "hidden_activation" not in meta

    def test_relu_archive_loads(self, tmp_path, ser_rng):
        net = MLP([3, 8, 2], rng=ser_rng)
        path = save_mlp(tmp_path / "old", net)
        self.rewrite_meta(path, hidden_activation="relu")
        x = ser_rng.normal(size=(4, 3))
        assert load_mlp(path).forward(x).tobytes() == net.forward(x).tobytes()

    def test_other_activation_rejected_by_name(self, tmp_path, ser_rng):
        path = save_mlp(tmp_path / "old", MLP([3, 8, 2], rng=ser_rng))
        self.rewrite_meta(path, hidden_activation="tanh")
        with pytest.raises(ValueError, match="'tanh'"):
            load_mlp(path)
