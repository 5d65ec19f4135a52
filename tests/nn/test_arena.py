"""The flat parameter arena: views, aliasing, and bitwise-equal steps."""

import copy
import pickle

import numpy as np
import pytest

from repro.nn import MLP, Adam, MeanSquaredError, load_mlp, save_mlp, soft_update
from repro.utils.rng import spawn_rngs

from tests.rl.reference_ddpg import (
    RefAdam,
    RefMLP,
    full_backward_input_gradient,
    ref_soft_update,
)


def make_net(label="arena", aux=True):
    return MLP(
        [5, 12, 9, 2],
        aux_dim=3 if aux else 0,
        aux_layer=1,
        rng=spawn_rngs(17, [label])[label],
    )


def assert_layers_are_arena_views(net):
    offset = 0
    for layer in net.layers:
        for array, arena in (
            (layer.weights, net.params),
            (layer.bias, net.params),
            (layer.grad_weights, net.grads),
            (layer.grad_bias, net.grads),
        ):
            assert np.shares_memory(array, arena)
        size = layer.weights.size
        assert layer.weights.tobytes() == net.params[offset : offset + size].tobytes()
        offset += size + layer.bias.size
    assert offset == net.num_params == net.params.size


class TestLayout:
    def test_flat_order_is_w0_b0_w1_b1(self):
        net = make_net()
        expected = np.concatenate(
            [
                np.concatenate([layer.weights.ravel(), layer.bias.ravel()])
                for layer in net.layers
            ]
        )
        assert net.get_flat().tobytes() == expected.tobytes()
        assert net.segment_bounds[-1] == net.num_params
        assert len(net.segment_bounds) == 2 * len(net.layers) + 1
        assert_layers_are_arena_views(net)

    def test_get_flat_is_a_copy(self):
        net = make_net()
        flat = net.get_flat()
        flat += 1.0
        assert not np.shares_memory(flat, net.params)
        assert net.get_flat().tobytes() != flat.tobytes()

    def test_writes_keep_views(self, tmp_path):
        net, other = make_net(), make_net("other")
        net.set_flat(other.get_flat())
        assert_layers_are_arena_views(net)
        assert net.get_flat().tobytes() == other.get_flat().tobytes()

        net.load_state_dict(make_net("third").state_dict())
        assert_layers_are_arena_views(net)
        assert net.get_flat().tobytes() == make_net("third").get_flat().tobytes()

        loaded = load_mlp(save_mlp(tmp_path / "net", other))
        assert_layers_are_arena_views(loaded)
        assert loaded.get_flat().tobytes() == other.get_flat().tobytes()

    def test_backward_writes_into_the_gradient_arena(self):
        net = make_net()
        rng = np.random.default_rng(0)
        out = net.forward(rng.normal(size=(6, 5)), rng.normal(size=(6, 3)))
        net.backward(np.ones_like(out))
        assert_layers_are_arena_views(net)
        assert np.count_nonzero(net.grads)

    @pytest.mark.parametrize(
        "duplicate",
        [
            lambda net: net.clone(),
            copy.deepcopy,
            lambda net: pickle.loads(pickle.dumps(net)),
        ],
        ids=["clone", "deepcopy", "pickle"],
    )
    def test_copies_own_their_arena(self, duplicate):
        net = make_net()
        twin = duplicate(net)
        assert_layers_are_arena_views(twin)
        assert twin.get_flat().tobytes() == net.get_flat().tobytes()
        assert not np.shares_memory(twin.params, net.params)
        assert not np.shares_memory(twin.grads, net.grads)
        before = net.get_flat()
        twin.params[...] = 0.0
        twin.layers[0].weights[...] = 7.0
        assert net.get_flat().tobytes() == before.tobytes()


class TestInputGradient:
    @pytest.mark.parametrize("wrt", ["aux", "input"])
    def test_equals_full_backward_and_spares_weight_gradients(self, wrt):
        net, twin = make_net(), make_net()
        rng = np.random.default_rng(1)
        x, aux = rng.normal(size=(8, 5)), rng.normal(size=(8, 3))
        # Leave a recognisable gradient in the arena first.
        net.backward(np.ones_like(net.forward(x + 1.0, aux)))
        kept = net.grads.copy()

        fast = net.input_gradient(x, aux=aux, wrt=wrt)
        full = full_backward_input_gradient(twin, x, aux, wrt)

        assert fast.tobytes() == full.tobytes()
        assert net.grads.tobytes() == kept.tobytes()
        assert net.output.tobytes() == twin.output.tobytes()

    def test_projected_output(self):
        net, twin = make_net(aux=False), make_net(aux=False)
        rng = np.random.default_rng(2)
        # A two-output net: the input gradient is that of the row sum.
        x = rng.normal(size=(4, 5))
        expected, _ = twin.backward(np.ones_like(twin.forward(x)))
        assert net.input_gradient(x).tobytes() == expected.tobytes()


class TestOptimizerSteps:
    """Arena entry vs list-of-arrays vs the historical allocating form."""

    CASES = [
        ("adam", dict(learning_rate=3e-3), 0.0),
        ("adam", dict(learning_rate=3e-3), 1.0),
        ("adam", dict(learning_rate=3e-3, weight_decay=1e-2), 0.05),
    ]

    @pytest.mark.parametrize("kind,kwargs,clip", CASES)
    def test_bitwise_agreement(self, kind, kwargs, clip):
        production, reference = {"adam": (Adam, RefAdam)}[kind]
        net = make_net()
        listed = RefMLP(net)  # same weights as separate arrays
        historical = RefMLP(net)
        on_arena = production(grad_clip=clip, **kwargs)
        on_list = production(grad_clip=clip, **kwargs)
        allocating = reference(grad_clip=clip, **kwargs)

        rng = np.random.default_rng(3)
        clipped_steps = 0
        for step in range(12):
            x, aux = rng.normal(size=(8, 5)), rng.normal(size=(8, 3))
            # Alternate large and tiny gradients so clipping switches.
            seed_grad = rng.normal(size=(8, 2)) * (10.0 if step % 2 else 1e-3)
            for model in (net, listed, historical):
                model.forward(x, aux)
                model.backward(seed_grad)
            norm = float(np.sqrt(np.sum(net.grads * net.grads)))
            clipped_steps += bool(clip) and norm > clip
            on_arena.step(net.params_and_grads())
            on_list.step(listed.params_and_grads())
            allocating.step(historical.params_and_grads())
            assert net.get_flat().tobytes() == listed.get_flat().tobytes()
            assert net.get_flat().tobytes() == historical.get_flat().tobytes()
        if clip:
            assert 0 < clipped_steps < 12

    def test_gradients_are_not_modified_by_clipping(self):
        net = make_net()
        rng = np.random.default_rng(4)
        out = net.forward(rng.normal(size=(8, 5)), rng.normal(size=(8, 3)))
        net.backward(100.0 * np.ones_like(out))
        before = net.grads.copy()
        Adam(grad_clip=1.0).step(net.params_and_grads())
        assert net.grads.tobytes() == before.tobytes()

    def test_state_dict_round_trip_continues_bitwise(self):
        net, twin = make_net(aux=False), make_net(aux=False)
        rng = np.random.default_rng(5)
        first, second = Adam(grad_clip=1.0), Adam(grad_clip=1.0)
        mse = MeanSquaredError()
        batches = [(rng.normal(size=(8, 5)), rng.normal(size=(8, 2))) for _ in range(6)]
        for x, y in batches[:3]:
            net.train_batch(x, y, optimizer=first, loss=mse)
            twin.train_batch(x, y, optimizer=second, loss=mse)
        restored = Adam(grad_clip=1.0)
        restored.load_state_dict(second.state_dict())
        assert restored.iterations == 3
        for x, y in batches[3:]:
            net.train_batch(x, y, optimizer=first, loss=mse)
            twin.train_batch(x, y, optimizer=restored, loss=mse)
        assert net.get_flat().tobytes() == twin.get_flat().tobytes()

    def test_state_dict_is_a_copy(self):
        net = make_net(aux=False)
        optimizer = Adam()
        rng = np.random.default_rng(6)
        net.train_batch(
            rng.normal(size=(4, 5)),
            rng.normal(size=(4, 2)),
            optimizer=optimizer,
            loss=MeanSquaredError(),
        )
        state = optimizer.state_dict()
        assert set(state) == {"iterations", "0/m", "0/v"}
        assert state["0/m"].shape == (net.num_params,)
        state["0/m"] += 1.0
        assert optimizer.state_dict()["0/m"].tobytes() != state["0/m"].tobytes()


class TestSoftUpdate:
    @pytest.mark.parametrize("tau", [0.01, 0.5, 1.0])
    def test_in_place_blend_equals_copy_based(self, tau):
        source, target = make_net("source"), make_net("target")
        ref_source, ref_target = RefMLP(source), RefMLP(target)
        arena = target.params
        for _ in range(5):
            soft_update(target, source, tau)
            ref_soft_update(ref_target, ref_source, tau)
            assert target.get_flat().tobytes() == ref_target.get_flat().tobytes()
        assert target.params is arena
        assert_layers_are_arena_views(target)
