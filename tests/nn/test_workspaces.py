"""Hidden-layer workspaces: an MLP's hidden layers compute in buffers they
own, so these tests pin that nothing a caller holds ever points into
one, that reusing them changes no byte, and that copies leave them
behind."""

import copy
import pickle

import numpy as np
import pytest

from repro.nn import MLP, soft_update
from repro.utils.rng import spawn_rngs

from tests.rl.reference_ddpg import RefMLP


def make_critic(width=16, label="critic"):
    """The critic's shape: action injected at the second layer."""
    return MLP(
        [4, width, width, 1],
        aux_dim=4,
        aux_layer=1,
        rng=spawn_rngs(11, [label])[label],
        final_init="small_uniform",
    )


def make_actor(width=16, label="actor"):
    return MLP(
        [4, width, width, 4],
        output_activation="softmax",
        rng=spawn_rngs(12, [label])[label],
        final_init="small_uniform",
    )


def layer_arrays(net):
    """Every ndarray a network's layers hold, workspaces included."""
    arrays = []
    for layer in net.layers:
        for value in vars(layer).values():
            if isinstance(value, np.ndarray):
                arrays.append(value)
        arrays.extend((layer._workspaces or {}).values())
    return arrays


class TestNoEscape:
    @pytest.mark.parametrize("output_activation", ["softmax", "linear"])
    def test_outputs_survive_later_forwards_at_other_row_counts(
        self, output_activation
    ):
        net = MLP(
            [4, 16, 16, 3],
            output_activation=output_activation,
            rng=spawn_rngs(13, ["net"])["net"],
        )
        oracle = RefMLP(net)
        rng = np.random.default_rng(0)
        held = []
        for rows in (1, 64, 1, 64, 1):
            x = rng.normal(size=(rows, 4))
            out = net.forward(x)
            assert out.tobytes() == oracle.forward(x).tobytes()
            held.append((out, out.copy()))
            for kept, snapshot in held:
                assert kept.tobytes() == snapshot.tobytes()

    def test_alternating_row_counts_reuse_the_same_buffers(self):
        net = make_actor()
        rng = np.random.default_rng(1)
        net.forward(rng.normal(size=(1, 4)))
        net.forward(rng.normal(size=(64, 4)))
        hidden = net.layers[0]
        stacks = dict(hidden._workspaces)
        assert sorted(stacks) == [1, 64]
        for rows in (1, 64, 1, 64):
            net.forward(rng.normal(size=(rows, 4)))
            assert hidden._workspaces[rows] is stacks[rows]
            assert np.shares_memory(hidden._y, stacks[rows])
        # The last layer's output is returned, so it never has a workspace.
        assert net.layers[-1]._workspaces is None
        assert not any(
            np.shares_memory(net.output, stack) for stack in stacks.values()
        )

    def test_critic_update_order_matches_fresh_networks(self):
        """forward -> backward -> forward -> input_gradient on one network,
        each result byte-equal to the same call on a fresh copy."""
        net = make_critic(width=32)
        pristine = net.clone()
        rng = np.random.default_rng(2)
        x, a, x2, a2 = (rng.normal(size=(64, 4)) for _ in range(4))
        g = rng.normal(size=(64, 1))

        q = net.forward(x, aux=a)
        q_bytes = q.tobytes()
        grad_x, grad_a = net.backward(g)
        grads = net.grads.copy()
        q2 = net.forward(x2, aux=a2)
        dq_da = net.input_gradient(x2, aux=a2, wrt="aux")

        fresh = pristine.clone()
        assert fresh.forward(x, aux=a).tobytes() == q_bytes
        fresh_x, fresh_a = fresh.backward(g)
        assert fresh_x.tobytes() == grad_x.tobytes()
        assert fresh_a.tobytes() == grad_a.tobytes()
        assert fresh.grads.tobytes() == grads.tobytes()
        assert pristine.clone().forward(x2, aux=a2).tobytes() == q2.tobytes()
        fresh_dq_da = pristine.clone().input_gradient(x2, aux=a2, wrt="aux")
        assert fresh_dq_da.tobytes() == dq_da.tobytes()
        oracle = RefMLP(pristine)
        assert oracle.forward(x, aux=a).tobytes() == q_bytes
        assert oracle.backward(g)[1].tobytes() == grad_a.tobytes()

        # What was handed out earlier is untouched and owns its memory.
        assert q.tobytes() == q_bytes
        for held in (q, q2, grad_x, grad_a, dq_da):
            for array in layer_arrays(net):
                assert not np.shares_memory(held, array)


class TestCopiesLeaveScratchBehind:
    @pytest.mark.parametrize(
        "duplicate",
        [
            lambda net: net.clone(),
            copy.deepcopy,
            lambda net: pickle.loads(pickle.dumps(net)),
        ],
        ids=["clone", "deepcopy", "pickle"],
    )
    def test_copy_after_forward_is_bare(self, duplicate):
        net = make_critic()
        rng = np.random.default_rng(3)
        for rows in (1, 64):
            x, a = rng.normal(size=(rows, 4)), rng.normal(size=(rows, 4))
            out = net.forward(x, aux=a)
        net.backward(np.ones_like(out))
        twin = duplicate(net)
        assert twin.output is None
        for layer in twin.layers:
            assert layer._x is layer._z is layer._y is layer._concat_buf is None
            assert not layer._workspaces
        ours = layer_arrays(net) + [net.params, net.grads]
        for mine in layer_arrays(twin) + [twin.params, twin.grads]:
            assert not any(np.shares_memory(mine, other) for other in ours)
        # A bare copy computes the same bytes.
        x, a = rng.normal(size=(8, 4)), rng.normal(size=(8, 4))
        assert twin.forward(x, aux=a).tobytes() == net.forward(x, aux=a).tobytes()

    def test_pickle_size_does_not_grow_with_use(self):
        net = make_critic(width=128)
        before = len(pickle.dumps(net))
        rng = np.random.default_rng(4)
        x, a = rng.normal(size=(64, 4)), rng.normal(size=(64, 4))
        net.backward(np.ones_like(net.forward(x, aux=a)))
        net.input_gradient(x + 1.0, aux=a, wrt="aux")
        assert len(pickle.dumps(net)) == before

    def test_soft_update_scratch_is_not_copied(self):
        target, source = make_actor(label="target"), make_actor(label="source")
        soft_update(target, source, 0.5)
        assert target._polyak is not None
        assert target.clone()._polyak is None
