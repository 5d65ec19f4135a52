"""The DDPG update as it ran before the flat-arena, single-pass rewrite.

Kept in ``tests/`` as the reference the production step is held to, byte
for byte: per-layer parameter arrays, an Adam that allocates every
temporary, a copy-based ``soft_update``, a full backward for dQ/da, an
actor step that forwards again, and two more forwards for ``mean_q``.

:class:`ReferenceDDPGAgent` is a real :class:`DDPGAgent` (so acting,
exploration, replay and every RNG draw are the production code) whose
``update`` runs the historical arithmetic on :class:`RefMLP` mirrors and
then copies the learnt weights back into the production networks.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.nn import MLP, optimizers
from repro.rl.ddpg import METRIC_INTERVAL, TAU, DDPGAgent
from repro.utils.validation import isclose_zero


class RefReLU:
    """The hidden activation as a separate object, as it was then."""

    def forward(self, z):
        return np.maximum(z, 0.0)

    def backward(self, grad_y, z, y):
        return grad_y * (z > 0.0)


class RefDense:
    def __init__(self, layer):
        self.in_dim = layer.in_dim
        self.aux_dim = layer.aux_dim
        self.activation = layer.activation or RefReLU()
        self.weights = layer.weights.copy()
        self.bias = layer.bias.copy()
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)

    def forward(self, x, aux=None):
        if self.aux_dim:
            x = np.concatenate([x, aux], axis=1)
        self._x = x
        self._z = x @ self.weights + self.bias
        self._y = self.activation.forward(self._z)
        return self._y

    def backward(self, grad_y):
        grad_z = self.activation.backward(grad_y, self._z, self._y)
        self.grad_weights = self._x.T @ grad_z
        self.grad_bias = grad_z.sum(axis=0)
        grad_x_full = grad_z @ self.weights.T
        if self.aux_dim:
            return grad_x_full[:, : self.in_dim], grad_x_full[:, self.in_dim :]
        return grad_x_full, None


class RefMLP:
    """Per-layer-array twin of an :class:`MLP` (same weights at birth)."""

    def __init__(self, network: MLP):
        self.aux_layer = network.aux_layer
        self.layers = [RefDense(layer) for layer in network.layers]

    def forward(self, x, aux=None):
        h = np.atleast_2d(np.asarray(x, dtype=np.float64))
        for i, layer in enumerate(self.layers):
            h = layer.forward(h, aux if i == self.aux_layer else None)
        return h

    def backward(self, grad_out):
        grad, grad_aux = grad_out, None
        for layer in reversed(self.layers):
            grad, layer_grad_aux = layer.backward(grad)
            if layer_grad_aux is not None:
                grad_aux = layer_grad_aux
        return grad, grad_aux

    def input_gradient(self, x, aux=None, wrt="input"):
        out = self.forward(x, aux)
        grad_x, grad_aux = self.backward(np.ones_like(out))
        return grad_x if wrt == "input" else grad_aux

    def params_and_grads(self):
        pairs = []
        for layer in self.layers:
            pairs.append((layer.weights, layer.grad_weights))
            pairs.append((layer.bias, layer.grad_bias))
        return pairs

    def get_flat(self):
        return np.concatenate(
            [
                np.concatenate([layer.weights.ravel(), layer.bias.ravel()])
                for layer in self.layers
            ]
        )

    def set_flat(self, flat):
        offset = 0
        for layer in self.layers:
            for name in ("weights", "bias"):
                old = getattr(layer, name)
                chunk = flat[offset : offset + old.size]
                setattr(layer, name, chunk.reshape(old.shape).copy())
                offset += old.size


def ref_soft_update(target: RefMLP, source: RefMLP, tau: float) -> None:
    blended = tau * source.get_flat() + (1.0 - tau) * target.get_flat()
    target.set_flat(blended)


class RefAdam:
    """Allocating Adam over a list of (param, grad) arrays, global-norm
    clipped — the optimiser every network used."""

    def __init__(
        self,
        learning_rate,
        beta1=0.9,
        beta2=0.999,
        epsilon=1e-8,
        grad_clip=0.0,
        weight_decay=0.0,
    ):
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.grad_clip = grad_clip
        self.weight_decay = weight_decay
        self.iterations = 0
        self._state = {}

    @classmethod
    def like(cls, adam) -> "RefAdam":
        return cls(
            adam.learning_rate,
            optimizers.BETA1,
            optimizers.BETA2,
            optimizers.EPSILON,
            adam.grad_clip,
            adam.weight_decay,
        )

    def _clip(self, params_and_grads):
        total = np.sqrt(sum(float(np.sum(g * g)) for _, g in params_and_grads))
        if total <= self.grad_clip or isclose_zero(total):
            return params_and_grads
        scale = self.grad_clip / total
        return [(p, g * scale) for p, g in params_and_grads]

    def step(self, params_and_grads):
        self.iterations += 1
        if self.grad_clip:
            params_and_grads = self._clip(params_and_grads)
        for index, (param, grad) in enumerate(params_and_grads):
            state = self._state.setdefault(
                index, {"m": np.zeros_like(param), "v": np.zeros_like(param)}
            )
            m, v = state["m"], state["v"]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / (1.0 - self.beta1**self.iterations)
            v_hat = v / (1.0 - self.beta2**self.iterations)
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
            if self.weight_decay:
                param -= self.learning_rate * self.weight_decay * param


class ReferenceDDPGAgent(DDPGAgent):
    """Production agent around the historical update arithmetic."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ref_actor = RefMLP(self.actor.network)
        self.ref_actor_target = RefMLP(self.actor.target_network)
        self.ref_critic = RefMLP(self.critic.network)
        self.ref_critic_target = RefMLP(self.critic.target_network)
        self.ref_actor_opt = RefAdam.like(self.actor.optimizer)
        self.ref_critic_opt = RefAdam.like(self.critic.optimizer)

    def networks(self) -> List[Tuple[MLP, RefMLP]]:
        return [
            (self.actor.network, self.ref_actor),
            (self.actor.target_network, self.ref_actor_target),
            (self.critic.network, self.ref_critic),
            (self.critic.target_network, self.ref_critic_target),
        ]

    def _policy(self, network: RefMLP, states) -> np.ndarray:
        return self.actor._mix(network.forward(self.actor.normalize(states)))

    def _q(self, network: RefMLP, states, actions) -> np.ndarray:
        q = network.forward(self.critic.normalize_states(states), aux=actions)
        return q * self.critic.reward_scale

    def update(self) -> Tuple[float, float]:
        cfg = self.config
        actor, critic = self.actor, self.critic
        batch = self.replay.sample(cfg.batch_size, self.rng)
        states = batch["states"]
        actions = batch["actions"]
        rewards = batch["rewards"]
        next_states = batch["next_states"]

        next_actions = self._policy(self.ref_actor_target, next_states)
        next_q = self._q(self.ref_critic_target, next_states, next_actions)
        targets = rewards + cfg.gamma * next_q

        scaled = np.atleast_2d(targets) / critic.reward_scale
        prediction = self.ref_critic.forward(
            critic.normalize_states(states), aux=actions
        )
        critic_loss, grad = critic.loss(prediction, scaled)
        self.ref_critic.backward(grad)
        self.ref_critic_opt.step(self.ref_critic.params_and_grads())

        policy_actions = self._policy(self.ref_actor, states)
        dq_da = self.ref_critic.input_gradient(
            critic.normalize_states(states), aux=policy_actions, wrt="aux"
        )
        if cfg.entropy_weight:
            entropy_grad = -(np.log(policy_actions + 1e-8) + 1.0)
            dq_da = dq_da + cfg.entropy_weight * entropy_grad
        self.ref_actor.forward(actor.normalize(states))
        scale = (1.0 - actor.output_mixing) / states.shape[0]
        self.ref_actor.backward(-dq_da * scale)
        self.ref_actor_opt.step(self.ref_actor.params_and_grads())
        mean_q = float(
            np.mean(
                self._q(
                    self.ref_critic, states, self._policy(self.ref_actor, states)
                )
            )
        )

        ref_soft_update(self.ref_actor_target, self.ref_actor, TAU)
        ref_soft_update(self.ref_critic_target, self.ref_critic, TAU)
        # Acting and perturbation run on the production networks.
        for network, reference in self.networks():
            network.set_flat(reference.get_flat())

        self.updates_done += 1
        if self.tracer.enabled and self.updates_done % METRIC_INTERVAL == 0:
            self.tracer.metric(
                "ddpg/critic_loss", critic_loss, step=self.updates_done
            )
            self.tracer.metric("ddpg/mean_q", mean_q, step=self.updates_done)
            self.tracer.metric(
                "ddpg/param_noise_sigma",
                self.param_noise.sigma,
                step=self.updates_done,
            )
        return critic_loss, mean_q


def full_backward_input_gradient(
    network: MLP, x, aux: Optional[np.ndarray], wrt: str
) -> np.ndarray:
    """``input_gradient`` the historical way: forward, then a *full*
    backward whose parameter gradients are thrown away."""
    out = network.forward(x, aux)
    grad_x, grad_aux = network.backward(np.ones_like(out))
    return grad_x if wrt == "input" else grad_aux
