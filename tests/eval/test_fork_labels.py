"""Fork-label hygiene in the experiment drivers.

The path-qualified labels introduced for R101 (``fig5/train`` instead of
``train``, ``actor/net`` instead of ``net``) are *name-only*: labels
never feed :class:`numpy.random.SeedSequence` entropy — children derive
from spawn order — so the renames must leave published numbers intact.
These tests pin both halves: same-seed runs are bit-identical, and the
labels in play are unique per parent (what the sanitizer asserts live).
"""

import numpy as np

from repro.eval.experiments import experiment_fig5_model_accuracy
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.utils.rng import RngStream

from tests.sanitizer import sanitized

FAST = dict(
    dataset="msd", collect_steps=24, test_steps=8,
    action_hold=2, model_epochs=2,
)


class TestSameSeedRegression:
    def test_fig5_is_bit_identical_across_runs(self):
        first = experiment_fig5_model_accuracy(seed=7, **FAST)
        second = experiment_fig5_model_accuracy(seed=7, **FAST)
        for attr in (
            "ground_truth_reward", "fixed_reward", "iterative_reward",
            "ground_truth_w0", "fixed_w0", "iterative_w0",
        ):
            assert np.array_equal(getattr(first, attr), getattr(second, attr))

    def test_label_text_does_not_feed_entropy(self):
        """The R101 renames were numerically inert by construction."""
        seed = np.random.SeedSequence(123)
        draws_a = RngStream("r", seed).fork("net").normal(size=32)
        draws_b = RngStream("r", np.random.SeedSequence(123)).fork(
            "actor/net"
        ).normal(size=32)
        assert np.array_equal(draws_a, draws_b)


class TestLabelsAreUniquePerParent:
    def test_fig5_runs_clean_under_sanitizer(self):
        with sanitized() as state:
            experiment_fig5_model_accuracy(seed=3, **FAST)
        assert state.violations == 0
        # The renamed labels are in play, path-qualified.
        names = set(state.fork_names)
        assert any(n.endswith("fig5/train") for n in names)
        assert any(n.endswith("fig5/model") for n in names)
        assert any(n.endswith("fig5/test") for n in names)
        # No stream name was minted twice.
        assert all(count == 1 for count in state.fork_names.values())

    def test_ddpg_perturbation_labels_are_indexed(self):
        with sanitized() as state:
            agent = DDPGAgent(
                3, 2,
                DDPGConfig(hidden_sizes=(8,), batch_size=4),
                rng=RngStream("ddpg", np.random.SeedSequence(0)),
            )
            agent.refresh_perturbation()
            agent.refresh_perturbation()  # episode boundary: fresh label
        assert state.violations == 0
        assert "ddpg/perturb0" in state.fork_names
        assert "ddpg/perturb1" in state.fork_names

    def test_actor_and_critic_no_longer_collide(self):
        with sanitized() as state:
            DDPGAgent(
                3, 2,
                DDPGConfig(hidden_sizes=(8,)),
                rng=RngStream("agent", np.random.SeedSequence(1)),
            )
        assert state.violations == 0
        # Path-qualified: actor and critic sub-networks no longer share
        # the bare label "net" (the pre-rename R101 collision).
        assert "agent/actor/actor/net" in state.fork_names
        assert "agent/critic/critic/net" in state.fork_names
