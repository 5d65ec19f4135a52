"""Golden pin: fixed-seed training must reproduce the recorded bytes.

The digest below was recorded from the commit *before* the single-pass
DDPG update landed (per-layer parameter arrays, allocating Adam,
copy-based ``soft_update``).  Every later change to ``repro.nn`` /
``repro.rl`` that claims to be a pure optimisation must leave it
unchanged: one moved ulp in any actor, critic or target weight, or in an
evaluation reward, changes the hash.

PR 18 changed behaviour on purpose: the reset drain stops once nothing
is waiting instead of at WIP exactly 0, so the windows the agent's env
sees after each reset are different ones.  The pre-change digest is
still asserted, with the historical drain
(:mod:`tests.sim.reference_drain`) patched back in — nothing but the
drain moved — next to the digest recorded with the drain as it is now.
"""

import hashlib
from dataclasses import replace

import numpy as np

from repro.core.agent import MirasAgent
from repro.core.config import MirasConfig
from repro.sim.system import MicroserviceWorkflowSystem

from tests.conftest import make_msd_env
from tests.sim.reference_drain import reference_drain

#: Recorded before PR 12; reproduced under the drain-to-zero reset.
REFERENCE_DRAIN_SHA256 = "d775560697a7b129d3358109bf1327e26043c7e8e5d3e1397653e60d7f38aff6"
#: Recorded from PR 18 (parent d1b520f): resets stop when nothing waits.
GOLDEN_SHA256 = "aee67b2dbc2072010a2d8daad38507beb1a0df2e3a12195c013617e19748955b"


def golden_digest() -> str:
    """sha256 over the four DDPG parameter vectors and the eval rewards."""
    base = MirasConfig.msd_fast()
    config = replace(
        base,
        iterations=2,
        steps_per_iteration=40,
        eval_steps=5,
        policy=replace(base.policy, rollouts_per_iteration=3, patience=3),
    )
    agent = MirasAgent(make_msd_env(seed=5), config, seed=6)
    agent.iterate()
    digest = hashlib.sha256()
    for network in (
        agent.ddpg.actor.network,
        agent.ddpg.actor.target_network,
        agent.ddpg.critic.network,
        agent.ddpg.critic.target_network,
    ):
        digest.update(network.get_flat().tobytes())
    rewards = np.array([r.eval_reward for r in agent.results], dtype=np.float64)
    digest.update(rewards.tobytes())
    return digest.hexdigest()


def test_fixed_seed_training_matches_recorded_bytes():
    assert golden_digest() == GOLDEN_SHA256


def test_fixed_seed_training_matches_pre_change_bytes_under_reference_drain(
    monkeypatch,
):
    monkeypatch.setattr(MicroserviceWorkflowSystem, "drain", reference_drain)
    assert golden_digest() == REFERENCE_DRAIN_SHA256
