"""Sample-efficiency experiment: MIRAS vs model-free DDPG per interaction.

The paper's core argument (Sections I, III): model-based RL reaches a good
policy with far fewer *real-environment* interactions, because synthetic
model rollouts multiply each real sample.  The evaluation shows this
indirectly (model-free DDPG fails at the shared interaction budget of
Figs. 7–8); this experiment measures it directly as a learning curve —
policy quality as a function of real interactions consumed — which is the
natural extension plot for the paper's claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.agent import MirasAgent
from repro.core.config import MirasConfig
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.sim.env import MicroserviceEnv, allocation_from_simplex
from repro.utils.rng import RngStream

__all__ = ["SampleEfficiencyResult", "sample_efficiency_curves"]


@dataclass
class SampleEfficiencyResult:
    """Learning curves keyed by agent name.

    ``curves[name]`` is a list of (real_interactions, eval_reward) points.
    ``reset_windows[name]`` runs parallel to it: the real windows the
    agent's environment had spent draining in ``reset()`` by the time
    that checkpoint's interactions were collected (the evaluation
    episodes run on the same system, so clearing up after one is charged
    to the next slice).
    """

    curves: Dict[str, List[tuple]] = field(default_factory=dict)
    reset_windows: Dict[str, List[int]] = field(default_factory=dict)

    def interactions(self, name: str) -> List[int]:
        return [point[0] for point in self.curves[name]]

    def real_windows(self, name: str) -> List[int]:
        """Real windows consumed per checkpoint: interactions + resets."""
        return [
            steps + resets
            for steps, resets in zip(
                self.interactions(name), self.reset_windows[name]
            )
        ]

    def rewards(self, name: str) -> List[float]:
        return [point[1] for point in self.curves[name]]

def _evaluate_greedy(
    env: MicroserviceEnv,
    act_greedy,
    steps: int,
    burst_scale: float,
) -> float:
    """Aggregated reward of a greedy policy over one burst episode."""
    env.reset()
    state = env.inject_even_burst(burst_scale)
    total = 0.0
    for _ in range(steps):
        simplex = act_greedy(state)
        allocation = allocation_from_simplex(
            simplex[np.newaxis], env.consumer_budget
        )[0]
        state, reward, _ = env.step(allocation)
        total += reward
    return total


def sample_efficiency_curves(
    env_factory,
    config: MirasConfig,
    checkpoints: int = 4,
    eval_steps: int = 20,
    eval_burst_scale: float = 10.0,
    seed: int = 0,
) -> SampleEfficiencyResult:
    """Learning curves for MIRAS and vanilla model-free DDPG.

    ``env_factory(seed)`` builds a fresh environment.  Both agents are
    evaluated after each of ``checkpoints`` equal slices of the total real
    -interaction budget (``config.steps_per_iteration * config.iterations``),
    on an identical burst episode.
    """
    if checkpoints < 1:
        raise ValueError(f"checkpoints must be >= 1, got {checkpoints}")
    result = SampleEfficiencyResult(
        curves={"miras": [], "modelfree": []},
        reset_windows={"miras": [], "modelfree": []},
    )
    total_budget = config.steps_per_iteration * config.iterations
    slice_size = max(1, total_budget // checkpoints)

    # --- MIRAS: one Algorithm-2 iteration per checkpoint slice ----------
    miras_env = env_factory(seed)
    agent = MirasAgent(miras_env, config, seed=seed)
    consumed = 0
    for checkpoint in range(checkpoints):
        agent.collect_real_interactions(
            slice_size, random_fraction=1.0 if checkpoint == 0 else 0.0
        )
        consumed += slice_size
        result.reset_windows["miras"].append(miras_env.reset_windows)
        agent.train_model()
        agent.train_policy()
        reward = _evaluate_greedy(
            miras_env, agent.ddpg.act_greedy, eval_steps, eval_burst_scale
        )
        result.curves["miras"].append((consumed, reward))

    # --- Vanilla model-free DDPG (action-space noise) ---------------------
    mf_env = env_factory(seed + 1)
    vanilla = DDPGConfig(
        hidden_sizes=config.policy.ddpg.hidden_sizes,
        batch_size=config.policy.ddpg.batch_size,
        gamma=config.policy.ddpg.gamma,
        exploration="action-gaussian",
        entropy_weight=0.0,
    )
    mf_agent = DDPGAgent(
        mf_env.state_dim,
        mf_env.action_dim,
        config=vanilla,
        rng=RngStream("mf", np.random.SeedSequence(seed + 1)),
    )
    consumed = 0
    state = mf_env.reset()
    for checkpoint in range(checkpoints):
        for step in range(slice_size):
            if step > 0 and step % config.reset_interval == 0:
                state = mf_env.reset()
            simplex = mf_agent.act(state, explore=True)
            executed = allocation_from_simplex(
                simplex[np.newaxis], mf_env.consumer_budget
            )[0]
            next_state, reward, _ = mf_env.step(executed)
            mf_agent.store(
                state, executed / mf_env.consumer_budget, reward, next_state
            )
            if len(mf_agent.replay) >= vanilla.batch_size:
                mf_agent.update()
            state = next_state
        consumed += slice_size
        result.reset_windows["modelfree"].append(mf_env.reset_windows)
        reward = _evaluate_greedy(
            mf_env, mf_agent.act_greedy, eval_steps, eval_burst_scale
        )
        result.curves["modelfree"].append((consumed, reward))
        state = mf_env.reset()
    return result
