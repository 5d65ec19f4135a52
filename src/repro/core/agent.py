"""The MIRAS agent: iterative model-based RL (Algorithm 2).

    Initialize mu_Theta, f_Phi, and D
    repeat
        Collect interactions with real environment using mu_Theta, add to D
        Train environment model f_Phi using D
        repeat
            Collect synthetic samples from refined f_Phi
            Update policy mu_Theta using parameter-noise DDPG
        until performance of the policy stops improving
    until the policy performs well in real environment

Action bookkeeping: the actor emits a point on the simplex; the executed
allocation is ``m = floor(C * a)``.  The dataset D stores the *executed*
integer allocation (that is what the real dynamics responded to, and what
the environment model must learn), while the DDPG replay stores ``m / C``
so critic and actor operate on a consistent simplex-scaled action space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import MirasConfig
from repro.core.dataset import TransitionDataset
from repro.core.environment_model import EnvironmentModel
from repro.core.model_env import BatchedModelEnv
from repro.core.refinement import RefinedModel
from repro.rl.ddpg import DDPGAgent
from repro.rl.distributed import (
    DistributedCollector,
    EnvSpec,
    TransitionBlock,
    episode_plan,
    policy_payload,
)
from repro.sim.env import MicroserviceEnv, allocation_from_simplex
from repro.utils.pool import resolve_workers
from repro.utils.rng import spawn_rngs

__all__ = ["MirasAgent", "IterationResult"]

#: At each collection reset, probability of injecting a random request
#: burst so the dataset covers the high-WIP regime the evaluation bursts
#: (Section VI-D) will visit.  The paper trains against a live system
#: whose workload already spans load levels; the emulated background
#: Poisson alone leaves WIP low, so this restores coverage.
COLLECT_BURST_PROBABILITY = 0.3
#: Burst size cap in units of the consumer budget C (total requests drawn
#: uniformly from [0, scale * C], split randomly across types).
COLLECT_BURST_SCALE = 20.0


@dataclass
class IterationResult:
    """Diagnostics for one outer iteration of Algorithm 2."""

    iteration: int
    dataset_size: int
    model_loss: float
    policy_rollouts: int
    policy_mean_return: float
    #: Aggregated reward over the real-environment evaluation (Fig. 6's
    #: vertical axis).
    eval_reward: float
    eval_mean_wip: float
    eval_mean_response_time: float


class MirasAgent:
    """Owns the dataset, the environment model, and the DDPG policy."""

    def __init__(
        self,
        env: MicroserviceEnv,
        config: Optional[MirasConfig] = None,
        seed: int = 0,
        env_spec: Optional[EnvSpec] = None,
    ):
        self.env = env
        self.config = config or MirasConfig()
        #: Picklable recipe for environment replicas; required by the
        #: distributed collection modes (repro.rl.distributed), which
        #: build one fresh environment per episode per worker.
        self.env_spec = env_spec
        self.seed = seed
        #: Global episode counter across outer iterations — episode
        #: indices (and hence the label-derived seed streams) never
        #: repeat between iterations.
        self._episodes_collected = 0
        #: Telemetry tracer: the environment's system tracer, so a traced
        #: system automatically gets training-loop scalars too.
        self.tracer = env.system.tracer
        self._rngs = spawn_rngs(
            seed, ["collect", "model", "refine", "model-env", "ddpg"]
        )
        self.dataset = TransitionDataset(env.state_dim, env.action_dim)
        self.model = EnvironmentModel(
            env.state_dim,
            env.action_dim,
            hidden_sizes=self.config.model.hidden_sizes,
            rng=self._rngs["model"],
            tracer=self.tracer,
        )
        self.ddpg = DDPGAgent(
            env.state_dim,
            env.action_dim,
            config=self.config.policy.ddpg,
            rng=self._rngs["ddpg"],
            tracer=self.tracer,
        )
        self.refined_model: Optional[RefinedModel] = None
        self.results: List[IterationResult] = []

    # --- Phase 1: real-environment data collection -----------------------
    def _simplex_to_executed(self, simplex: np.ndarray) -> np.ndarray:
        return allocation_from_simplex(
            simplex[np.newaxis], self.env.consumer_budget
        )[0]

    def collect_real_interactions(
        self, steps: int, random_fraction: float = 0.0
    ) -> int:
        """Run the (exploring) policy on the real system; grow D.

        Every ``config.reset_interval`` steps the environment is drained
        (the paper's reset).  ``random_fraction`` of the steps use uniform
        Dirichlet actions instead of the policy — iteration 0 has no useful
        policy yet.  Returns the number of transitions added.
        """
        if steps <= 0:
            raise ValueError(f"steps must be positive, got {steps}")
        rng = self._rngs["collect"].fork(f"steps-{len(self.dataset)}")
        self.env.reset()
        state = self.env.inject_random_burst(
            rng, COLLECT_BURST_PROBABILITY, COLLECT_BURST_SCALE
        )
        added = 0
        # Transitions are buffered and bulk-inserted via store_batch.  The
        # replay buffer is only *read* during collection when an exploring
        # act() is about to refresh its perturbation (parameter-noise
        # adaptation samples replayed states), so flushing right before
        # that point keeps the buffer state those reads observe — and the
        # final buffer contents — identical to per-step add() calls.
        pending: List[tuple] = []

        def flush() -> None:
            if not pending:
                return
            states, actions, rewards, next_states = zip(*pending)
            pending.clear()
            self.ddpg.store_batch(
                np.stack(states),
                np.stack(actions),
                np.asarray(rewards, dtype=np.float64),
                np.stack(next_states),
            )

        for step in range(steps):
            if step > 0 and step % self.config.reset_interval == 0:
                self.env.reset()
                state = self.env.inject_random_burst(
                    rng, COLLECT_BURST_PROBABILITY, COLLECT_BURST_SCALE
                )
                flush()
                self.ddpg.refresh_perturbation()
            if float(rng.uniform()) < random_fraction:
                simplex = rng.generator.dirichlet(np.ones(self.env.action_dim))
            else:
                if self.ddpg.refresh_due():
                    flush()
                simplex = self.ddpg.act(state, explore=True)
            executed = self._simplex_to_executed(simplex)
            next_state, reward, _ = self.env.step(executed)
            self.dataset.add(state, executed.astype(np.float64), next_state)
            pending.append(
                (state, executed / self.env.consumer_budget, reward, next_state)
            )
            state = next_state
            added += 1
        flush()
        return added

    def collect_distributed(
        self, steps: int, random_fraction: float = 0.0
    ) -> int:
        """Distributed actor/learner collection (repro.rl.distributed).

        Slices ``steps`` into the fixed logical-interleave episode
        schedule, runs the episodes on zero worker processes for
        ``logical`` mode (all in this process) or, for ``physical``, on
        ``policy.collect_workers`` worker processes plus this process,
        which runs a share of the episodes itself, and ingests the merged
        transition blocks in episode order — dataset rows, replay via
        ``store_batch``, and one ``span.collect`` trace record per
        episode.  The merged result is byte-identical for any worker count
        and either mode; see docs/PERFORMANCE.md for the determinism
        contract.

        Unlike the serial collector, exploration runs against a frozen
        snapshot of the actor (one parameter-space perturbation per
        episode, no sigma adaptation mid-collection): workers never read
        the learner's replay buffer.  Returns the transitions added.
        """
        if steps <= 0:
            raise ValueError(f"steps must be positive, got {steps}")
        if self.env_spec is None:
            raise RuntimeError(
                "distributed collection needs an env_spec (a picklable "
                "'module:callable' environment recipe); construct the "
                "agent with env_spec=EnvSpec.make(...) or use "
                "collect_mode='serial'"
            )
        cfg = self.config
        policy = cfg.policy
        physical = policy.collect_mode == "physical"
        collector = DistributedCollector(
            self.env_spec,
            workers=resolve_workers(policy.collect_workers) if physical else 0,
            burst_probability=COLLECT_BURST_PROBABILITY,
            burst_scale=COLLECT_BURST_SCALE,
        )
        plan = episode_plan(
            steps,
            cfg.reset_interval,
            policy.collect_lanes,
            self.seed,
            first_episode=self._episodes_collected,
        )
        added = 0

        def ingest(block: TransitionBlock) -> None:
            nonlocal added
            for row in range(block.steps):
                self.dataset.add(
                    block.states[row],
                    block.executed[row].astype(np.float64),
                    block.next_states[row],
                )
            self.ddpg.store_batch(
                block.states,
                block.executed / self.env.consumer_budget,
                block.rewards,
                block.next_states,
            )
            if self.tracer.enabled:
                self.tracer.write({
                    "kind": "span.collect", "t": None,
                    "lane": block.lane,
                    "episode": block.episode,
                    "steps": block.steps,
                    "reward": block.episode_return,
                    "sim_time": block.sim_time_end,
                })
            added += block.steps

        collector.collect(
            policy_payload(self.ddpg),
            plan,
            random_fraction=random_fraction,
            on_block=ingest,
        )
        self._episodes_collected += len(plan)
        return added

    # --- Phase 2: model training --------------------------------------------
    def train_model(self) -> float:
        """Fit f̂_Φ on D (Eq. 2) and rebuild the refined model.

        Returns the final-epoch training loss.
        """
        history = self.model.fit(self.dataset, epochs=self.config.model.epochs)
        self.refined_model = RefinedModel.from_dataset(
            self.model,
            self.dataset,
            rng=self._rngs["refine"].fork(f"n{len(self.dataset)}"),
            tracer=self.tracer,
        )
        return history[-1]

    # --- Phase 3: policy training on the model -----------------------------
    def build_batched_model_env(self) -> BatchedModelEnv:
        """The vectorised synthetic environment (K parallel rollouts)."""
        if self.refined_model is None:
            raise RuntimeError("train_model() must run before policy training")
        return BatchedModelEnv(
            self.refined_model,
            self.dataset,
            consumer_budget=self.env.consumer_budget,
            rollout_length=self.config.policy.rollout_length,
            batch_size=self.config.policy.rollout_batch,
            rng=self._rngs["model-env"].fork(f"nb{len(self.dataset)}"),
        )

    def train_policy(self) -> tuple:
        """Inner loop of Algorithm 2: synthetic rollouts + DDPG updates.

        Rollouts advance ``policy.rollout_batch`` (K) episodes per pass
        through the vectorised :class:`BatchedModelEnv` — one batched
        model forward and one perturbed-actor forward per synthetic step
        instead of K batch-of-1 passes.  With K=1 the schedule (RNG
        draws, update cadence, patience accounting) is identical to the
        historical serial loop.

        Stops early once the mean rollout return stops improving for
        ``policy.patience`` consecutive rollouts.  Returns
        (rollouts_run, mean_return_of_last_rollouts).
        """
        cfg = self.config.policy
        model_env = self.build_batched_model_env()
        returns: List[float] = []
        best_return = -np.inf
        stale = 0
        rollouts_run = 0
        stop = False
        while not stop and rollouts_run < cfg.rollouts_per_iteration:
            k = min(cfg.rollout_batch, cfg.rollouts_per_iteration - rollouts_run)
            episode_returns = self._run_rollout_batch(model_env, k)
            # Patience bookkeeping consumes episodes in rollout order, as
            # if they had finished one at a time.
            for episode_return in episode_returns:
                episode_return = float(episode_return)
                returns.append(episode_return)
                rollouts_run += 1
                if episode_return > best_return + 1e-9:
                    best_return = episode_return
                    stale = 0
                else:
                    stale += 1
                    if stale >= cfg.patience:
                        stop = True
                        break
        tail = returns[-min(5, len(returns)) :]
        return rollouts_run, float(np.mean(tail))

    def _run_rollout_batch(
        self, model_env: BatchedModelEnv, k: int
    ) -> np.ndarray:
        """Advance K synthetic episodes in lockstep; returns (K,) returns."""
        cfg = self.config.policy
        states = model_env.reset(k)
        self.ddpg.refresh_perturbation()
        episode_returns = np.zeros(k)
        done = False
        while not done:
            simplexes = self.ddpg.act_batch(states, explore=True)
            executed = allocation_from_simplex(
                simplexes, model_env.consumer_budget
            )
            next_states, rewards, done = model_env.step(executed)
            self.ddpg.store_batch(
                states,
                executed / self.env.consumer_budget,
                rewards,
                next_states,
            )
            if len(self.ddpg.replay) >= cfg.ddpg.batch_size:
                self.ddpg.update_many(cfg.updates_per_step * k)
            states = next_states
            episode_returns += rewards
        return episode_returns

    # --- Evaluation on the real environment -----------------------------------
    def evaluate(self) -> IterationResult:
        """Run the greedy policy on the real system (Fig. 6 measurement).

        With ``config.eval_burst_scale`` > 0 the evaluation episode starts
        with a deterministic burst (scale * C requests split evenly over
        workflow types), so iteration-to-iteration scores are comparable
        and reflect burst handling, not just steady-state behaviour.
        """
        self.env.reset()
        state = self.env.inject_even_burst(self.config.eval_burst_scale)
        total_reward = 0.0
        wip_sums = []
        response_times: List[float] = []
        for _ in range(self.config.eval_steps):
            simplex = self.ddpg.act_greedy(state)
            executed = self._simplex_to_executed(simplex)
            state, reward, observation = self.env.step(executed)
            total_reward += reward
            wip_sums.append(float(state.sum()))
            response_times.extend(observation.response_times)
        return IterationResult(
            iteration=len(self.results),
            dataset_size=len(self.dataset),
            model_loss=float("nan"),
            policy_rollouts=0,
            policy_mean_return=float("nan"),
            eval_reward=total_reward,
            eval_mean_wip=float(np.mean(wip_sums)),
            eval_mean_response_time=(
                float(np.mean(response_times)) if response_times else 0.0
            ),
        )

    # --- Algorithm 2 outer loop --------------------------------------------------
    def iterate(
        self, iterations: Optional[int] = None, verbose: bool = False
    ) -> List[IterationResult]:
        """Run the full iterative procedure; returns per-iteration results.

        The actor/critic weights from the iteration with the highest
        evaluation reward are restored at the end ("until the policy
        performs well in real environment", Algorithm 2), so a noisy late
        iteration cannot destroy an already-good policy.
        """
        if iterations is None:
            iterations = self.config.iterations
        elif iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        best_reward = max(
            (r.eval_reward for r in self.results), default=-np.inf
        )
        best_snapshot = None
        for iteration in range(iterations):
            # Iteration 0 has no useful policy yet: all random actions.
            random_fraction = 1.0 if len(self.results) == 0 else 0.0
            if self.config.policy.collect_mode == "serial":
                self.collect_real_interactions(
                    self.config.steps_per_iteration,
                    random_fraction=random_fraction,
                )
            else:
                self.collect_distributed(
                    self.config.steps_per_iteration,
                    random_fraction=random_fraction,
                )
            model_loss = self.train_model()
            rollouts, mean_return = self.train_policy()
            result = self.evaluate()
            result.model_loss = model_loss
            result.policy_rollouts = rollouts
            result.policy_mean_return = mean_return
            self.results.append(result)
            self._trace_iteration(result)
            if result.eval_reward > best_reward:
                best_reward = result.eval_reward
                best_snapshot = self._snapshot_policy()
            if verbose:  # pragma: no cover - console output
                print(
                    f"[MIRAS iter {result.iteration}] |D|={result.dataset_size} "
                    f"model_loss={model_loss:.4f} rollouts={rollouts} "
                    f"eval_reward={result.eval_reward:.1f}"
                )
        if best_snapshot is not None:
            self._restore_policy(best_snapshot)
        return self.results

    def _trace_iteration(self, result: IterationResult) -> None:
        """Emit the per-iteration scalars of one Algorithm 2 pass."""
        if not self.tracer.enabled:
            return
        step = result.iteration
        self.tracer.metric("train/model_loss", result.model_loss, step=step)
        self.tracer.metric("train/eval_reward", result.eval_reward, step=step)
        self.tracer.metric(
            "train/eval_mean_wip", result.eval_mean_wip, step=step
        )
        self.tracer.metric(
            "train/eval_mean_response_time",
            result.eval_mean_response_time,
            step=step,
        )
        self.tracer.metric(
            "train/policy_rollouts", result.policy_rollouts, step=step
        )
        self.tracer.metric(
            "train/policy_mean_return", result.policy_mean_return, step=step
        )
        self.tracer.metric(
            "train/dataset_size", result.dataset_size, step=step
        )
        self.tracer.metric(
            "train/param_noise_sigma",
            self.ddpg.param_noise.sigma,
            step=step,
        )
        self.tracer.metric(
            "train/refinement_lends", self.refined_model.lend_count, step=step
        )
        self.tracer.metric(
            "train/refinement_lend_delta",
            self.refined_model.lend_delta_total,
            step=step,
        )

    def _policy_networks(self) -> tuple:
        actor, critic = self.ddpg.actor, self.ddpg.critic
        return (actor.network, actor.target_network,
                critic.network, critic.target_network)

    def _snapshot_policy(self) -> list:
        """Copy the actor/critic (and target) weights."""
        return [network.get_flat() for network in self._policy_networks()]

    def _restore_policy(self, snapshot: list) -> None:
        for network, flat in zip(self._policy_networks(), snapshot):
            network.set_flat(flat)

    def act(self, state: np.ndarray) -> np.ndarray:
        """Greedy integer allocation for deployment."""
        return self._simplex_to_executed(self.ddpg.act_greedy(state))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MirasAgent(|D|={len(self.dataset)}, "
            f"iterations={len(self.results)})"
        )
