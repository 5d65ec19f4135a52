"""Experiment definitions — one per paper figure, plus ablations.

Every experiment runs the same code path as the paper's full-scale setup;
the ``scale`` parameter only changes step counts (documented in DESIGN.md)
so the suite finishes in minutes instead of cluster-days.  Pass
``scale="paper"`` for the full schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import (
    Allocator,
    DrsAllocator,
    HeftAllocator,
    MirasAllocator,
    ModelFreeDDPGAllocator,
    MonadAllocator,
)
from repro.core import (
    EnvironmentModel,
    MirasAgent,
    MirasConfig,
    RefinedModel,
    TransitionDataset,
)
from repro.core.agent import IterationResult
from repro.eval.runner import EvalResult, make_env, run_scenario_comparison
from repro.rl.ddpg import DDPGConfig
from repro.sim.env import MicroserviceEnv
from repro.sim.system import SystemConfig
from repro.utils.rng import RngStream
from repro.workflows import build_ligo_ensemble, build_msd_ensemble
from repro.workload.bursts import (
    BurstScenario,
    LIGO_BACKGROUND_RATES,
    LIGO_BURSTS,
    MSD_BACKGROUND_RATES,
    MSD_BURSTS,
)

__all__ = [
    "EXPERIMENTS",
    "Fig5Result",
    "build_training_env",
    "dataset_preset",
    "preset_env",
    "experiment_fig5_model_accuracy",
    "experiment_fig6_training_trace",
    "experiment_fig7_msd_comparison",
    "experiment_fig8_ligo_comparison",
    "ablation_refinement",
    "ablation_exploration_noise",
    "ablation_window_length",
]


# ---------------------------------------------------------------------------
# Shared setup helpers
# ---------------------------------------------------------------------------

_PRESETS = {
    "msd": {
        "builder": build_msd_ensemble,
        "budget": 14,
        "rates": MSD_BACKGROUND_RATES,
        "bursts": MSD_BURSTS,
        "model_hidden": (20, 20, 20),
        "fast_config": MirasConfig.msd_fast,
        "paper_config": MirasConfig.msd_paper,
    },
    "ligo": {
        "builder": build_ligo_ensemble,
        "budget": 30,
        "rates": LIGO_BACKGROUND_RATES,
        "bursts": LIGO_BURSTS,
        "model_hidden": (20,),
        "fast_config": MirasConfig.ligo_fast,
        "paper_config": MirasConfig.ligo_paper,
    },
}


def dataset_preset(name: str) -> dict:
    """Configuration preset for ``msd`` or ``ligo``."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; choose from {sorted(_PRESETS)}"
        ) from None


def preset_env(
    name: str, seed: int, background_rates=None, tracer=None
) -> MicroserviceEnv:
    """The preset's ensemble at its paper budget; ``background_rates``
    replaces the preset's training rates (a burst scenario's)."""
    preset = dataset_preset(name)
    if background_rates is None:
        background_rates = preset["rates"]
    return make_env(
        preset["builder"](),
        config=SystemConfig(consumer_budget=preset["budget"]),
        seed=seed,
        background_rates=background_rates,
        tracer=tracer,
    )


def build_training_env(seed: int, dataset: str = "msd") -> MicroserviceEnv:
    """Standalone training-environment factory for worker processes.

    The distributed collector (``repro.rl.distributed``) replicates the
    training environment inside each collector process from an
    :class:`~repro.rl.distributed.EnvSpec` recipe — a ``"module:callable"``
    string plus keyword params — so this must stay a *module-level*
    callable taking only picklable arguments: use
    ``EnvSpec.make("repro.eval.experiments:build_training_env",
    dataset="msd")``.  Replicas are untraced: each worker's transition
    block carries its own deterministic bookkeeping instead.
    """
    return preset_env(dataset, seed)


def _collect_random_dataset(
    env: MicroserviceEnv,
    steps: int,
    rng: RngStream,
    action_hold: int = 4,
    reset_interval: int = 25,
    record_order: bool = False,
) -> Tuple[TransitionDataset, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Random-action data collection (the paper's model-evaluation protocol).

    "Actions are randomly selected and vary every 4 steps" (Section VI-B).
    Returns the dataset and, when asked, the ordered trace of transitions.
    """
    dataset = TransitionDataset(env.state_dim, env.action_dim)
    trace: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    state = env.reset()
    action = env.random_allocation(rng)
    for step in range(steps):
        if reset_interval and step > 0 and step % reset_interval == 0:
            state = env.reset()
        if step % action_hold == 0:
            action = env.random_allocation(rng)
        next_state, _, _ = env.step(action)
        dataset.add(state, action.astype(np.float64), next_state)
        if record_order:
            trace.append((state.copy(), action.copy(), next_state.copy()))
        state = next_state
    return dataset, trace


# ---------------------------------------------------------------------------
# Fig. 5 — predictive-model accuracy
# ---------------------------------------------------------------------------

@dataclass
class Fig5Result:
    """Ground truth vs fixed-input vs iterative predictions (Fig. 5).

    The paper plots two signals per dataset: the "immediate reward
    (average of next state WIP)" and the first WIP dimension.
    """

    dataset: str
    ground_truth_reward: np.ndarray
    fixed_reward: np.ndarray
    iterative_reward: np.ndarray
    ground_truth_w0: np.ndarray
    fixed_w0: np.ndarray
    iterative_w0: np.ndarray

    @staticmethod
    def _rmse(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.sqrt(np.mean((a - b) ** 2)))

    @property
    def rmse_fixed_reward(self) -> float:
        return self._rmse(self.ground_truth_reward, self.fixed_reward)

    @property
    def rmse_iterative_reward(self) -> float:
        return self._rmse(self.ground_truth_reward, self.iterative_reward)

    @property
    def rmse_fixed_w0(self) -> float:
        return self._rmse(self.ground_truth_w0, self.fixed_w0)

    @property
    def rmse_iterative_w0(self) -> float:
        return self._rmse(self.ground_truth_w0, self.iterative_w0)

    def correlation_fixed_reward(self) -> float:
        """Pearson correlation of the fixed-input trace with ground truth."""
        if np.std(self.ground_truth_reward) == 0 or np.std(self.fixed_reward) == 0:
            return 0.0
        return float(
            np.corrcoef(self.ground_truth_reward, self.fixed_reward)[0, 1]
        )

    def correlation_iterative_reward(self) -> float:
        if (
            np.std(self.ground_truth_reward) == 0
            or np.std(self.iterative_reward) == 0
        ):
            return 0.0
        return float(
            np.corrcoef(self.ground_truth_reward, self.iterative_reward)[0, 1]
        )


def experiment_fig5_model_accuracy(
    dataset: str = "msd",
    collect_steps: int = 600,
    test_steps: int = 100,
    action_hold: int = 4,
    seed: int = 0,
    model_epochs: int = 60,
    tracer=None,
) -> Fig5Result:
    """Reproduce Fig. 5 for one dataset.

    Paper scale: ``collect_steps=14_000`` (MSD) / ``37_000`` (LIGO),
    ``test_steps=100``.  The default scales collection down; the protocol
    (random actions held 4 steps, fixed vs iterative prediction on a held
    -out trace) is identical.
    """
    preset = dataset_preset(dataset)
    env = preset_env(dataset, seed, tracer=tracer)
    rng = RngStream("fig5", np.random.SeedSequence(seed))

    train_data, _ = _collect_random_dataset(
        env, collect_steps, rng.fork("fig5/train"), action_hold=action_hold
    )
    model = EnvironmentModel(
        env.state_dim,
        env.action_dim,
        hidden_sizes=preset["model_hidden"],
        rng=rng.fork("fig5/model"),
    )
    model.fit(train_data, epochs=model_epochs)

    # Held-out trace: one continuous run (no resets) for the iterative test.
    _, trace = _collect_random_dataset(
        env,
        test_steps,
        rng.fork("fig5/test"),
        action_hold=action_hold,
        reset_interval=0,
        record_order=True,
    )
    states = np.stack([t[0] for t in trace])
    actions = np.stack([t[1] for t in trace])
    next_states = np.stack([t[2] for t in trace])

    fixed = np.maximum(model.predict(states, actions), 0.0)
    iterative = model.rollout(states[0], actions)

    return Fig5Result(
        dataset=dataset,
        ground_truth_reward=next_states.mean(axis=1),
        fixed_reward=fixed.mean(axis=1),
        iterative_reward=iterative.mean(axis=1),
        ground_truth_w0=next_states[:, 0],
        fixed_w0=fixed[:, 0],
        iterative_w0=iterative[:, 0],
    )


# ---------------------------------------------------------------------------
# Fig. 6 — MIRAS training traces
# ---------------------------------------------------------------------------

def experiment_fig6_training_trace(
    dataset: str = "msd",
    config: Optional[MirasConfig] = None,
    seed: int = 0,
    tracer=None,
) -> List[IterationResult]:
    """Reproduce Fig. 6a/6b: aggregated evaluation reward per iteration.

    Paper scale: pass ``config=MirasConfig.msd_paper()`` (or
    ``ligo_paper()``).  Default: the fast preset with the same schedule
    shape (converges within the configured iterations).
    """
    preset = dataset_preset(dataset)
    env = preset_env(dataset, seed, tracer=tracer)
    config = config or preset["fast_config"]()
    agent = MirasAgent(env, config, seed=seed)
    agent.iterate()
    return agent.results


# ---------------------------------------------------------------------------
# Figs. 7–8 — comparison with existing algorithms
# ---------------------------------------------------------------------------

#: Seed of every Figs. 7–8 evaluation system: apart from the training
#: seeds, and the same for each allocator, so all of them face the same
#: background arrivals and service times.
EVAL_SEED = 1000


def _build_comparison_allocators(
    dataset: str,
    config: MirasConfig,
    seed: int,
    tracer=None,
) -> List[Allocator]:
    """Train MIRAS + fair-budget baselines; return all five allocators.

    Interaction-budget fairness (Section VI-D): model-free DDPG gets the
    same number of real interactions as MIRAS; MONAD is identified on the
    very dataset MIRAS collected.  ``tracer`` instruments the *primary*
    (MIRAS) training environment only — baseline training runs stay
    untraced so the comparison traces one system per cell.
    """
    train_env = preset_env(dataset, seed, tracer=tracer)
    miras_agent = MirasAgent(train_env, config, seed=seed)
    miras_agent.iterate()
    total_interactions = config.steps_per_iteration * config.iterations

    # The paper's "rl" baseline is *vanilla* DDPG (OpenAI Baselines):
    # action-space exploration noise, no MIRAS-side regularisation, and the
    # paper's plain interaction protocol (reset every 25 steps, background
    # workload only).  The burst-seeded collection curriculum is part of
    # MIRAS's data-coverage machinery, not the baseline — giving it to the
    # baseline materially changes the comparison (see EXPERIMENTS.md).
    vanilla = replace(
        config.policy.ddpg,
        exploration="action-gaussian",
        entropy_weight=0.0,
    )
    modelfree = ModelFreeDDPGAllocator(
        training_steps=total_interactions,
        reset_interval=config.reset_interval,
        config=vanilla,
        seed=seed + 1,
        burst_probability=0.0,
    )
    modelfree.prepare(preset_env(dataset, seed + 1))

    monad = MonadAllocator()
    monad.fit_from_dataset(train_env, miras_agent.dataset)

    return [
        MirasAllocator(agent=miras_agent),
        DrsAllocator(),
        HeftAllocator(),
        monad,
        modelfree,
    ]


def _comparison(
    dataset: str,
    scenarios: Sequence[BurstScenario],
    steps: int,
    config: Optional[MirasConfig],
    seed: int,
    tracer=None,
) -> Dict[str, Dict[str, EvalResult]]:
    preset = dataset_preset(dataset)
    config = config or preset["fast_config"]()
    allocators = _build_comparison_allocators(
        dataset, config, seed, tracer=tracer
    )
    system_config = SystemConfig(consumer_budget=preset["budget"])
    results: Dict[str, Dict[str, EvalResult]] = {}
    for scenario in scenarios:
        results[scenario.name] = run_scenario_comparison(
            preset["builder"],
            allocators,
            scenario,
            steps=steps,
            config=system_config,
            eval_seed=EVAL_SEED,
        )
    return results


def experiment_fig7_msd_comparison(
    steps: int = 30,
    config: Optional[MirasConfig] = None,
    seed: int = 0,
    tracer=None,
) -> Dict[str, Dict[str, EvalResult]]:
    """Fig. 7: MSD response time under the three burst conditions.

    Returns ``{scenario: {allocator: EvalResult}}``.  Paper scale: pass
    ``config=MirasConfig.msd_paper()`` and ``steps`` ~ the paper's horizon.
    """
    return _comparison(
        "msd", MSD_BURSTS, steps, config, seed, tracer=tracer,
    )


def experiment_fig8_ligo_comparison(
    steps: int = 30,
    config: Optional[MirasConfig] = None,
    seed: int = 0,
    tracer=None,
) -> Dict[str, Dict[str, EvalResult]]:
    """Fig. 8: LIGO response time under the three burst conditions."""
    return _comparison(
        "ligo", LIGO_BURSTS, steps, config, seed, tracer=tracer,
    )


# ---------------------------------------------------------------------------
# Ablations (design choices called out in Sections IV and VI-A)
# ---------------------------------------------------------------------------

def ablation_refinement(
    dataset: str = "msd",
    collect_steps: int = 600,
    test_steps: int = 200,
    seed: int = 0,
    tracer=None,
) -> Dict[str, float]:
    """Lend–Giveback on/off: one-step error near the WIP boundary.

    Measures RMSE of raw vs refined predictions on held-out transitions
    whose state has at least one dimension below tau (the regime Algorithm
    1 targets) and on the complementary set.
    """
    preset = dataset_preset(dataset)
    env = preset_env(dataset, seed, tracer=tracer)
    rng = RngStream("ablate-refine", np.random.SeedSequence(seed))
    train_data, _ = _collect_random_dataset(
        env, collect_steps, rng.fork("ablate-refine/train")
    )
    model = EnvironmentModel(
        env.state_dim,
        env.action_dim,
        hidden_sizes=preset["model_hidden"],
        rng=rng.fork("ablate-refine/model"),
    )
    model.fit(train_data, epochs=60)
    refined = RefinedModel.from_dataset(
        model, train_data, rng=rng.fork("ablate-refine/refine"),
    )

    test_data, trace = _collect_random_dataset(
        env, test_steps, rng.fork("ablate-refine/test"), record_order=True
    )
    boundary_raw, boundary_refined = [], []
    interior_raw, interior_refined = [], []
    for state, action, next_state in trace:
        raw_error = np.maximum(model.predict(state, action), 0.0) - next_state
        refined_error = refined.predict(state, action) - next_state
        if np.any(refined.below_threshold(state)):
            boundary_raw.append(raw_error)
            boundary_refined.append(refined_error)
        else:
            interior_raw.append(raw_error)
            interior_refined.append(refined_error)

    def rmse(errors: list) -> float:
        if not errors:
            return float("nan")
        return float(np.sqrt(np.mean(np.stack(errors) ** 2)))

    return {
        "boundary_rmse_raw": rmse(boundary_raw),
        "boundary_rmse_refined": rmse(boundary_refined),
        "interior_rmse_raw": rmse(interior_raw),
        "interior_rmse_refined": rmse(interior_refined),
        "boundary_samples": float(len(boundary_raw)),
        "interior_samples": float(len(interior_raw)),
    }


def ablation_exploration_noise(
    dataset: str = "msd",
    config: Optional[MirasConfig] = None,
    seed: int = 0,
    tracer=None,
) -> Dict[str, Dict[str, float]]:
    """Parameter-space vs action-space exploration (Section IV-D claim).

    Trains one MIRAS agent per exploration mode with identical budgets and
    reports constraint violations during exploration plus the final
    real-environment evaluation reward.
    """
    preset = dataset_preset(dataset)
    base_config = config or preset["fast_config"]()
    out: Dict[str, Dict[str, float]] = {}
    for mode in ("parameter", "action-gaussian"):
        env = preset_env(dataset, seed, tracer=tracer)
        mode_config = MirasConfig(
            model=base_config.model,
            policy=type(base_config.policy)(
                ddpg=DDPGConfig(
                    hidden_sizes=base_config.policy.ddpg.hidden_sizes,
                    batch_size=base_config.policy.ddpg.batch_size,
                    exploration=mode,
                ),
                rollout_length=base_config.policy.rollout_length,
                rollouts_per_iteration=base_config.policy.rollouts_per_iteration,
                patience=base_config.policy.patience,
            ),
            steps_per_iteration=base_config.steps_per_iteration,
            reset_interval=base_config.reset_interval,
            iterations=base_config.iterations,
            eval_steps=base_config.eval_steps,
        )
        agent = MirasAgent(env, mode_config, seed=seed)
        agent.iterate()
        out[mode] = {
            "constraint_violations": float(agent.ddpg.constraint_violations),
            "exploration_actions": float(agent.ddpg.exploration_actions),
            "final_eval_reward": agent.results[-1].eval_reward,
            "best_eval_reward": max(r.eval_reward for r in agent.results),
        }
    return out


def ablation_window_length(
    dataset: str = "msd",
    window_lengths: Sequence[float] = (5.0, 15.0, 30.0),
    steps_at_30s: int = 30,
    seed: int = 0,
    tracer=None,
) -> Dict[float, Dict[str, float]]:
    """Section VI-A2's window-length trade-off (5 s / 15 s / 30 s).

    Runs a reactive WIP-proportional allocator on burst 1 with each window
    length over the same total simulated time; reports the mean response
    time and the container churn (kills of busy consumers, the start-up
    overhead proxy).
    """
    from repro.baselines.static_alloc import ProportionalToWipAllocator
    from repro.eval.runner import evaluate_allocator

    preset = dataset_preset(dataset)
    scenario = preset["bursts"][0]
    total_time = 30.0 * steps_at_30s
    out: Dict[float, Dict[str, float]] = {}
    for window in window_lengths:
        env = make_env(
            preset["builder"](),
            config=SystemConfig(
                consumer_budget=preset["budget"], window_length=window
            ),
            seed=seed,
            background_rates=preset["rates"],
            tracer=tracer,
        )
        steps = max(1, int(round(total_time / window)))
        allocator = ProportionalToWipAllocator()
        result = evaluate_allocator(allocator, env, scenario, steps)
        services = env.system.microservices.values()
        busy_kills = sum(ms.consumers_killed_busy for ms in services)
        wasted_startups = sum(ms.consumers_killed_starting for ms in services)
        out[window] = {
            "mean_response_time": result.mean_response_time(),
            "final_wip": result.wip_series()[-1],
            "busy_kills": float(busy_kills),
            "wasted_startups": float(wasted_startups),
            "total_completions": float(result.total_completions()),
            "steps": float(steps),
        }
    return out


# ---------------------------------------------------------------------------
# Experiment registry (consumed by repro.eval.parallel and the CLI)
# ---------------------------------------------------------------------------

#: Name -> experiment entry point.  Every entry point is self-contained:
#: it builds its own system/agent from an explicit ``seed`` argument, so
#: a registry cell can run in any process with no shared state.
EXPERIMENTS = {
    "fig5": experiment_fig5_model_accuracy,
    "fig6": experiment_fig6_training_trace,
    "fig7": experiment_fig7_msd_comparison,
    "fig8": experiment_fig8_ligo_comparison,
    "ablate-refinement": ablation_refinement,
    "ablate-noise": ablation_exploration_noise,
    "ablate-window": ablation_window_length,
}
