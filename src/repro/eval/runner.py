"""Run allocators on burst scenarios and record per-window series.

Reproduces the paper's Section VI-D protocol: drain the system, feed the
burst "at the beginning of each evaluation", keep background Poisson
arrivals flowing, then let the allocator control one window at a time and
record the response-time series that Figs. 7–8 plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.base import Allocator
from repro.sim.env import MicroserviceEnv
from repro.sim.system import MicroserviceWorkflowSystem, SystemConfig
from repro.telemetry.tracer import Tracer
from repro.workflows.dag import WorkflowEnsemble
from repro.workload.arrivals import PoissonArrivalProcess
from repro.workload.bursts import BurstScenario

__all__ = [
    "StepRecord",
    "EvalResult",
    "make_env",
    "evaluate_allocator",
    "run_scenario_comparison",
]


@dataclass
class StepRecord:
    """One control window of an evaluation run."""

    step: int
    wip_sum: float
    reward: float
    #: Mean response time of workflows completed this window (0 if none).
    mean_response_time: float
    completions: int
    allocation: np.ndarray
    #: Per-workflow-type mean response times this window.
    response_by_type: Dict[str, float] = field(default_factory=dict)

    def to_jsonable(self) -> Dict:
        """Plain-JSON view (ndarray allocation becomes a list)."""
        return {
            "step": self.step,
            "wip_sum": self.wip_sum,
            "reward": self.reward,
            "mean_response_time": self.mean_response_time,
            "completions": self.completions,
            "allocation": np.asarray(self.allocation).tolist(),
            "response_by_type": dict(self.response_by_type),
        }


@dataclass
class EvalResult:
    """A full evaluation run of one allocator on one scenario."""

    allocator: str
    scenario: str
    records: List[StepRecord] = field(default_factory=list)

    # Series views --------------------------------------------------------
    def response_time_series(self) -> List[float]:
        """Per-step mean response time — the y-series of Figs. 7–8."""
        return [r.mean_response_time for r in self.records]

    def response_time_series_for(self, workflow_type: str) -> List[float]:
        """Per-step mean response time of one workflow type (0 when that
        type completed nothing in a window) — the paper's per-workflow
        discussion of LIGO's CAT/Full/Injection."""
        return [
            r.response_by_type.get(workflow_type, 0.0) for r in self.records
        ]

    def wip_series(self) -> List[float]:
        return [r.wip_sum for r in self.records]

    def reward_series(self) -> List[float]:
        return [r.reward for r in self.records]

    # Summary statistics ------------------------------------------------------
    def aggregated_reward(self) -> float:
        return float(sum(r.reward for r in self.records))

    def mean_response_time(self) -> float:
        """Completion-weighted mean response time over the whole run."""
        total_completions = sum(r.completions for r in self.records)
        if total_completions == 0:
            return 0.0
        weighted = sum(
            r.mean_response_time * r.completions for r in self.records
        )
        return weighted / total_completions

    def total_completions(self) -> int:
        return sum(r.completions for r in self.records)

    def to_jsonable(self) -> Dict:
        """Plain-JSON view (used by the parallel experiment runner)."""
        return {
            "allocator": self.allocator,
            "scenario": self.scenario,
            "records": [r.to_jsonable() for r in self.records],
        }


def make_env(
    ensemble: WorkflowEnsemble,
    config: Optional[SystemConfig] = None,
    seed: int = 0,
    background_rates: Optional[Dict[str, float]] = None,
    tracer: Optional[Tracer] = None,
    window_hooks: Optional[Sequence[Callable]] = None,
) -> MicroserviceEnv:
    """Build a system + Poisson background workload + env in one call."""
    system = MicroserviceWorkflowSystem(
        ensemble,
        config,
        seed=seed,
        tracer=tracer,
        window_hooks=window_hooks,
    )
    if background_rates:
        PoissonArrivalProcess(background_rates).attach(system)
    return MicroserviceEnv(system)


def evaluate_allocator(
    allocator: Allocator,
    env: MicroserviceEnv,
    scenario: BurstScenario,
    steps: int,
) -> EvalResult:
    """Reset, inject the burst, then run ``steps`` allocator-controlled windows.

    The allocator must already be prepared (trained); this call only binds
    it to ``env`` and runs the evaluation protocol.  The reset drains
    until no request is waiting (WIP is then what is in service); on a
    fresh ``env`` it costs no window, so exactly ``steps`` are simulated.
    """
    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")
    allocator.bind(env)
    allocator.reset()
    env.reset()
    env.system.inject_burst(scenario.burst)
    result = EvalResult(allocator=allocator.name, scenario=scenario.name)
    wip = env.observe()
    observation = None
    for step in range(steps):
        allocation = allocator.allocate(wip, observation)
        wip, reward, observation = env.step(allocation)
        result.records.append(
            StepRecord(
                step=step,
                wip_sum=float(wip.sum()),
                reward=reward,
                mean_response_time=observation.mean_response_time(),
                completions=observation.total_completions,
                allocation=allocation.copy(),
                response_by_type={
                    wf: observation.mean_response_time_for(wf)
                    for wf in observation.response_times_by_type
                },
            )
        )
    if not env.system.conservation_ok():  # pragma: no cover - invariant guard
        raise RuntimeError("request conservation violated during evaluation")
    return result


def run_scenario_comparison(
    ensemble_builder: Callable[[], WorkflowEnsemble],
    allocators: Sequence[Allocator],
    scenario: BurstScenario,
    steps: int,
    config: Optional[SystemConfig] = None,
    eval_seed: int = 1000,
) -> Dict[str, EvalResult]:
    """Evaluate several (already prepared) allocators on one scenario.

    Every allocator gets its own freshly built system with the *same*
    seed, hence statistically identical background arrivals and service
    times — the controlled-comparison setup of Figs. 7–8.
    """
    results: Dict[str, EvalResult] = {}
    for allocator in allocators:
        env = make_env(
            ensemble_builder(),
            config=config,
            seed=eval_seed,
            background_rates=dict(scenario.background_rates),
        )
        results[allocator.name] = evaluate_allocator(
            allocator, env, scenario, steps
        )
    return results
