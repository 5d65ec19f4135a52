"""Layer boundaries: what the traced pass wraps, and the per-layer metrics.

Layers are named by module (``nn``, ``rl``, ``core``, ``sim``, ``eval``,
``baselines``, ``workload``, ``telemetry``).  ``install`` wraps the public
callables at each boundary for one traced pass; ``layer_metrics`` turns
the recorded spans plus the counts the program already keeps into the
flat ``per_layer`` metric set of BENCHMARK.json (every name reported on
every workload, 0 where the layer is not exercised).
"""

from __future__ import annotations

from typing import Dict, List

import repro.rl.ddpg as ddpg_module
import repro.rl.distributed as distributed
from repro.baselines import (
    DrsAllocator,
    HeftAllocator,
    HpaAllocator,
    ProportionalToWipAllocator,
    UniformAllocator,
)
from repro.core.agent import MirasAgent
from repro.core.dataset import TransitionDataset
from repro.core.environment_model import EnvironmentModel
from repro.core.model_env import BatchedModelEnv
from repro.core.refinement import RefinedModel
from repro.nn.network import MLP
from repro.rl.ddpg import DDPGAgent
from repro.rl.replay import ReplayBuffer
from repro.sim import (
    BatchedWorkflowSystem,
    MicroserviceEnv,
    MicroserviceWorkflowSystem,
)
from repro.telemetry import MemorySink, MetricsSink

from spans import SpanRecorder

__all__ = [
    "PER_LAYER",
    "PER_LAYER_UNITS",
    "EXACT",
    "install",
    "layer_metrics",
]

#: (owner, attribute, span name).  Two attributes may share a span name
#: when they are the same boundary (``act``/``act_batch``).
WRAPS = [
    (MLP, "forward", "nn.forward"),
    (MLP, "backward", "nn.backward"),
    (MLP, "train_batch", "nn.train_batch"),
    (MLP, "input_gradient", "nn.input_gradient"),
    (ddpg_module, "soft_update", "nn.soft_update"),
    (DDPGAgent, "act", "rl.act"),
    (DDPGAgent, "act_batch", "rl.act"),
    (DDPGAgent, "update", "rl.update"),
    (DDPGAgent, "store_batch", "rl.store"),
    (DDPGAgent, "refresh_perturbation", "rl.refresh_perturbation"),
    (ReplayBuffer, "sample", "rl.replay_sample"),
    (distributed, "run_collect_episode", "rl.collect.episode"),
    (MirasAgent, "iterate", "core.iterate"),
    (MirasAgent, "collect_real_interactions", "core.collect"),
    (MirasAgent, "collect_distributed", "core.collect"),
    (MirasAgent, "train_model", "core.train_model"),
    (MirasAgent, "train_policy", "core.train_policy"),
    (MirasAgent, "evaluate", "core.evaluate"),
    (EnvironmentModel, "fit", "core.model_fit"),
    (RefinedModel, "predict_batch", "core.predict_batch"),
    (BatchedModelEnv, "step", "core.model_env_step"),
    (TransitionDataset, "add", "core.dataset_add"),
    (MicroserviceEnv, "step", "sim.env_step"),
    (MicroserviceEnv, "reset", "sim.env_reset"),
    (MicroserviceWorkflowSystem, "run_window", "sim.run_window"),
    (MicroserviceWorkflowSystem, "apply_allocation", "sim.apply_allocation"),
    (MicroserviceWorkflowSystem, "inject_burst", "sim.inject_burst"),
    (BatchedWorkflowSystem, "inject_burst", "sim.inject_burst"),
    (UniformAllocator, "allocate", "baselines.allocate"),
    (ProportionalToWipAllocator, "allocate", "baselines.allocate"),
    (DrsAllocator, "allocate", "baselines.allocate"),
    (HeftAllocator, "allocate", "baselines.allocate"),
    (HpaAllocator, "allocate", "baselines.allocate"),
    (MetricsSink, "write", "telemetry.sink_write"),
    (MemorySink, "write", "telemetry.sink_write"),
]

#: Spans whose calls, busy time and self time are all reported.
FULL = [
    "nn.forward", "nn.backward", "nn.train_batch", "nn.input_gradient",
    "nn.soft_update", "rl.act", "rl.update", "rl.store", "rl.replay_sample",
    "rl.refresh_perturbation", "rl.collect.episode", "core.predict_batch",
    "core.model_env_step", "core.dataset_add", "sim.env_step",
    "sim.env_reset", "sim.run_window", "sim.apply_allocation",
    "baselines.allocate", "telemetry.sink_write",
]  # fmt: skip
#: Spans reported by one number.
BUSY_ONLY = [
    "core.collect", "core.train_model", "core.train_policy", "core.evaluate",
    "core.model_fit", "core.refine_build", "core.save_agent",
    "core.load_agent", "sim.inject_burst", "eval.make_env",
    "eval.evaluate_allocator", "rl.collect.episode_env_build",
]  # fmt: skip
SELF_ONLY = ["core.iterate", "eval.evaluate_allocator"]
ABORT_REASONS = [
    "starvation", "time-tie", "double-completion", "join-underflow",
    "publish-into-idle",
]  # fmt: skip
COUNTS = [
    "nn.flops_computed",
    "rl.collect.logical_s", "rl.collect.physical_s",
    "rl.collect.parallel_efficiency", "rl.collect.pool_spawn_s",
    "rl.collect.payload_bytes", "rl.collect.payload_pickle_s",
    "rl.collect.block_bytes", "rl.collect.block_pickle_s",
    "core.refine_lends", "core.refine_lend_share", "core.policy_rollouts",
    "core.eval_reward_best", "core.save_agent.bytes",
    "sim.events_processed", "sim.tasks_completed", "sim.workflows_completed",
    "sim.host_us_per_task", "sim.tasks_per_s", "sim.mean_response_s",
    "sim.window_ms_p50", "sim.window_ms_p99", "sim.window_samples",
    "sim.fast_windows", "sim.fast_aborts", "sim.fast_ineligible",
    "sim.fast_window_share",
    "workload.arrivals_submitted",
    "telemetry.records", "telemetry.records_per_window",
    "bench.trace_overhead_pct",
]  # fmt: skip

PER_LAYER: List[str] = (
    [f"{s}.{k}" for s in FULL for k in ("calls", "busy_s", "self_s")]
    + [f"{s}.busy_s" for s in BUSY_ONLY]
    + [f"{s}.self_s" for s in SELF_ONLY]
    + [f"sim.fast_abort.{r}" for r in ABORT_REASONS]
    + COUNTS
)

#: Host-time readings; everything else in ``PER_LAYER`` is a count or a
#: simulated statistic that a fixed seed reproduces exactly.
_HOST_TIMED = {
    "rl.collect.logical_s", "rl.collect.physical_s",
    "rl.collect.parallel_efficiency", "rl.collect.pool_spawn_s",
    "rl.collect.payload_pickle_s", "rl.collect.block_pickle_s",
    "sim.host_us_per_task", "sim.tasks_per_s", "sim.window_ms_p50",
    "sim.window_ms_p99", "bench.trace_overhead_pct",
}  # fmt: skip
EXACT: List[str] = [
    name
    for name in PER_LAYER
    if not name.endswith(("busy_s", "self_s")) and name not in _HOST_TIMED
]


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("share", "efficiency")):
        return "ratio"
    return {
        "sim.host_us_per_task": "us",
        "sim.window_ms_p50": "ms",
        "sim.window_ms_p99": "ms",
        "nn.flops_computed": "flop",
        "core.eval_reward_best": "reward",
    }.get(name, "count")


PER_LAYER_UNITS: Dict[str, str] = {name: _unit(name) for name in PER_LAYER}


class Captured:
    """Objects and tallies the traced pass keeps for ``layer_metrics``."""

    def __init__(self):
        #: Every RefinedModel built (each carries its own ``lend_count``).
        self.refined_models: list = []
        #: Every environment an in-process collection episode built.
        self.episode_envs: list = []
        #: Computed, not measured: 2 x weights x rows a forward, twice
        #: that a backward (weight and input gradients).
        self.nn_flops = 0.0

    def _forward(self, args, value) -> None:
        weights = sum(layer.weights.size for layer in args[0].layers)
        self.nn_flops += 2.0 * weights * value.shape[0]

    def _backward(self, args, value) -> None:
        weights = sum(layer.weights.size for layer in args[0].layers)
        self.nn_flops += 4.0 * weights * value[0].shape[0]


def install(recorder: SpanRecorder) -> Captured:
    """Wrap every layer boundary for one traced pass."""
    captured = Captured()
    observers = {
        (MLP, "forward"): captured._forward,
        (MLP, "backward"): captured._backward,
    }
    for owner, attr, name in WRAPS:
        recorder.wrap(owner, attr, name, observers.get((owner, attr)))
    recorder.wrap(
        RefinedModel, "from_dataset", "core.refine_build",
        lambda args, value: captured.refined_models.append(value),
    )  # fmt: skip
    recorder.wrap(
        distributed.EnvSpec, "build", "rl.collect.episode_env_build",
        lambda args, value: captured.episode_envs.append(value),
    )  # fmt: skip
    return captured


def layer_metrics(
    recorder: SpanRecorder, counts: Dict, stats: Dict, captured: Captured
) -> Dict[str, float]:
    """The full ``PER_LAYER`` set from one traced pass."""
    spans = recorder.aggregate()
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    out = {name: 0.0 for name in PER_LAYER}
    for span in FULL:
        for key in ("calls", "busy_s", "self_s"):
            out[f"{span}.{key}"] = float(spans.get(span, zero)[key])
    for span in BUSY_ONLY:
        out[f"{span}.busy_s"] = float(spans.get(span, zero)["busy_s"])
    for span in SELF_ONLY:
        out[f"{span}.self_s"] = float(spans.get(span, zero)["self_s"])
    for reason in ABORT_REASONS:
        out[f"sim.fast_abort.{reason}"] = float(
            counts["abort_reasons"].get(reason, 0)
        )
    lends = sum(model.lend_count for model in captured.refined_models)
    predicted = out["core.predict_batch.calls"]  # rollout_batch = 1 row a call
    windows = out["sim.run_window.calls"]
    tasks = counts["tasks"]
    eligible = counts["fast_windows"] + counts["fast_aborts"]
    out.update(
        {
            "nn.flops_computed": captured.nn_flops,
            "core.refine_lends": float(lends),
            "core.refine_lend_share": lends / predicted if predicted else 0.0,
            "core.policy_rollouts": float(stats.get("policy_rollouts", 0)),
            "core.eval_reward_best": float(stats.get("eval_reward_best", 0.0)),
            "core.save_agent.bytes": float(stats.get("save_agent_bytes", 0)),
            "sim.events_processed": float(counts["events"]),
            "sim.tasks_completed": float(tasks),
            "sim.workflows_completed": float(counts["workflows"]),
            "sim.host_us_per_task": (
                1e6 * out["sim.run_window.busy_s"] / tasks if tasks else 0.0
            ),
            "sim.mean_response_s": counts["mean_response_s"],
            "sim.fast_windows": float(counts["fast_windows"]),
            "sim.fast_aborts": float(counts["fast_aborts"]),
            "sim.fast_ineligible": float(
                counts["batched_windows"] - eligible
            ),
            "sim.fast_window_share": (
                counts["fast_windows"] / counts["batched_windows"]
                if counts["batched_windows"]
                else 0.0
            ),
            "workload.arrivals_submitted": float(counts["arrivals"]),
            "telemetry.records": float(stats.get("telemetry_records", 0)),
            "telemetry.records_per_window": (
                stats.get("telemetry_records", 0) / windows if windows else 0.0
            ),
        }
    )
    return out
