"""MIRAS hyper-parameters, with the paper's MSD and LIGO presets.

Section VI-A3: "For MSD dataset, we use a 3-layer neural network as the
predictive model, each layer has 20 neurons.  Its Actor network has 3
layers, each of which has 256 neurons. ... For LIGO, we use a one-layer
20-neuron neural network as the predictive model. ... both networks of
LIGO have 512 neurons at each layer."  Data-collection schedules: MSD
1,000 steps/iteration with resets every 25 steps and 25-step model
rollouts; LIGO 2,000 steps/iteration with 10-step rollouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.rl.ddpg import DDPGConfig
from repro.rl.distributed import COLLECT_MODES
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["ModelConfig", "PolicyConfig", "MirasConfig"]


@dataclass
class ModelConfig:
    """Environment-model (f̂_Φ) hyper-parameters."""

    hidden_sizes: Sequence[int] = (20, 20, 20)
    epochs: int = 40

    def __post_init__(self):
        check_positive("epochs", self.epochs)


@dataclass
class PolicyConfig:
    """Policy-training schedule on the learnt model."""

    ddpg: DDPGConfig = field(default_factory=DDPGConfig)
    #: Steps per synthetic rollout ("one episode before resetting the
    #: predictive model": 25 for MSD, 10 for LIGO).
    rollout_length: int = 25
    #: Synthetic rollouts per policy-improvement phase.
    rollouts_per_iteration: int = 40
    #: DDPG gradient updates per synthetic environment step.
    updates_per_step: int = 1
    #: Early-stop policy training when the mean rollout return stops
    #: improving for this many consecutive rollout batches ("until
    #: performance of the policy stops improving", Algorithm 2).
    patience: int = 5
    #: Synthetic rollouts advanced together per pass of the vectorised
    #: rollout engine (K in BatchedModelEnv).  1 reproduces the serial
    #: schedule bit-for-bit; larger values trade per-episode update
    #: interleaving for batched model/actor forwards.
    rollout_batch: int = 1
    #: Real-environment collection topology (repro.rl.distributed):
    #: ``serial`` is the historical in-loop collector; ``logical`` runs
    #: the fixed round-robin interleave schedule on zero worker processes,
    #: all in this one (deterministic, CI-pinnable); ``physical`` runs it
    #: on ``collect_workers`` processes plus this one, for throughput.
    #: ``logical`` and ``physical`` produce byte-identical training state
    #: for any worker count.
    collect_mode: str = "serial"
    #: Collector worker processes for ``physical`` collection; the learner
    #: runs a share of the episodes too (0 auto-detects
    #: ``os.cpu_count()``).  Never feeds entropy or ordering — a pure
    #: throughput knob.
    collect_workers: int = 1
    #: Width of the fixed logical-interleave schedule: episode ``e`` runs
    #: on lane ``e mod collect_lanes`` with lane-labelled seed streams.
    #: A *schedule* constant, deliberately independent of
    #: ``collect_workers``, so changing the worker count can never change
    #: which seeds the episodes draw.
    collect_lanes: int = 4

    def __post_init__(self):
        check_positive("rollout_length", self.rollout_length)
        check_positive("rollouts_per_iteration", self.rollouts_per_iteration)
        check_positive("updates_per_step", self.updates_per_step)
        check_positive("patience", self.patience)
        check_positive("rollout_batch", self.rollout_batch)
        check_positive("collect_lanes", self.collect_lanes)
        check_non_negative("collect_workers", self.collect_workers)
        if self.collect_mode not in COLLECT_MODES:
            raise ValueError(
                f"collect_mode must be one of {COLLECT_MODES}, "
                f"got {self.collect_mode!r}"
            )


@dataclass
class MirasConfig:
    """The full Algorithm-2 schedule."""

    model: ModelConfig = field(default_factory=ModelConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    #: Real-environment steps collected per outer iteration (1,000 MSD /
    #: 2,000 LIGO in the paper).
    steps_per_iteration: int = 1000
    #: Reset ("drain") the real environment every this many collection steps
    #: (25 in the paper).
    reset_interval: int = 25
    #: Outer iterations (the paper observes convergence around 11).
    iterations: int = 12
    #: Real-env steps used to evaluate the policy after each iteration
    #: (25 for MSD, 100 for LIGO).
    eval_steps: int = 25
    #: If > 0, each per-iteration evaluation starts with a request burst of
    #: this many budgets' worth of requests (total = scale * C, split
    #: evenly over workflow types).  Aligns policy selection with the
    #: bursty deployment conditions of Section VI-D; 0 evaluates under
    #: background load only.
    eval_burst_scale: float = 10.0

    def __post_init__(self):
        check_positive("steps_per_iteration", self.steps_per_iteration)
        check_positive("reset_interval", self.reset_interval)
        check_positive("iterations", self.iterations)
        check_positive("eval_steps", self.eval_steps)
        check_non_negative("eval_burst_scale", self.eval_burst_scale)

    # Presets -----------------------------------------------------------------
    @classmethod
    def msd_paper(cls) -> "MirasConfig":
        """The paper's full-scale MSD schedule.

        How long it runs is untimed; ROADMAP item 7(a) adds the
        paper-width workload that will time it.
        """
        return cls(
            model=ModelConfig(hidden_sizes=(20, 20, 20)),
            policy=PolicyConfig(
                ddpg=DDPGConfig(hidden_sizes=(256, 256, 256)),
                rollout_length=25,
            ),
            steps_per_iteration=1000,
            reset_interval=25,
            iterations=12,
            eval_steps=25,
        )

    @classmethod
    def ligo_paper(cls) -> "MirasConfig":
        """The paper's full-scale LIGO schedule.

        Note the deliberately *smaller* predictive model: "we use a smaller
        neural network to tackle the overfitting problem" (footnote 4).
        """
        return cls(
            model=ModelConfig(hidden_sizes=(20,)),
            policy=PolicyConfig(
                ddpg=DDPGConfig(hidden_sizes=(512, 512, 512)),
                rollout_length=10,
            ),
            steps_per_iteration=2000,
            reset_interval=25,
            iterations=12,
            eval_steps=100,
        )

    @classmethod
    def msd_fast(cls) -> "MirasConfig":
        """Scaled-down MSD schedule for tests and quick benches.

        Same code path as :meth:`msd_paper`, smaller step counts and
        networks so a full Algorithm-2 run finishes in seconds.
        """
        return cls(
            model=ModelConfig(hidden_sizes=(20, 20, 20), epochs=30),
            policy=PolicyConfig(
                ddpg=DDPGConfig(
                    hidden_sizes=(128, 128), batch_size=64, gamma=0.99
                ),
                rollout_length=25,
                rollouts_per_iteration=25,
                patience=6,
                updates_per_step=2,
            ),
            steps_per_iteration=250,
            reset_interval=25,
            iterations=6,
            eval_steps=25,
        )

    @classmethod
    def ligo_fast(cls) -> "MirasConfig":
        """Scaled-down LIGO schedule for tests and quick benches."""
        return cls(
            model=ModelConfig(hidden_sizes=(20,), epochs=30),
            policy=PolicyConfig(
                ddpg=DDPGConfig(
                    hidden_sizes=(128, 128), batch_size=64, gamma=0.99
                ),
                rollout_length=10,
                rollouts_per_iteration=30,
                patience=6,
                updates_per_step=2,
            ),
            steps_per_iteration=400,
            reset_interval=25,
            iterations=6,
            eval_steps=25,
        )
