"""Real windows are the scarce resource: count what each pass simulates.

Reset windows run under an over-provisioned allocation and their
transitions are thrown away, so a reset must cost only what its queued
work needs.  These are exact window counts (they cannot flake): a pass
over fresh environments simulates its steps and nothing else, and a
serial pass pays only for the drains that have work to clear.
"""

from dataclasses import replace

from repro.baselines import HeftAllocator
from repro.core.agent import MirasAgent
from repro.core.config import MirasConfig
from repro.eval.experiments import build_training_env, dataset_preset
from repro.eval.runner import evaluate_allocator, make_env
from repro.rl.distributed import EnvSpec
from repro.sim.system import MicroserviceWorkflowSystem, SystemConfig

from tests.conftest import make_msd_env


def test_logical_collection_simulates_one_window_per_step(monkeypatch):
    windows = 0
    run_window = MicroserviceWorkflowSystem.run_window

    def counting_run_window(system):
        nonlocal windows
        windows += 1
        return run_window(system)

    monkeypatch.setattr(
        MicroserviceWorkflowSystem, "run_window", counting_run_window
    )
    base = MirasConfig.ligo_fast()
    config = replace(
        base, policy=replace(base.policy, collect_mode="logical")
    )
    agent = MirasAgent(
        build_training_env(seed=7, dataset="ligo"),
        config,
        seed=7,
        env_spec=EnvSpec.make(
            "repro.eval.experiments:build_training_env", dataset="ligo"
        ),
    )
    assert agent.collect_distributed(100, random_fraction=1.0) == 100
    # Every episode runs on a fresh replica, so its reset is free.
    assert windows == 100


def test_evaluation_on_a_fresh_env_simulates_exactly_its_steps():
    preset = dataset_preset("msd")
    env = make_env(
        preset["builder"](),
        config=SystemConfig(consumer_budget=preset["budget"]),
        seed=1000,
        background_rates=preset["rates"],
    )
    evaluate_allocator(HeftAllocator(), env, preset["bursts"][0], steps=30)
    assert env.system.window_index == 30
    assert env.reset_windows == 0


def test_serial_collection_spends_few_windows_on_resets():
    agent = MirasAgent(make_msd_env(seed=7), MirasConfig.msd_fast(), seed=7)
    assert agent.collect_real_interactions(100, random_fraction=1.0) == 100
    env = agent.env
    assert env.steps_taken == 100
    assert env.system.window_index == 100 + env.reset_windows
    # 0.73 reset windows per step behind the drain-to-zero reset.
    assert env.reset_windows / env.steps_taken <= 0.25
