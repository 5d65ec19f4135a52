"""A pool worker that dies is a named, bounded-time error, not a bare
``BrokenProcessPool`` — and whatever came back before it stays ingested.

Both process paths map through ``repro.utils.pool.ordered_pool_map``:
the physical collector and the experiment sweep.  Each test SIGKILLs a
real child mid-map.
"""

import contextlib
import os
import re
import signal
import time

import pytest

from repro.core.agent import MirasAgent
from repro.eval import parallel
from repro.eval.experiments import build_training_env
from repro.rl.distributed import EnvSpec, episode_plan
from repro.utils.pool import WorkerDied

from tests.core.test_agent_distributed import small_config


@contextlib.contextmanager
def bounded(seconds=60.0):
    """The error must arrive, not a hang: real wall-clock on purpose."""
    started = time.monotonic()  # reprolint: disable=D102
    yield
    assert time.monotonic() - started < seconds  # reprolint: disable=D102


def env_that_dies_at(seed, fatal_seed):
    """EnvSpec factory: the replica of one episode kills its worker, after
    a pause that lets the episodes already in flight come back."""
    if seed == fatal_seed:
        time.sleep(0.3)
        os.kill(os.getpid(), signal.SIGKILL)
    return build_training_env(seed=seed, dataset="msd")


def test_killed_collector_worker_names_the_episode_and_keeps_the_prefix():
    config = small_config("physical", 2)
    config.reset_interval = 10
    plan = episode_plan(40, 10, config.policy.collect_lanes, root_seed=7)
    spec = EnvSpec.make(
        f"{__name__}:env_that_dies_at", fatal_seed=plan[2].env_seed
    )
    agent = MirasAgent(build_training_env(seed=7), config, seed=7, env_spec=spec)
    with bounded(), pytest.raises(
        WorkerDied, match=r"episode \d+ is the first"
    ) as info:
        agent.collect_distributed(40, random_fraction=1.0)
    # Episode 2 never returns (on a loaded host an earlier one may still
    # have been in flight); what was handed over is exactly the prefix.
    lost = int(re.search(r"episode (\d+)", str(info.value)).group(1))
    assert lost <= 2
    assert len(agent.dataset) == len(agent.ddpg.replay) == 10 * lost


def _fatal_experiment(seed, fatal=False):
    if fatal:
        os.kill(os.getpid(), signal.SIGKILL)
    return {"seed": seed}


def test_killed_sweep_worker_names_the_cell(monkeypatch):
    # Forked workers inherit the patched registry.
    monkeypatch.setitem(parallel.EXPERIMENTS, "fatal", _fatal_experiment)
    cells = [
        parallel.ExperimentCell.make("fatal", r, {"fatal": r == 1})
        for r in range(3)
    ]
    with bounded(), pytest.raises(
        WorkerDied, match=r"cell fatal\S* is the first"
    ) as info:
        parallel.run_cells(cells, root_seed=3, workers=2)
    assert cells[2].label not in str(info.value)
