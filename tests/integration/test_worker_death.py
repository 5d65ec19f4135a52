"""A pool worker that dies is a named, bounded-time error, not a bare
``BrokenProcessPool`` — and whatever came back before it stays ingested.

Both process paths map through ``repro.utils.pool.ordered_pool_map``:
the physical collector and the experiment sweep.  Each test SIGKILLs a
real child mid-map.  The caller runs spec 0 itself and steals specs the
pool has not started, so each test makes its spec 0 slow, has its fatal
spec among those the pool starts or queues at once, and the kill refuses
to fire in the test process.
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
    started = time.monotonic()
    yield
    assert time.monotonic() - started < seconds


TEST_PID = os.getpid()


#: How long each test's spec 0 keeps the caller busy: the pool has
#: started or queued its first ``W + 1`` specs long before.
CALLER_PAUSE_S = 0.3


def pool_runs(index, workers):
    """Whether spec ``index`` is one the pool starts or queues at once
    (its call queue holds one spec more than it has workers), so a caller
    kept busy on spec 0 can no longer steal it."""
    return 1 <= index <= workers + 1


def kill_this_worker():
    if os.getpid() == TEST_PID:
        raise AssertionError("the fatal spec ran in the calling process")
    os.kill(os.getpid(), signal.SIGKILL)


def env_that_dies_at(seed, fatal_seed, slow_seed):
    """EnvSpec factory: the replica of one episode kills its worker, after
    a pause that lets the episodes already in flight come back; another
    one (the caller's) is slow to build."""
    if seed == slow_seed:
        time.sleep(CALLER_PAUSE_S)
    if seed == fatal_seed:
        time.sleep(0.3)
        kill_this_worker()
    return build_training_env(seed=seed, dataset="msd")


def test_killed_collector_worker_names_the_episode_and_keeps_the_prefix():
    config = small_config("physical", 2)
    config.reset_interval = 10
    plan = episode_plan(40, 10, config.policy.collect_lanes, root_seed=7)
    assert pool_runs(2, config.policy.collect_workers)
    spec = EnvSpec.make(
        f"{__name__}:env_that_dies_at",
        fatal_seed=plan[2].env_seed,
        slow_seed=plan[0].env_seed,
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


def _fatal_experiment(seed, fatal=False, slow=False):
    if slow:
        time.sleep(CALLER_PAUSE_S)
    if fatal:
        kill_this_worker()
    return {"seed": seed}


def test_killed_sweep_worker_names_the_cell(monkeypatch):
    # Forked workers inherit the patched registry.
    monkeypatch.setitem(parallel.EXPERIMENTS, "fatal", _fatal_experiment)
    cells = [
        parallel.ExperimentCell.make(
            "fatal", r, {"fatal": r == 1, "slow": r == 0}
        )
        for r in range(3)
    ]
    assert pool_runs(1, workers=2)
    with bounded(), pytest.raises(
        WorkerDied, match=r"cell fatal\S* is the first"
    ) as info:
        parallel.run_cells(cells, root_seed=3, workers=2)
    assert cells[2].label not in str(info.value)
