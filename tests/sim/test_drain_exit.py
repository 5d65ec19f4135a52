"""The reset drain stops when nothing is waiting — and only that moved.

``MicroserviceWorkflowSystem.drain`` used to run until the WIP vector
summed to exactly zero, which Poisson background arrivals make a coin
flip, so most resets ran to the 40-window cap.  It now stops once no
request is *waiting* in any queue (what is left is in service) and does
nothing at all when that already holds.  The pre-change method is kept
verbatim in :mod:`tests.sim.reference_drain`; the first test drives both
over seeded random scenarios on both substrates and requires the new
drain to be a strict prefix of the old one — same allocation, same
windows, same RNG draws, it just stops earlier.
"""

import numpy as np
import pytest

from repro.sim import (
    BatchedWorkflowSystem,
    MicroserviceEnv,
    MicroserviceWorkflowSystem,
    SystemConfig,
    substrate_snapshot,
)
from repro.workflows import build_ligo_ensemble, build_msd_ensemble
from repro.workload import (
    LIGO_BACKGROUND_RATES,
    MSD_BACKGROUND_RATES,
    PoissonArrivalProcess,
)

from tests.sim.reference_drain import reference_drain

MAX_WINDOWS = 40

DATASETS = {
    "msd": (build_msd_ensemble, 14, MSD_BACKGROUND_RATES),
    "ligo": (build_ligo_ensemble, 30, LIGO_BACKGROUND_RATES),
}
SUBSTRATES = {
    "serial": MicroserviceWorkflowSystem,
    "batched": BatchedWorkflowSystem,
}


def build(dataset, substrate, mode, background, seed):
    builder, budget, rates = DATASETS[dataset]
    system = SUBSTRATES[substrate](
        builder(),
        SystemConfig(consumer_budget=budget, scale_down_mode=mode),
        seed=seed,
    )
    if background:
        PoissonArrivalProcess(rates).attach(system)
    return system


def loaded(dataset, substrate, mode, background, seed):
    """A system after a random burst and 0-2 randomly allocated windows."""
    system = build(dataset, substrate, mode, background, seed)
    _, budget, rates = DATASETS[dataset]
    script = np.random.default_rng(seed)
    system.inject_burst(
        {name: int(script.integers(0, 60)) for name in rates}
    )
    for _ in range(int(script.integers(0, 3))):
        shares = script.dirichlet(np.ones(system.ensemble.num_task_types))
        system.apply_allocation(np.floor(shares * budget).astype(int))
        system.run_window()
    return system


def nothing_ready(system):
    return all(
        ms.queue.ready_count == 0 for ms in system.microservices.values()
    )


def window_facts(observation):
    return (
        observation.wip.tolist(),
        observation.completions,
        observation.response_times,
        observation.task_completions,
    )


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("background", [False, True], ids=["quiet", "poisson"])
@pytest.mark.parametrize("mode", ["drain", "kill"])
@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_new_drain_is_a_prefix_of_the_old_one(
    dataset, substrate, mode, background, seed
):
    scenario = (dataset, substrate, mode, background, seed)
    new, old, stopped = loaded(*scenario), loaded(*scenario), loaded(*scenario)
    warmup = len(new.history)

    n_new = new.drain(max_windows=MAX_WINDOWS)
    n_old = reference_drain(old, max_windows=MAX_WINDOWS)

    assert n_new <= n_old
    assert len(new.history) == warmup + n_new
    assert [window_facts(o) for o in new.history] == [
        window_facts(o) for o in old.history[: warmup + n_new]
    ]
    assert nothing_ready(new) or n_new == MAX_WINDOWS
    assert new.conservation_ok()
    if n_new:
        # Stopping the old drain where the new one stops leaves the very
        # same system behind: queues, consumers, clock and RNG states.
        reference_drain(stopped, max_windows=n_new)
        assert substrate_snapshot(new) == substrate_snapshot(stopped)


@pytest.mark.parametrize("background", [False, True], ids=["quiet", "poisson"])
@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
def test_drain_on_an_empty_system_does_nothing(substrate, background):
    system = build("ligo", substrate, "drain", background, seed=9)
    before = substrate_snapshot(system)
    assert system.drain() == 0
    assert system.loop.processed == 0
    assert not system.current_allocation().any()
    assert not system.history
    assert substrate_snapshot(system) == before


def test_second_reset_in_a_row_is_free():
    env = MicroserviceEnv(loaded("msd", "serial", "drain", True, seed=6))
    env.reset()
    spent = env.reset_windows
    assert spent >= 1
    windows = env.system.window_index
    env.reset()
    assert env.reset_windows == spent
    assert env.system.window_index == windows
    assert env.episodes == 2
