"""The generated-scenario harness (``tests/sim/scenarios.py``): every
tier-1 scenario through every equality, the replay's share of the
windows it should take, what the generator draws, and a shrink."""

import pytest

from repro.sim import BatchedWorkflowSystem, MicroserviceWorkflowSystem

from tests.sim import scenarios
from tests.sim.scenarios import (
    REPLAYED_SHARE_FLOOR,
    SCENARIOS,
    drive,
    generate,
    replayable,
    verify,
)

#: ``seed -> (windows, windows replayed)`` of the batched runs so far.
REPLAYED = {}


@pytest.mark.parametrize("seed", range(SCENARIOS))
def test_scenario(seed):
    REPLAYED[seed] = verify(generate(seed))


def test_the_replay_takes_the_windows_it_should():
    """The batched side would match by never replaying; so over the
    scenarios that draw no tie and no callback, a floor share of the
    windows must be replayed (all of them, measured)."""
    windows = replayed = 0
    for seed in range(SCENARIOS):
        scenario = generate(seed)
        if not replayable(scenario):
            continue
        if seed not in REPLAYED:
            system, _ = drive(BatchedWorkflowSystem, scenario)
            REPLAYED[seed] = system.window_index, system.fast_windows
        windows += REPLAYED[seed][0]
        replayed += REPLAYED[seed][1]
    assert replayed >= REPLAYED_SHARE_FLOOR * windows > 0, (
        f"only {replayed} of {windows} windows replayed"
    )


def test_generator_draws_every_ingredient():
    """The tier-1 seeds cover what the harness claims to draw."""
    seen, budgets, windows = set(), set(), set()
    for seed in range(SCENARIOS):
        s = generate(seed)
        budgets.add(s.budget)
        windows.add(s.window)
        steps = s.plan
        seen |= {s.ensemble, s.scale_down, s.background, s.startup}
        seen.update(name for name, drawn in (
            ("stopped", s.stop_before is not None),
            ("chaos", s.chaos),
            ("zero allocation", any(not any(a) for step in steps for a in step[1])),
            ("two allocations", any(len(step[1]) == 2 for step in steps)),
            ("kept allocation", any(not step[1] for step in steps)),
            ("burst", any(step[2] for step in steps)),
            ("crash", any(step[3] for step in steps)),
            ("reset", any(step[0] for step in steps)),
        ) if drawn)
    assert (min(budgets), max(budgets)) == (6, 300)
    assert (min(windows), max(windows)) == (5.0, 120.0)
    assert {
        "msd", "ligo", "random", "fixed", "drain", "kill",
        None, "poisson", "deterministic", "stopped", (1.0, 1.0), (1.0, 6.0),
        "chaos", "zero allocation", "two allocations", "kept allocation",
        "burst", "crash", "reset",
    } <= seen, seen


class DropsABurstRequest(MicroserviceWorkflowSystem):
    """Broken on purpose: a burst of more than 30 requests from window 2
    on loses one request."""

    def inject_burst(self, burst):
        if self.window_index >= 2 and sum(burst.values()) > 30:
            first = next(iter(burst))
            burst = {**burst, first: burst[first] - 1}
        super().inject_burst(burst)


def test_a_failure_shrinks_to_a_one_line_repro():
    original = generate(11)  # MSD, 6 windows, bursts of 137 and 113 in 1 and 2
    with pytest.raises(AssertionError) as failed:
        verify(original, DropsABurstRequest)
    message, repro = str(failed.value).rsplit("\n", 1)
    assert repro.startswith("check(Scenario(") and repro.endswith("))")
    shrunk = eval(repro[len("check("):-1], vars(scenarios))
    assert len(shrunk.plan) < len(original.plan)
    largest = max(sum(n for _, n in step[2]) for step in shrunk.plan)
    assert 30 < largest < max(sum(n for _, n in step[2]) for step in original.plan)
    # The repro fails the same way.
    with pytest.raises(AssertionError) as again:
        verify(shrunk, DropsABurstRequest)
    assert str(again.value).split(" (shrunk")[0] == message.split(" (shrunk")[0]
