"""The serial substrate's draws equal numpy's distribution methods, bit for bit.

The serial microservice and its arrival streams draw through the bit
generator's cheapest calls instead of numpy's distribution methods:

- a service time is ``math.exp(mu + sigma * g.standard_normal())``
  where it was ``g.lognormal(mu, sigma)``,
- a Poisson gap is ``scale * g.standard_exponential()`` where it was
  ``g.exponential(scale)``,
- a start-up delay is ``low + (high - low) * g.random()`` where it was
  ``g.uniform(low, high)``.

Each pair is the same arithmetic on the same draw of the bit generator:
numpy's C ``random_lognormal`` is ``exp(loc + scale * z)``,
``random_exponential`` is ``scale * random_standard_exponential`` and
``random_uniform`` is ``lower + range * next_double``.  The identities
assume two things of the build: that the C compiler did not contract
numpy's ``loc + scale * z`` (or ``lower + range * u``) into a fused
multiply-add, which rounds once where Python rounds twice, and that
``math.exp`` is the same libm ``exp`` numpy calls.  A build or host
where either fails fails here first, by name, rather than in a golden
pin.  Every (mu, sigma) of the MSD and LIGO preset task types, every
preset background rate and the start-up range are checked, and the
bit generator must be in the same state after both.

A profiler cannot see which of these calls a run makes: numpy's
``Generator`` methods are Cython functions, which raise no ``call`` or
``c_call`` profile event, so the interpreter-call budgets of
tests/sim/test_dispatch_order.py would pass with the distribution
methods put back.  The last test records them instead, through a proxy
on every stream of a serial system.
"""

import collections
import math
import struct

import numpy as np
import pytest

from repro.baselines import HeftAllocator
from repro.eval.experiments import dataset_preset
from repro.eval.runner import evaluate_allocator
from repro.sim import MicroserviceWorkflowSystem, SystemConfig
from repro.sim.consumer import service_time_params
from repro.sim.env import MicroserviceEnv
from repro.sim.microservice import STARTUP_DELAY_RANGE
from repro.utils.rng import RngStream
from repro.workload import PoissonArrivalProcess

DRAWS = 5000
PRESETS = ("msd", "ligo")


def bits(values):
    """The IEEE-754 bit patterns of ``values`` (``==`` would equate 0.0
    and -0.0)."""
    return [struct.pack("<d", value) for value in values]


def twin_generators(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def assert_same_stream(ours, numpys, g_ours, g_numpy):
    assert all(type(value) is float for value in ours)
    assert bits(ours) == bits(numpys)
    assert g_ours.bit_generator.state == g_numpy.bit_generator.state


def lognormal_cases():
    cases = set()
    for name in PRESETS:
        for task_type in dataset_preset(name)["builder"]().task_types:
            fixed, mu, sigma = service_time_params(
                task_type.mean_service_time, task_type.cv
            )
            if fixed is None:
                cases.add((mu, sigma))
    return sorted(cases)


def exponential_cases():
    scales = set()
    for name in PRESETS:
        preset = dataset_preset(name)
        rate_maps = [preset["rates"]] + [
            burst.background_rates for burst in preset["bursts"]
        ]
        for rates in rate_maps:
            scales.update(1.0 / rate for rate in rates.values())
    return sorted(scales)


@pytest.mark.parametrize("mu, sigma", lognormal_cases())
def test_service_time_is_numpys_lognormal(mu, sigma):
    g_ours, g_numpy = twin_generators(seed=int(mu * 1e6))
    standard_normal = g_ours.standard_normal
    ours = [math.exp(mu + sigma * standard_normal()) for _ in range(DRAWS)]
    numpys = [g_numpy.lognormal(mu, sigma) for _ in range(DRAWS)]
    assert_same_stream(ours, numpys, g_ours, g_numpy)


@pytest.mark.parametrize("scale", exponential_cases())
def test_arrival_gap_is_numpys_exponential(scale):
    g_ours, g_numpy = twin_generators(seed=int(scale * 1e3))
    standard_exponential = g_ours.standard_exponential
    ours = [scale * standard_exponential() for _ in range(DRAWS)]
    numpys = [g_numpy.exponential(scale) for _ in range(DRAWS)]
    assert_same_stream(ours, numpys, g_ours, g_numpy)


def test_startup_delay_is_numpys_uniform():
    low, high = STARTUP_DELAY_RANGE
    g_ours, g_numpy = twin_generators(seed=5)
    ours = [low + (high - low) * g_ours.random() for _ in range(DRAWS)]
    numpys = [g_numpy.uniform(low, high) for _ in range(DRAWS)]
    assert_same_stream(ours, numpys, g_ours, g_numpy)


def test_the_cases_cover_both_presets():
    # An empty case list would skip its test, not fail it.  The four MSD
    # and nine LIGO task types make 12 distinct (mu, sigma) (LIGO's
    # Thinca and Inca share one); the rates are 0.1, 0.08, 0.12, 0.06
    # and 0.036 per second.
    assert len(lognormal_cases()) == 12
    assert len(exponential_cases()) == 5


class RecordingGenerator:
    """A numpy ``Generator`` that counts the calls of each of its methods
    by name and otherwise behaves as the generator it wraps."""

    def __init__(self, generator):
        self._generator = generator
        self.calls = collections.Counter()

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if not callable(attr):
            return attr
        calls = self.calls

        def record(*args, **kwargs):
            calls[name] += 1
            return attr(*args, **kwargs)

        return record


def test_a_serial_cell_draws_only_through_the_cheapest_calls(monkeypatch):
    """One MSD heft cell under Poisson background, every stream of the
    system recorded from its birth: no distribution method is called,
    and each dispatch of a task type with cv > 0 draws exactly one
    ``standard_normal``."""
    make_stream = RngStream.__init__

    def recording_stream(self, name, seed_sequence):
        make_stream(self, name, seed_sequence)
        self.generator = RecordingGenerator(self.generator)

    preset = dataset_preset("msd")
    scenario = preset["bursts"][0]
    with monkeypatch.context() as patch:
        patch.setattr(RngStream, "__init__", recording_stream)
        system = MicroserviceWorkflowSystem(
            preset["builder"](),
            SystemConfig(consumer_budget=preset["budget"]),
            seed=1000,
        )
        PoissonArrivalProcess(dict(scenario.background_rates)).attach(system)
    evaluate_allocator(HeftAllocator(), MicroserviceEnv(system), scenario, 30)

    named, arrivals = system.rng_streams()
    services = [ms.rng for ms in system.microservices.values()]
    streams = [*named.values(), *arrivals, *services]
    assert arrivals and all(
        isinstance(stream.generator, RecordingGenerator) for stream in streams
    )
    calls = sum(
        (stream.generator.calls for stream in streams), collections.Counter()
    )
    for method in ("lognormal", "exponential", "uniform"):
        assert calls[method] == 0, method
    assert calls["standard_exponential"] > 0  # the background is live

    drawn = 0
    for ms in system.microservices.values():
        dispatches = ms.acked_total + ms.redelivered_total + ms.unacked_count
        draws = ms.rng.generator.calls["standard_normal"]
        assert draws == (dispatches if ms.task_type.cv > 0 else 0), ms.name
        drawn += draws
    assert drawn > 0 and calls["standard_normal"] == drawn
