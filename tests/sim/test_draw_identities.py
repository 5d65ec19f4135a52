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
"""

import math
import struct

import numpy as np
import pytest

from repro.eval.experiments import dataset_preset
from repro.sim.consumer import service_time_params
from repro.sim.microservice import STARTUP_DELAY_RANGE

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
