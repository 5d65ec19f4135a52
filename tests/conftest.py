"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.sim.env import MicroserviceEnv
from repro.sim.system import MicroserviceWorkflowSystem, SystemConfig
from repro.utils.rng import RngStream
from repro.workflows import build_ligo_ensemble, build_msd_ensemble
from repro.workload import (
    LIGO_BACKGROUND_RATES,
    MSD_BACKGROUND_RATES,
    PoissonArrivalProcess,
)

from tests import sanitizer as _sanitizer


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "no_sanitize: skip the REPRO_SANITIZE runtime checks for this test "
        "(for tests that deliberately exercise label re-use or raw records)",
    )


@pytest.fixture(autouse=True)
def _repro_sanitize(request):
    """Run every test under the runtime sanitizer when REPRO_SANITIZE=1.

    The sanitizer asserts the dynamic half of the determinism contract —
    fork-label collisions and emit-schema conformance — per test, with a
    fresh registry each time.  CI exercises this as its own matrix entry.
    Tests that deliberately violate a contract (e.g. pinning the documented
    "re-used labels still yield fresh streams" fork semantics) opt out with
    ``@pytest.mark.no_sanitize``.
    """
    if (
        not _sanitizer.sanitize_requested()
        or request.node.get_closest_marker("no_sanitize") is not None
    ):
        yield
        return
    with _sanitizer.sanitized():
        yield


@pytest.fixture
def rng():
    """A deterministic RNG stream for tests."""
    return RngStream("test", np.random.SeedSequence(12345))


@pytest.fixture
def msd_ensemble():
    return build_msd_ensemble()


@pytest.fixture
def ligo_ensemble():
    return build_ligo_ensemble()


def set_startup_delay(system, delay_range):
    """``system`` with every container start-up drawn from ``delay_range``
    instead of :data:`repro.sim.microservice.STARTUP_DELAY_RANGE`; call it
    before the first allocation."""
    for ms in system.microservices.values():
        ms.startup_delay_range = delay_range
    return system


def make_msd_env(seed=0, consumer_budget=14, with_arrivals=True,
                 startup_delay_range=None, **config_kwargs):
    """Helper: a full MSD environment with background workload."""
    system = MicroserviceWorkflowSystem(
        build_msd_ensemble(),
        SystemConfig(consumer_budget=consumer_budget, **config_kwargs),
        seed=seed,
    )
    if startup_delay_range is not None:
        set_startup_delay(system, startup_delay_range)
    if with_arrivals:
        PoissonArrivalProcess(MSD_BACKGROUND_RATES).attach(system)
    return MicroserviceEnv(system)


def make_ligo_env(seed=0, consumer_budget=30, with_arrivals=True, **config_kwargs):
    """Helper: a full LIGO environment with background workload."""
    system = MicroserviceWorkflowSystem(
        build_ligo_ensemble(),
        SystemConfig(consumer_budget=consumer_budget, **config_kwargs),
        seed=seed,
    )
    if with_arrivals:
        PoissonArrivalProcess(LIGO_BACKGROUND_RATES).attach(system)
    return MicroserviceEnv(system)


@pytest.fixture
def msd_env():
    return make_msd_env()


@pytest.fixture
def ligo_env():
    return make_ligo_env()
