"""Tests for arrival processes."""

import pytest

from repro.sim.system import MicroserviceWorkflowSystem, SystemConfig
from repro.workflows import build_msd_ensemble
from repro.workload import DeterministicArrivalProcess, PoissonArrivalProcess


def make_system(seed=0):
    return MicroserviceWorkflowSystem(
        build_msd_ensemble(), SystemConfig(consumer_budget=14), seed=seed
    )


class TestPoissonArrivals:
    def test_rate_is_approximately_honoured(self):
        system = make_system(seed=1)
        process = PoissonArrivalProcess({"Type1": 0.2}).attach(system)
        system.loop.run_until(5000.0)
        expected = 0.2 * 5000
        assert abs(process.submitted - expected) < 0.15 * expected

    def test_zero_rate_generates_nothing(self):
        system = make_system()
        process = PoissonArrivalProcess({"Type1": 0.0}).attach(system)
        system.loop.run_until(1000.0)
        assert process.submitted == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrivalProcess({"Type1": -0.1})

    def test_unknown_workflow_rejected_at_attach(self):
        system = make_system()
        with pytest.raises(KeyError):
            PoissonArrivalProcess({"Nope": 0.1}).attach(system)

    def test_stop_halts_arrivals(self):
        system = make_system()
        process = PoissonArrivalProcess({"Type1": 1.0}).attach(system)
        system.loop.run_until(50.0)
        count = process.submitted
        process.stop()
        system.loop.run_until(200.0)
        assert process.submitted == count

    def test_double_attach_rejected(self):
        system = make_system()
        process = PoissonArrivalProcess({"Type1": 0.1}).attach(system)
        with pytest.raises(RuntimeError):
            process.attach(system)

    def test_same_seed_gives_identical_arrivals(self):
        def arrivals(seed):
            system = make_system(seed=seed)
            PoissonArrivalProcess({"Type1": 0.3}).attach(system)
            system.loop.run_until(300.0)
            return [
                o.arrivals.get("Type1", 0)
                for o in [system.run_window() for _ in range(3)]
            ]

        assert arrivals(5) == arrivals(5)


class TestDeterministicArrivals:
    def test_exact_count(self):
        system = make_system()
        process = DeterministicArrivalProcess({"Type1": 10.0}).attach(system)
        system.loop.run_until(100.0)
        assert process.submitted == 10

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            DeterministicArrivalProcess({"Type1": 0.0})
