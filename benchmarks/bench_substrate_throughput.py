"""Substrate micro-benchmarks: raw simulator and learning-stack throughput.

Not a paper figure — these are conventional performance benchmarks so
regressions in the discrete-event engine or the numpy NN stack are caught.
They use pytest-benchmark's statistics properly (multiple rounds).
"""

import numpy as np

from repro.core.dataset import TransitionDataset
from repro.core.environment_model import EnvironmentModel
from repro.rl.ddpg import DDPGAgent, DDPGConfig
from repro.sim.batched import BatchedWorkflowSystem
from repro.sim.system import MicroserviceWorkflowSystem, SystemConfig
from repro.telemetry import MemorySink, Tracer
from repro.utils.rng import RngStream
from repro.workflows import build_msd_ensemble
from repro.workload import PoissonArrivalProcess
from repro.workload.bursts import MSD_BACKGROUND_RATES


def _loaded_system(tracer=None, cls=MicroserviceWorkflowSystem):
    system = cls(
        build_msd_ensemble(),
        SystemConfig(consumer_budget=14),
        seed=0,
        tracer=tracer,
    )
    PoissonArrivalProcess(MSD_BACKGROUND_RATES).attach(system)
    system.inject_burst({"Type1": 200, "Type2": 100, "Type3": 100})
    system.apply_allocation([4, 4, 3, 3])
    return system


def test_simulator_window_throughput(benchmark):
    """Windows/second of the loaded MSD system under uniform allocation.

    This is the untraced path: every instrumentation site sees the
    disabled NULL_TRACER, so its cost per event is one attribute read and
    a branch.  docs/OBSERVABILITY.md quotes the <= 2% overhead budget
    against this benchmark.
    """
    system = _loaded_system()

    benchmark(system.run_window)
    assert system.conservation_ok()


def test_simulator_window_throughput_traced(benchmark):
    """Same workload with tracing on (in-memory sink).

    Comparing against ``test_simulator_window_throughput`` gives the cost
    of building and recording the trace dicts themselves — the enabled
    path, dominated by record construction, not the sink.
    """
    sink = MemorySink()
    system = _loaded_system(tracer=Tracer(sink))

    benchmark(system.run_window)
    assert system.conservation_ok()
    assert len(sink) > 0


def test_batched_window_throughput(benchmark):
    """Batched-substrate twin of ``test_simulator_window_throughput``.

    Same paper-scale workload on ``BatchedWorkflowSystem``; at 14
    consumers the two are about level (the batched substrate pays its
    per-window setup on tiny windows), and any regression in the
    batched per-event path shows up here with pytest-benchmark's
    statistics; benchmarks/run_substrate_bench.py gates the
    production-scale pair.
    """
    system = _loaded_system(cls=BatchedWorkflowSystem)

    benchmark(system.run_window)
    assert system.conservation_ok()


def test_batched_window_throughput_loaded(benchmark):
    """Batched substrate at an operator-scale consumer budget.

    512 consumers and a 4,000-workflow burst, batched system only
    (run_substrate_bench.py measures the serial/batched pair at 4,096
    consumers and gates their parity).
    """
    system = BatchedWorkflowSystem(
        build_msd_ensemble(),
        SystemConfig(consumer_budget=512, window_length=60.0),
        seed=0,
    )
    system.apply_allocation([176, 176, 112, 48])
    system.inject_burst({"Type1": 2000, "Type2": 1000, "Type3": 1000})

    benchmark(system.run_window)
    assert system.conservation_ok()


def test_environment_model_training_step(benchmark):
    """One epoch of environment-model training on 1,000 transitions."""
    rng = RngStream("bench", np.random.SeedSequence(0))
    dataset = TransitionDataset(4, 4)
    data_rng = np.random.default_rng(0)
    for _ in range(1000):
        dataset.add(
            data_rng.uniform(0, 100, 4),
            data_rng.uniform(0, 4, 4),
            data_rng.uniform(0, 100, 4),
        )
    model = EnvironmentModel(4, 4, hidden_sizes=(20, 20, 20), rng=rng)

    benchmark(model.fit, dataset, epochs=1)


def test_ddpg_update_step(benchmark):
    """One DDPG update (critic + actor + target sync) at paper-size nets."""
    agent = DDPGAgent(
        4,
        4,
        config=DDPGConfig(hidden_sizes=(256, 256, 256), batch_size=64),
        rng=RngStream("bench", np.random.SeedSequence(1)),
    )
    data_rng = np.random.default_rng(2)
    for _ in range(256):
        state = data_rng.uniform(0, 100, 4)
        agent.store(state, np.full(4, 0.25), -float(state.sum()), state)

    benchmark(agent.update)
