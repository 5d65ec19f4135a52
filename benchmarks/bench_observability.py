"""Observability micro-benchmarks: aggregation, exposition, and the
cost of having telemetry compiled in but switched off.

Not a paper figure — these guard the observability subsystem's two
performance contracts (docs/OBSERVABILITY.md):

- the **NULL path** (disabled tracer) must stay cheap per
  instrumentation site — gated in ns per site by
  ``run_observability_bench.py --check``,
- the **enabled path** (MetricsSink tee, aggregation replay, Prometheus
  rendering) should be cheap enough to leave on for any traced run.
"""

import numpy as np

from repro.sim.system import MicroserviceWorkflowSystem, SystemConfig
from repro.telemetry import (
    MemorySink,
    MetricsSink,
    NULL_TRACER,
    Tracer,
    aggregate_trace,
)
from repro.workflows import build_msd_ensemble
from repro.workload import PoissonArrivalProcess
from repro.workload.bursts import MSD_BACKGROUND_RATES

#: Guard evaluations per timed call in the disabled-path benchmarks:
#: large enough that the loop body dominates the call overhead.
GUARD_BATCH = 10_000


def _loaded_system(tracer=None):
    system = MicroserviceWorkflowSystem(
        build_msd_ensemble(),
        SystemConfig(consumer_budget=14),
        seed=0,
        tracer=tracer,
    )
    PoissonArrivalProcess(MSD_BACKGROUND_RATES).attach(system)
    system.inject_burst({"Type1": 200, "Type2": 100, "Type3": 100})
    system.apply_allocation([4, 4, 3, 3])
    return system


def _sample_trace(windows: int = 5):
    """Records from a short traced run of the loaded MSD system."""
    sink = MemorySink()
    system = _loaded_system(tracer=Tracer(sink))
    for _ in range(windows):
        system.run_window()
    return list(sink.records)


def test_metrics_aggregation_throughput(benchmark):
    """Records/second through the streaming aggregation engine.

    This is the replay path of ``repro metrics`` and the per-record cost
    a live :class:`MetricsSink` adds on top of its downstream sink.
    """
    records = _sample_trace()

    result = benchmark(aggregate_trace, records)
    assert result.aggregator.snapshot()["families"]


def test_prometheus_rendering(benchmark):
    """Rendering the text exposition format from a populated registry."""
    sink = aggregate_trace(_sample_trace())

    text = benchmark(sink.to_prometheus)
    assert "repro_response_time_seconds_bucket" in text


def test_window_throughput_with_metrics_sink(benchmark):
    """run_window with the full live tee: Tracer -> MetricsSink -> memory.

    Compare with ``test_simulator_window_throughput_traced`` (plain
    MemorySink) for the marginal cost of live aggregation.
    """
    sink = MetricsSink(MemorySink())
    system = _loaded_system(tracer=Tracer(sink))

    benchmark(system.run_window)
    assert system.conservation_ok()
    assert sink.aggregator.snapshot()["families"]


def test_disabled_tracer_guard(benchmark):
    """Cost of ``if tracer.enabled:`` at an instrumented site, per batch.

    This is the *entire* disabled-path cost a hot loop pays per site:
    one attribute read and a branch.  The standalone runner divides the
    per-batch time by :data:`GUARD_BATCH` to get per-site nanoseconds.
    """
    tracer = NULL_TRACER

    def guards():
        hits = 0
        for _ in range(GUARD_BATCH):
            if tracer.enabled:
                hits += 1  # pragma: no cover - tracer is disabled
        return hits

    assert benchmark(guards) == 0


def test_histogram_observe(benchmark):
    """Histogram ingest cost (bucket increment + value append)."""
    from repro.telemetry.metrics import Histogram, RESPONSE_TIME_BUCKETS

    values = np.random.default_rng(0).uniform(0, 2000, GUARD_BATCH).tolist()

    def observe_all():
        hist = Histogram(RESPONSE_TIME_BUCKETS)
        for value in values:
            hist.observe(value)
        return hist

    hist = benchmark(observe_all)
    assert hist.count == GUARD_BATCH
