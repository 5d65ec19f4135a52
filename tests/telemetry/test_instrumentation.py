"""End-to-end instrumentation tests: the simulator and training loop
emit schema-valid records, traces are deterministic, and the disabled
path stays silent."""

import json

import pytest

from repro.sim import MicroserviceEnv, MicroserviceWorkflowSystem, SystemConfig
from repro.sim.microservice import STARTUP_DELAY_RANGE
from repro.telemetry import (
    NULL_TRACER,
    JsonlSink,
    MemorySink,
    Tracer,
    validate_record,
)
from repro.workflows import build_msd_ensemble
from repro.workload import MSD_BACKGROUND_RATES, PoissonArrivalProcess


def traced_system(tracer, seed=3):
    system = MicroserviceWorkflowSystem(
        build_msd_ensemble(),
        SystemConfig(consumer_budget=14),
        seed=seed,
        tracer=tracer,
    )
    PoissonArrivalProcess(MSD_BACKGROUND_RATES).attach(system)
    return system


def drive(system, windows=4):
    system.inject_burst({"Type3": 10})
    system.apply_allocation([4, 4, 3, 3])
    system.run_window()
    system.microservices["Preprocess"].crash_one()
    system.apply_allocation([0, 6, 4, 4])  # kill path -> redeliveries
    for _ in range(windows - 1):
        system.run_window()


class TestSimInstrumentation:
    def test_emits_schema_valid_records_of_expected_kinds(self):
        sink = MemorySink()
        system = traced_system(Tracer(sink))
        drive(system)
        assert system.conservation_ok()
        for record in sink.records:
            validate_record(record)
        kinds = {record["kind"] for record in sink.records}
        assert {
            "event.arrival", "event.workflow_complete", "event.publish",
            "event.redeliver", "event.consumer_start",
            "event.consumer_ready", "event.consumer_stop", "event.fault",
            "span.window",
        } <= kinds

    def test_timestamps_follow_simulation_clock(self):
        sink = MemorySink()
        system = traced_system(Tracer(sink))
        drive(system)
        times = [r["t"] for r in sink.records]
        assert all(t is not None for t in times)
        assert times == sorted(times)
        assert times[-1] == pytest.approx(system.loop.now)

    def test_window_span_matches_observation(self):
        sink = MemorySink()
        system = traced_system(Tracer(sink))
        system.inject_burst({"Type3": 5})
        system.apply_allocation([4, 4, 3, 3])
        observation = system.run_window()
        spans = [r for r in sink.records if r["kind"] == "span.window"]
        assert len(spans) == 1
        span = spans[0]
        assert span["index"] == 0
        assert span["reward"] == pytest.approx(observation.reward)
        assert span["end"] - span["start"] == pytest.approx(
            system.config.window_length
        )
        names = list(system.microservices)
        for i, name in enumerate(names):
            assert span["wip"][name] == pytest.approx(observation.wip[i])

    def test_startup_latency_in_configured_range(self):
        sink = MemorySink()
        system = traced_system(Tracer(sink))
        drive(system)
        low, high = STARTUP_DELAY_RANGE
        readies = [r for r in sink.records
                   if r["kind"] == "event.consumer_ready"]
        assert readies
        for record in readies:
            assert low <= record["startup_latency"] <= high


class TestDisabledPath:
    def test_untraced_run_leaves_null_tracer_silent(self):
        before = NULL_TRACER.records_written
        system = traced_system(NULL_TRACER)
        drive(system)
        assert system.tracer is NULL_TRACER
        assert NULL_TRACER.records_written == before
        assert NULL_TRACER.counters == {}
        assert NULL_TRACER.now() is None

    def test_default_system_uses_null_tracer(self):
        system = MicroserviceWorkflowSystem(
            build_msd_ensemble(), SystemConfig(consumer_budget=14), seed=0
        )
        assert system.tracer is NULL_TRACER
        for microservice in system.microservices.values():
            assert microservice.tracer is NULL_TRACER


class TestTraceDeterminism:
    def test_same_seed_produces_identical_trace_bytes(self, tmp_path):
        contents = []
        for run in ("a", "b"):
            path = tmp_path / run / "trace.jsonl"
            tracer = Tracer(JsonlSink(path))
            system = traced_system(tracer, seed=11)
            drive(system)
            tracer.close()
            contents.append(path.read_bytes())
        assert contents[0] == contents[1]
        assert len(contents[0]) > 0

    def test_different_seeds_diverge(self, tmp_path):
        contents = []
        for seed in (11, 12):
            path = tmp_path / str(seed) / "trace.jsonl"
            tracer = Tracer(JsonlSink(path))
            drive(traced_system(tracer, seed=seed))
            tracer.close()
            contents.append(path.read_bytes())
        assert contents[0] != contents[1]


class TestTrainingInstrumentation:
    @pytest.fixture(scope="class")
    def training_trace(self):
        from repro.core import MirasAgent
        from repro.core.config import MirasConfig, ModelConfig, PolicyConfig
        from repro.rl.ddpg import DDPGConfig

        tiny = MirasConfig(
            model=ModelConfig(hidden_sizes=(8,), epochs=3),
            policy=PolicyConfig(
                ddpg=DDPGConfig(hidden_sizes=(16,), batch_size=8),
                rollout_length=5,
                rollouts_per_iteration=2,
                patience=2,
            ),
            steps_per_iteration=20,
            reset_interval=10,
            iterations=1,
            eval_steps=3,
        )
        sink = MemorySink()
        tracer = Tracer(sink)
        system = traced_system(tracer, seed=0)
        agent = MirasAgent(MicroserviceEnv(system), tiny, seed=0)
        agent.iterate()
        return sink.records, tracer

    def test_training_metrics_emitted_and_valid(self, training_trace):
        records, _ = training_trace
        metrics = [r for r in records if r["kind"] == "metric"]
        for record in metrics:
            validate_record(record)
        names = {r["name"] for r in metrics}
        assert {
            "model/epoch_loss", "train/model_loss", "train/eval_reward",
            "train/dataset_size", "train/param_noise_sigma",
            "train/refinement_lends", "train/refinement_lend_delta",
        } <= names

    def test_agent_inherits_system_tracer(self, training_trace):
        _, tracer = training_trace
        assert tracer.counters.get("refinement/lends", 0) > 0

    def test_trace_serialises_to_json(self, training_trace):
        records, _ = training_trace
        for record in records:
            json.dumps(record)
