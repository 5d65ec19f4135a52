"""Tests for the microservice consumer pool: scaling, processing, draining."""

import numpy as np
import pytest

from repro.sim.cluster import Cluster
from repro.sim.consumer import ConsumerState, service_time_params
from repro.sim.events import EventLoop
from repro.sim.microservice import Microservice
from repro.sim.requests import TaskRequest, WorkflowRequest
from repro.utils.rng import RngStream
from repro.workflows.dag import TaskType


def build(
    mean=2.0,
    cv=0.0,
    startup=(0.0, 0.0),
    scale_down_mode="drain",
    capacity=50,
    seed=5,
):
    loop = EventLoop()
    cluster = Cluster(num_nodes=3, node_capacity=capacity)
    completed = []
    ms = Microservice(
        TaskType("A", mean, cv=cv),
        loop=loop,
        cluster=cluster,
        rng=RngStream("ms", np.random.SeedSequence(seed)),
        on_task_complete=lambda req, now: completed.append((req, now)),
        startup_delay_range=startup,
        scale_down_mode=scale_down_mode,
    )
    return loop, cluster, ms, completed


def publish(ms, count=1):
    requests = []
    for _ in range(count):
        wf = WorkflowRequest(workflow_type="W", arrival_time=0.0, total_tasks=1)
        req = TaskRequest(task_type="A", workflow=wf, published_at=0.0)
        ms.publish(req)
        requests.append(req)
    return requests


def reference_service_time(mean: float, cv: float, rng) -> float:
    """The retired serial sampler, kept as the oracle for the lognormal
    parametrisation: both substrates draw ``lognormal(mu, sigma)`` from
    ``service_time_params`` inline (``cv=0`` degenerates to the mean and
    draws nothing)."""
    fixed, mu, sigma = service_time_params(mean, cv)
    if fixed is not None:
        return fixed
    return float(rng.lognormal(mean=mu, sigma=sigma))


class TestSampleServiceTime:
    def test_zero_cv_is_deterministic(self, rng):
        assert reference_service_time(3.0, 0.0, rng) == 3.0

    def test_mean_is_preserved(self, rng):
        samples = [reference_service_time(4.0, 0.6, rng) for _ in range(20_000)]
        assert abs(np.mean(samples) - 4.0) < 0.1

    def test_cv_is_preserved(self, rng):
        samples = np.array(
            [reference_service_time(4.0, 0.5, rng) for _ in range(20_000)]
        )
        assert abs(samples.std() / samples.mean() - 0.5) < 0.05

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            reference_service_time(0.0, 0.5, rng)
        with pytest.raises(ValueError):
            reference_service_time(1.0, -0.5, rng)

    @pytest.mark.parametrize(
        "mean, cv",
        # 1e200 is finite, but cv * cv overflows: sigma would be inf and
        # the draws NaN.
        [(float("nan"), 0.5), (1.0, float("nan")), (1.0, 1e200)],
    )
    def test_args_that_would_draw_nan_rejected(self, mean, cv):
        with pytest.raises(ValueError):
            service_time_params(mean, cv)


class TestScaling:
    def test_scale_up_creates_consumers(self):
        loop, cluster, ms, _ = build()
        ms.scale_to(3)
        assert ms.allocated == 3
        assert cluster.total_used == 3

    def test_scale_down_removes_consumers(self):
        loop, cluster, ms, _ = build()
        ms.scale_to(3)
        ms.scale_to(1)
        assert ms.allocated == 1
        assert cluster.total_used == 1

    def test_scale_to_zero(self):
        loop, cluster, ms, _ = build()
        ms.scale_to(2)
        ms.scale_to(0)
        assert ms.allocated == 0
        assert cluster.total_used == 0

    def test_negative_rejected(self):
        loop, cluster, ms, _ = build()
        with pytest.raises(ValueError):
            ms.scale_to(-1)

    def test_startup_delay_gates_processing(self):
        loop, cluster, ms, completed = build(mean=1.0, startup=(5.0, 5.0))
        publish(ms, 1)
        ms.scale_to(1)
        loop.run_until(4.0)
        assert not completed  # still starting
        loop.run_until(6.5)
        assert len(completed) == 1  # started at 5, processed 1s task

    def test_starting_consumer_cancelled_cleanly(self):
        loop, cluster, ms, completed = build(mean=1.0, startup=(5.0, 5.0))
        ms.scale_to(1)
        ms.scale_to(0)
        loop.run_until(10.0)
        assert ms.allocated == 0
        assert ms.consumers_killed_starting == 1
        assert cluster.total_used == 0


class TestProcessing:
    def test_tasks_complete_and_ack(self):
        loop, cluster, ms, completed = build(mean=2.0)
        requests = publish(ms, 3)
        ms.scale_to(1)
        loop.run_until(6.0)
        assert len(completed) == 3
        assert [r for r, _ in completed] == requests  # FIFO
        assert ms.conservation_ok()
        assert ms.wip == 0

    def test_parallel_consumers_speed_up(self):
        loop, _, ms, completed = build(mean=2.0)
        publish(ms, 4)
        ms.scale_to(4)
        loop.run_until(2.0)
        assert len(completed) == 4

    def test_wip_counts_queued_plus_in_service(self):
        loop, _, ms, _ = build(mean=10.0)
        publish(ms, 3)
        ms.scale_to(1)
        loop.run_until(1.0)
        assert ms.wip == 3  # 1 in service + 2 queued
        assert ms.busy_consumers == 1

    def test_idle_consumer_wakes_on_publish(self):
        loop, _, ms, completed = build(mean=1.0)
        ms.scale_to(1)
        loop.run_until(5.0)
        publish(ms, 1)
        loop.run_until(6.5)
        assert len(completed) == 1


class TestScaleDownDrain:
    def test_busy_consumer_finishes_task_then_exits(self):
        loop, cluster, ms, completed = build(mean=4.0, scale_down_mode="drain")
        publish(ms, 1)
        ms.scale_to(1)
        loop.run_until(1.0)
        ms.scale_to(0)
        assert ms.allocated == 0  # leaves the allocation immediately
        assert cluster.total_used == 1  # still occupies a slot while draining
        loop.run_until(5.0)
        assert len(completed) == 1  # task finished, not redelivered
        assert cluster.total_used == 0
        assert ms.redelivered_total == 0

    def test_draining_consumer_takes_no_more_work(self):
        loop, _, ms, completed = build(mean=2.0, scale_down_mode="drain")
        publish(ms, 2)
        ms.scale_to(1)
        loop.run_until(0.5)
        ms.scale_to(0)
        loop.run_until(10.0)
        assert len(completed) == 1  # only the in-flight task
        assert ms.wip == 1


class TestScaleDownKill:
    def test_busy_consumer_killed_and_task_redelivered(self):
        loop, cluster, ms, completed = build(mean=4.0, scale_down_mode="kill")
        (request,) = publish(ms, 1)
        ms.scale_to(1)
        loop.run_until(1.0)
        ms.scale_to(0)
        assert ms.consumers_killed_busy == 1
        assert cluster.total_used == 0
        assert ms.redelivered_total == 1
        assert request.wasted_work == pytest.approx(1.0)
        # Another consumer picks the redelivered request up.
        ms.scale_to(1)
        loop.run_until(10.0)
        assert len(completed) == 1
        assert ms.conservation_ok()

    def test_victim_preference_spares_busy(self):
        loop, _, ms, _ = build(mean=100.0, scale_down_mode="kill")
        publish(ms, 1)
        ms.scale_to(3)  # one busy, two idle
        loop.run_until(1.0)
        assert ms.busy_consumers == 1
        ms.scale_to(1)  # removes the two idle ones
        assert ms.consumers_killed_busy == 0
        assert ms.busy_consumers == 1

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="scale_down_mode"):
            build(scale_down_mode="nuke")


class TestCrashVictimIndex:
    @pytest.mark.parametrize("mode", ["drain", "kill"])
    def test_index_lets_go_of_stopped_consumers(self, mode):
        """Only a crash reads the busy index; a run without one must not
        keep every consumer it ever started."""
        loop, _, ms, _ = build(mean=1.0, scale_down_mode=mode, capacity=400)
        for round_ in range(60):
            publish(ms, 20)
            ms.scale_to(10)
            loop.run_until(loop.now + 0.5)  # ten busy
            ms.scale_to(0)
            loop.run_until(loop.now + 5.0)
        assert ms.consumers_started == 600
        assert len(ms._busy) <= 2 * 10 + 16 + 1

    def test_crash_takes_the_first_busy_member(self):
        """Stopped, idle-again and terminating consumers ahead of it in
        the index are skipped."""
        loop, _, ms, _ = build(mean=10.0, cv=0.0)
        ms.scale_to(4)
        loop.run_until(0.0)
        publish(ms, 4)  # consumers 0-3 busy
        loop.run_until(10.0)  # all four finish: idle again
        publish(ms, 2)  # 0 and 1 busy
        ms.scale_to(3)  # removes idle consumer 2
        assert ms.crash_one()
        assert [c.trace_id for c in ms.consumers] == [1, 3, 4]
        assert ms.consumers[0].state is ConsumerState.BUSY
