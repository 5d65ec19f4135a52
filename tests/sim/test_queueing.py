"""Tests for the ack queue (RabbitMQ-semantics contract).

A microservice owns its queue — publish, delivery, ack and nack — so the
protocol is driven through one: consumers start at once (zero start-up
delay) and every service time is 1 s.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.cluster import Cluster
from repro.sim.events import EventLoop
from repro.sim.microservice import Microservice
from repro.sim.queueing import QueueError
from repro.sim.requests import TaskRequest, WorkflowRequest
from repro.utils.rng import RngStream
from repro.workflows.dag import TaskType


def make_request(task="A"):
    wf = WorkflowRequest(workflow_type="W", arrival_time=0.0, total_tasks=1)
    return TaskRequest(task_type=task, workflow=wf, published_at=0.0)


def serve(consumers=1, mode="kill", seed=3):
    """A microservice on queue "A" with ``consumers`` idle consumers."""
    loop = EventLoop()
    done = []
    ms = Microservice(
        TaskType("A", 1.0, cv=0.0),
        loop=loop,
        cluster=Cluster(num_nodes=1, node_capacity=64),
        rng=RngStream("queue", np.random.SeedSequence(seed)),
        on_task_complete=lambda request, now: done.append(request),
        startup_delay_range=(0.0, 0.0),
        scale_down_mode=mode,
    )
    ms.scale_to(consumers)
    loop.run_until(0.0)  # start-ups due now
    return loop, ms, done


class TestPublishConsume:
    def test_fifo_order(self):
        loop, ms, done = serve()
        first, second = make_request(), make_request()
        ms.publish(first)
        ms.publish(second)
        loop.run_until(2.0)
        assert done == [first, second]

    def test_idle_consumer_gets_nothing_from_empty_queue(self):
        loop, ms, _ = serve()
        assert ms.queue.unacked_count == 0
        assert loop.pending == 0  # no finish scheduled
        assert ms.busy_consumers == 0

    def test_wrong_task_type_rejected(self):
        _, ms, _ = serve()
        with pytest.raises(QueueError, match="published to"):
            ms.publish(make_request(task="B"))

    def test_depth_counts_ready_and_unacked(self):
        _, ms, _ = serve()
        ms.publish(make_request())
        ms.publish(make_request())
        assert ms.queue.ready_count == 1
        assert ms.queue.unacked_count == 1
        assert ms.queue.depth == 2

    def test_deliveries_counted(self):
        loop, ms, _ = serve()
        request = make_request()
        ms.publish(request)
        assert request.deliveries == 1
        assert ms.crash_one()  # nack; the replacement starts at once
        loop.run_until(0.0)
        assert request.deliveries == 2


class TestAckNack:
    def test_ack_removes_message(self):
        loop, ms, _ = serve()
        ms.publish(make_request())
        loop.run_until(1.0)
        assert ms.queue.depth == 0
        assert ms.queue.acked_total == 1

    def test_double_nack_rejected(self):
        _, ms, _ = serve()
        ms.publish(make_request())
        tag = ms.consumers[0].current_tag
        ms._nack(tag)
        with pytest.raises(QueueError):
            ms._nack(tag)

    def test_unknown_tag_rejected(self):
        _, ms, _ = serve()
        with pytest.raises(QueueError, match="already-settled"):
            ms._nack(99)

    def test_nack_requeues_at_front(self):
        loop, ms, done = serve()
        first, second = make_request(), make_request()
        ms.publish(first)
        ms.publish(second)
        ms.scale_to(0)  # kill: ``first`` is nacked
        ms.scale_to(1)
        loop.run_until(3.0)
        assert done == [first, second]  # front of the queue, not the back

    def test_nack_then_ack_of_same_tag_rejected(self):
        loop, ms, _ = serve()
        ms.publish(make_request())
        ms._nack(ms.consumers[0].current_tag)
        with pytest.raises(QueueError, match="already-settled"):
            loop.run_until(1.0)  # the consumer finishes and acks


class TestSubscribers:
    def test_publish_notifies(self):
        _, ms, _ = serve()
        request = make_request()
        ms.publish(request)  # push delivery: the idle consumer takes it
        assert ms.consumers[0].current_request is request

    def test_nack_notifies(self):
        _, ms, _ = serve(consumers=2)
        request = make_request()
        ms.publish(request)
        assert ms.crash_one()  # consumer 0 dies; the nack wakes dispatch
        assert ms.consumers[0].current_request is request  # consumer 1
        assert request.deliveries == 2


class TestConservation:
    """The paper's guarantee: requests never get lost."""

    @given(
        st.lists(
            st.sampled_from(["publish", "scale_up", "kill", "crash", "advance"]),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_conservation_under_random_protocol(self, operations):
        loop, ms, _ = serve(consumers=0)
        for op in operations:
            if op == "publish":
                ms.publish(make_request())
            elif op == "scale_up":
                ms.scale_to(ms.allocated + 1)
            elif op == "kill":
                ms.scale_to(max(0, ms.allocated - 1))
            elif op == "crash":
                ms.crash_one()
            else:
                loop.run_until(loop.now + 0.5)
            assert ms.queue.conservation_ok()
