"""Unit tests for the batched-substrate building blocks.

Each block operation (``push_many``, ``publish_many``,
``add_workflows``, ``add_tasks``) is checked row by row: one block
equals the same rows given as blocks of one, the property the bulk path
of ``inject_burst`` relies on (the exact tier passes blocks of one).
The system-level equivalence suite is tests/sim/test_batched_substrate.py.
"""

import numpy as np
import pytest

from repro.sim.queueing import IndexFifo
from repro.sim.requests import RequestPool
from repro.sim.substrate import PrefetchStream
from repro.sim.tds import CompiledDependencyTable
from repro.utils.rng import RngStream
from repro.workflows import build_ligo_ensemble, build_msd_ensemble


def make_stream(label="test", seed=0):
    return RngStream(label, np.random.SeedSequence(seed))


def push(fifo, *values):
    """Append ``values`` one block of one at a time."""
    for value in values:
        fifo.push_many(np.array([value], dtype=np.int64))


class TestIndexFifo:
    def test_fifo_order(self):
        fifo = IndexFifo()
        push(fifo, 5, 3, 9)
        assert [fifo.pop() for _ in range(3)] == [5, 3, 9]
        assert len(fifo) == 0

    def test_push_front_redelivery_order(self):
        fifo = IndexFifo()
        push(fifo, 1, 2)
        fifo.push_front(7)
        assert fifo.to_list() == [7, 1, 2]

    def test_push_many_matches_serial_pushes(self):
        serial, batch = IndexFifo(), IndexFifo()
        items = list(range(100, 200))
        push(serial, *items)
        batch.push_many(np.array(items, dtype=np.int64))
        assert serial.to_list() == batch.to_list() == items

    def test_wraparound_growth(self):
        fifo = IndexFifo(capacity=4)
        out = []
        for i in range(1000):
            push(fifo, i)
            if i % 3 == 0:
                out.append(fifo.pop())
        out.extend(fifo.pop() for _ in range(len(fifo)))
        assert out != sorted(out) or out == sorted(out)  # drained fully
        assert sorted(out) == list(range(1000))

    def test_peek_prefix_and_consume(self):
        fifo = IndexFifo()
        fifo.push_many(np.arange(10, dtype=np.int64))
        assert fifo.peek_prefix(4).tolist() == [0, 1, 2, 3]
        fifo.consume(4)
        assert fifo.to_list() == [4, 5, 6, 7, 8, 9]

    def test_push_front_after_consume(self):
        fifo = IndexFifo()
        fifo.push_many(np.arange(20, dtype=np.int64))
        fifo.consume(20)
        for i in (42, 41, 40):
            fifo.push_front(i)
        assert fifo.to_list() == [40, 41, 42]


class TestPrefetchStream:
    def test_lognormal_bitwise_equal_to_scalar(self):
        scalar, prefetched = make_stream(seed=1), make_stream(seed=1)
        stream = PrefetchStream(prefetched, block=16)
        for _ in range(50):
            expected = float(scalar.generator.lognormal(1.0, 0.5))
            assert stream.lognormal(1.0, 0.5) == expected

    def test_interleaved_kinds_resync(self):
        """Switching draw kinds mid-stream matches the scalar sequence."""
        scalar, prefetched = make_stream(seed=2), make_stream(seed=2)
        stream = PrefetchStream(prefetched, block=8)
        pattern = ["l", "l", "u", "l", "e", "u", "u", "e", "e", "l"] * 10
        for kind in pattern:
            if kind == "l":
                expected = float(scalar.generator.lognormal(2.0, 0.3))
                got = stream.lognormal(2.0, 0.3)
            elif kind == "e":
                expected = float(scalar.generator.exponential(0.25))
                got = stream.exponential(0.25)
            else:  # a scale-up of three containers
                expected = [
                    float(scalar.generator.uniform(5.0, 10.0)) for _ in range(3)
                ]
                got = stream.uniform_block(5.0, 10.0, 3)
            assert got == expected

    def test_parameter_change_resyncs(self):
        scalar, prefetched = make_stream(seed=3), make_stream(seed=3)
        stream = PrefetchStream(prefetched, block=8)
        for mean in (1.0, 2.0, 1.0):
            for _ in range(3):
                expected = float(scalar.generator.lognormal(mean, 0.5))
                assert stream.lognormal(mean, 0.5) == expected

    def test_sync_normalises_generator_state(self):
        scalar, prefetched = make_stream(seed=4), make_stream(seed=4)
        stream = PrefetchStream(prefetched, block=32)
        for _ in range(5):
            scalar.generator.lognormal(1.0, 0.5)
            stream.lognormal(1.0, 0.5)
        stream.sync()
        assert (
            prefetched.generator.bit_generator.state
            == scalar.generator.bit_generator.state
        )

    def test_begin_rollback_consumes_nothing(self):
        reference, speculative = make_stream(seed=5), make_stream(seed=5)
        stream = PrefetchStream(speculative, block=8)
        stream.lognormal(1.0, 0.5)  # consume one for a non-trivial mark
        reference.generator.lognormal(1.0, 0.5)
        mark = stream.begin()
        for _ in range(20):
            stream.lognormal(1.0, 0.5)
        stream.rollback(mark)
        for _ in range(10):
            expected = float(reference.generator.lognormal(1.0, 0.5))
            assert stream.lognormal(1.0, 0.5) == expected


class TestCompiledDependencyTable:
    @pytest.mark.parametrize("build", [build_msd_ensemble, build_ligo_ensemble])
    def test_matches_workflow_dags(self, build):
        ensemble = build()
        table = CompiledDependencyTable(ensemble)
        task_names = list(ensemble.task_names())
        for w, w_name in enumerate(table.workflow_names):
            workflow = ensemble.workflow(w_name)
            assert table.size[w] == workflow.size
            # Entry tasks, in the serial invoker's iteration order.
            entry_names = [task_names[g] for _local, g in table.entries[w]]
            assert entry_names == list(workflow.entry_tasks)
            # Per-task successor edges and predecessor counts.
            for t_name in workflow.tasks:
                g = ensemble.task_index(t_name)
                local = int(table.local_of_task[w][g])
                assert local >= 0
                successor_names = [
                    task_names[s_g]
                    for _s_local, s_g in table.successors[w][local]
                ]
                assert successor_names == list(workflow.successors(t_name))
                assert table.pred_counts[w][local] == len(
                    workflow.predecessors(t_name)
                )
            # Absent tasks map to -1.
            for g, name in enumerate(task_names):
                if name not in workflow.tasks:
                    assert table.local_of_task[w][g] == -1


class TestRequestPool:
    def test_add_workflows_matches_serial(self):
        preds = np.array([0, 1, 2], dtype=np.int16)
        serial, batch = RequestPool(3, capacity=2), RequestPool(3, capacity=2)
        for _ in range(50):
            serial.add_workflows(1, 1, 10.0, 3, preds)
        batch.add_workflows(50, 1, 10.0, 3, preds)
        assert serial.num_workflows == batch.num_workflows == 50
        for name in ("wf_type", "wf_arrival", "wf_total_tasks",
                     "wf_done_count"):
            np.testing.assert_array_equal(
                getattr(serial, name)[:50], getattr(batch, name)[:50]
            )
        np.testing.assert_array_equal(
            serial.wf_pred_remaining[:50], batch.wf_pred_remaining[:50]
        )

    def test_add_workflows_per_row_matches_serial(self):
        """A replayed slice's arrivals: per-row types, times and
        predecessor counts."""
        preds = np.array([[0, 1, 2], [0, 1, 0]], dtype=np.int16)
        sizes = np.array([3, 2], dtype=np.int32)
        types = np.array([1, 0, 0, 1, 1], dtype=np.int64)
        times = np.array([0.5, 1.25, 2.0, 2.5, 7.0])
        serial, batch = RequestPool(3, capacity=2), RequestPool(3, capacity=2)
        for w, t in zip(types.tolist(), times.tolist()):
            serial.add_workflows(1, w, t, int(sizes[w]), preds[w][:sizes[w]])
        assert batch.add_workflows(5, types, times, sizes[types], preds[types]) == 0
        for name in ("wf_type", "wf_arrival", "wf_total_tasks",
                     "wf_done_count", "wf_task_done"):
            np.testing.assert_array_equal(
                getattr(serial, name)[:5], getattr(batch, name)[:5]
            )
        for row, w in enumerate(types.tolist()):
            np.testing.assert_array_equal(
                serial.wf_pred_remaining[row, :sizes[w]],
                batch.wf_pred_remaining[row, :sizes[w]],
            )

    def test_add_tasks_matches_serial(self):
        serial, batch = RequestPool(2, capacity=2), RequestPool(2, capacity=2)
        types = np.array([0, 1, 0, 1, 1], dtype=np.int32)
        workflows = np.array([0, 0, 1, 1, 2], dtype=np.int64)
        expected = [
            int(serial.add_tasks([t], [w], 5.0)[0])
            for t, w in zip(types, workflows)
        ]
        got = batch.add_tasks(types, workflows, 5.0)
        assert got.tolist() == expected
        np.testing.assert_array_equal(
            serial.task_published_at[:5], batch.task_published_at[:5]
        )

    def test_add_tasks_per_row_timestamps(self):
        pool = RequestPool(2)
        times = np.array([1.0, 2.5, 9.0])
        pool.add_tasks(
            np.zeros(3, dtype=np.int32), np.zeros(3, dtype=np.int64), times
        )
        np.testing.assert_array_equal(pool.task_published_at[:3], times)


class TestPublishMany:
    @staticmethod
    def run(bulk, tracer=None):
        from repro.sim import BatchedWorkflowSystem, SystemConfig

        system = BatchedWorkflowSystem(
            build_msd_ensemble(), SystemConfig(consumer_budget=14), seed=41,
            tracer=tracer,
        )
        system.apply_allocation([2, 2, 2, 2])
        tasks = system.pool.add_tasks(
            np.zeros(6, dtype=np.int32),
            np.zeros(6, dtype=np.int64),
            0.0,
        )
        service = system.microservices["Ingest"]
        if bulk:
            service.publish_many(tasks)
        else:
            for k in range(tasks.size):
                service.publish_many(tasks[k:k + 1])
        return (
            service.fifo.to_list(),
            service.published_total,
            service.unacked_count,
            [service.current_task[s] for s in service.order],
        )

    def test_matches_serial_publishes(self):
        """One ``publish_many`` block == the same tasks as blocks of one."""
        assert self.run(bulk=True) == self.run(bulk=False)

    def test_traced_block_writes_one_record_per_task(self):
        from repro.telemetry import MemorySink, Tracer

        sinks = {bulk: MemorySink() for bulk in (True, False)}
        states = {bulk: self.run(bulk, Tracer(sinks[bulk])) for bulk in sinks}
        assert states[True] == states[False]
        assert sinks[True].records == sinks[False].records
        assert [r["depth"] for r in sinks[True].records
                if r["kind"] == "event.publish"] == [1, 2, 3, 4, 5, 6]
