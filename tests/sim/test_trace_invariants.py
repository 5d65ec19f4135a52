"""The work in progress a window reports is a count over the trace (ROADMAP
item 13(iii), a sample-path invariant; Kleinrock, *Queueing Systems*
Vol. 1, §1.4: the number in system is arrivals minus departures).

On a traced run, each ``span.window`` record's ``wip[j]`` equals the
``event.publish`` records for queue ``j`` written before it, minus the
``event.task_span`` records for service ``j``.  A nack (a ``kill``
scale-down or a consumer crash) requeues through ``event.redeliver``
without a new publish, so the identity is exact under faults too.
``conservation_ok()`` checks the counters against each other; this
checks them against the trace.  The generated-scenario harness
(``tests/sim/scenarios.py``) checks it on every scenario's serial trace.
"""

from collections import Counter

import pytest

from repro.sim import BatchedWorkflowSystem, MicroserviceWorkflowSystem, SystemConfig
from repro.telemetry import MemorySink, Tracer
from repro.workflows import build_msd_ensemble
from repro.workload import MSD_BURSTS


def wip_mismatches(records):
    """``(windows checked, [(window, service, reported, counted)])``."""
    published, finished = Counter(), Counter()
    windows, mismatches = 0, []
    for record in records:
        if record["kind"] == "event.publish":
            published[record["queue"]] += 1
        elif record["kind"] == "event.task_span":
            finished[record["service"]] += 1
        elif record["kind"] == "span.window":
            windows += 1
            for service, wip in record["wip"].items():
                counted = published[service] - finished[service]
                if wip != counted:
                    mismatches.append((record["index"], service, wip, counted))
    return windows, mismatches


def traced(cls, ensemble, budget, seed, mode="drain"):
    sink = MemorySink()
    system = cls(ensemble, SystemConfig(consumer_budget=budget, scale_down_mode=mode),
                 seed=seed, tracer=Tracer(sink))
    return system, sink


# The serial substrate's traces are checked on every generated scenario
# (tests/sim/scenarios.py); the harness runs the batched one untraced.
@pytest.mark.parametrize("cls", [BatchedWorkflowSystem])
def test_burst_with_kill_scale_down(cls):
    """A paper burst drained under a shrinking, then regrowing, allocation."""
    system, sink = traced(cls, build_msd_ensemble(), 14, seed=5, mode="kill")
    system.inject_burst(MSD_BURSTS[0].burst)
    for allocation in ([4, 4, 3, 3], [4, 4, 3, 3], [1, 1, 1, 1], [5, 3, 3, 3]) * 2:
        system.apply_allocation(allocation)
        system.run_window()
    windows, mismatches = wip_mismatches(sink.records)
    assert windows == 8 and mismatches == []
    assert any(r["kind"] == "event.redeliver" for r in sink.records)
    assert max(sum(r["wip"].values()) for r in sink.records
               if r["kind"] == "span.window") > 0


def test_a_lost_publish_shows():
    system, sink = traced(MicroserviceWorkflowSystem, build_msd_ensemble(), 14, seed=5)
    system.inject_burst({"Type1": 20})
    system.apply_allocation([4, 4, 3, 3])
    system.run_window()
    first = next(i for i, r in enumerate(sink.records) if r["kind"] == "event.publish")
    windows, mismatches = wip_mismatches(sink.records[:first] + sink.records[first + 1:])
    assert windows == 1 and len(mismatches) == 1
