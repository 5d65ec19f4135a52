"""Both microservice classes carry one read surface.

The system's window accounting, ``substrate_snapshot`` and the
conservation checks read the same members off either substrate's
microservices.  Same seed, same scenario: the serial and the batched
system must agree on every one of them, per service, at both ends of
every window: after the control actions and after the window ran.
"""

from repro.sim import BatchedWorkflowSystem, MicroserviceWorkflowSystem, SystemConfig
from repro.telemetry import MemorySink, Tracer
from repro.workflows import build_msd_ensemble

#: Per window: the allocation applied first (kill-mode scale-downs of
#: busy consumers in windows 1 and 4), a burst, services to crash.
PLAN = [
    ([4, 4, 3, 3], {"Type1": 30, "Type3": 10}, []),
    ([1, 1, 1, 1], {}, []),
    ([5, 2, 4, 3], {"Type2": 12}, ["Ingest"]),
    ([5, 2, 4, 3], {}, []),
    ([0, 3, 1, 2], {"Type1": 6}, []),
    ([3, 3, 3, 3], {}, ["Analyze"]),
]


def read_members(ms):
    return {
        "ready_count": ms.ready_count,
        "unacked_count": ms.unacked_count,
        "wip": ms.wip,
        "busy_consumers": ms.busy_consumers,
        "starting_consumers": ms.starting_consumers,
        "allocated": ms.allocated,
        "published_total": ms.published_total,
        "acked_total": ms.acked_total,
        "redelivered_total": ms.redelivered_total,
        "conservation_ok": ms.conservation_ok(),
    }


def reads(system):
    return {name: read_members(ms) for name, ms in system.microservices.items()}


def run(cls):
    sink = MemorySink()
    system = cls(
        build_msd_ensemble(),
        SystemConfig(consumer_budget=14, scale_down_mode="kill"),
        seed=17,
        tracer=Tracer(sink),
    )
    windows = []
    for allocation, burst, crashes in PLAN:
        system.apply_allocation(allocation)
        system.inject_burst(burst)
        for name in crashes:
            system.microservices[name].crash_one()
        windows.append(reads(system))
        system.run_window()
        windows.append(reads(system))
    return windows, sink.records


def test_substrates_agree_on_every_read_member():
    (serial, serial_records), (batched, batched_records) = (
        run(MicroserviceWorkflowSystem), run(BatchedWorkflowSystem)
    )
    for k, (a, b) in enumerate(zip(serial, batched)):
        assert a == b, f"read members diverged at window {k}"
    assert len(serial) == len(batched) == 2 * len(PLAN)
    assert serial_records == batched_records
    # The scenario exercises what the members count: redelivery after
    # kills, work left queued and in service, and consumers starting.
    last = serial[-1]
    assert sum(ms["redelivered_total"] for ms in last.values()) > 0
    assert any(
        w[name]["ready_count"] and w[name]["unacked_count"]
        for w in serial for name in w
    )
    assert any(
        w[name]["starting_consumers"] for w in serial for name in w
    )
