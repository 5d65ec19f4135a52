"""``ordered_pool_map``: the caller is one of the pool's executors.

The calling process runs specs ``0, W+1, 2(W+1), …`` itself; ``W``
worker processes — never more than the specs left to them — run the
rest.  Results come back in input order, and both failure paths (an
exception, a dead worker) keep their documented semantics whichever
side the failing spec ran on.
"""

import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.utils.pool import WorkerDied, ordered_pool_map

CALLER_PID = os.getpid()


def names(n):
    return [f"spec {i}" for i in range(n)]


def children():
    return len(multiprocessing.active_children())


def index_and_pid(i):
    return i, os.getpid()


def late_first(spec):
    """Earlier specs finish later, so completion order is reversed."""
    i, n = spec
    time.sleep(0.01 * (n - i))
    return i


def fail_at_two_else_mark(spec):
    i, directory = spec
    if i == 2:
        raise ValueError("spec 2 failed")
    time.sleep(0.3)
    Path(directory, f"ran-{i}").touch()
    return i


def die_at_three(i):
    if i == 3:
        # A rule that handed spec 3 to the caller must fail the test,
        # never SIGKILL pytest.
        if os.getpid() == CALLER_PID:
            raise AssertionError("spec 3 ran in the calling process")
        time.sleep(0.1)
        os.kill(os.getpid(), signal.SIGKILL)
    return i


@pytest.mark.parametrize(
    "workers, n, pool_width",
    [(1, 6, 1), (2, 7, 2), (3, 7, 3), (4, 2, 1), (4, 3, 2), (3, 1, 0)],
)
def test_caller_runs_every_w_plus_first_spec(workers, n, pool_width):
    before = children()
    started = []
    ran = []
    for i, pid in ordered_pool_map(index_and_pid, range(n), workers, names(n)):
        started.append(children() - before)
        ran.append((i, pid))
    assert [i for i, _ in ran] == list(range(n))
    assert [i for i, pid in ran if pid == CALLER_PID] == list(
        range(0, n, workers + 1)
    )
    # No idle fork: the pool is as wide as the specs it runs, at most.
    assert max(started) <= pool_width
    assert len({pid for _, pid in ran} - {CALLER_PID}) <= pool_width


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", range(1, 8))
def test_results_arrive_in_input_order(workers, n):
    specs = [(i, n) for i in range(n)]
    assert list(
        ordered_pool_map(late_first, specs, workers, names(n))
    ) == list(range(n))


def test_caller_exception_arrives_after_the_pool_winds_down(tmp_path):
    n = 14
    specs = [(i, str(tmp_path)) for i in range(n)]
    before = children()
    yielded = []
    with pytest.raises(ValueError, match="spec 2 failed"):
        for i in ordered_pool_map(fail_at_two_else_mark, specs, 1, names(n)):
            yielded.append(i)
    assert yielded == [0, 1]
    # Wound down: the worker was joined, and the specs that had not
    # started were cancelled rather than run.  When spec 2 raised, the
    # worker held at most one spec and its call queue two more (3, 5, 7).
    assert children() == before
    ran = {int(p.name.split("-")[1]) for p in tmp_path.iterdir()}
    assert 1 in ran and not {11, 13} & ran


def test_worker_dying_after_caller_specs_names_the_first_missing_spec():
    n = 6
    yielded = []
    with pytest.raises(WorkerDied, match=r"spec 3 is the first") as info:
        for i in ordered_pool_map(die_at_three, range(n), 1, names(n)):
            yielded.append(i)
    # Caller ran 0 and 2; the one worker ran 1 before dying on 3.
    assert yielded == [0, 1, 2]
    assert "(3 of 6 did)" in str(info.value)
