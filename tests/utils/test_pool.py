"""``ordered_pool_map``: the caller is one of the pool's executors.

The calling process runs spec 0, and ``W`` worker processes — never
more than the specs left to them — are given the rest.  Whenever the
next result in input order is not back yet, the caller steals the last
spec the pool has not started.  Results come back in input order, every
spec runs exactly once, and both failure paths (an exception, a dead
worker) keep their documented semantics whichever side the failing
spec ran on.
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


def ran(directory):
    """``{spec: [pid, ...]}`` from the marks ``mark_and_return`` left."""
    runs = {}
    for path in Path(directory).iterdir():
        i, pid = map(int, path.name.split("-")[1:])
        runs.setdefault(i, []).append(pid)
    return runs


def mark_and_return(spec):
    """Workers are slow, the caller is quick: the caller steals."""
    i, directory, pause = spec
    if os.getpid() != CALLER_PID:
        time.sleep(pause)
    Path(directory, f"ran-{i}-{os.getpid()}").touch()
    return i


def late_first(spec):
    """Earlier specs finish later, so completion order is reversed."""
    i, n = spec
    time.sleep(0.01 * (n - i))
    return i


def fail_at_two_else_mark(spec):
    i, directory = spec
    if i == 0:
        time.sleep(0.3)  # the pool has taken specs 1 to 3 by now
    if i == 2:
        if os.getpid() == CALLER_PID:
            raise AssertionError("spec 2 ran in the calling process")
        raise ValueError("spec 2 failed")
    time.sleep(0.3)
    Path(directory, f"ran-{i}-{os.getpid()}").touch()
    return i


def fail_stolen_last(spec):
    i, n, directory = spec
    if os.getpid() == CALLER_PID and i == n - 1:
        raise ValueError("stolen spec failed")
    if os.getpid() != CALLER_PID:
        time.sleep(0.2)
    Path(directory, f"ran-{i}-{os.getpid()}").touch()
    return i


def die_at_three(i):
    if i == 0:
        # By the time the caller looks for a spec to steal, the worker
        # has taken spec 1 and the pool's call queue holds 2 and 3.
        time.sleep(0.3)
    if i == 3:
        # A caller that stole spec 3 must fail the test, never SIGKILL
        # pytest.
        if os.getpid() == CALLER_PID:
            raise AssertionError("spec 3 ran in the calling process")
        time.sleep(0.1)
        os.kill(os.getpid(), signal.SIGKILL)
    return i


@pytest.mark.parametrize(
    "workers, n", [(w, n) for w in (1, 2, 3, 4) for n in range(1, 8)]
)
def test_each_spec_runs_once_and_only_unstarted_ones_are_stolen(
    workers, n, tmp_path
):
    before = children()
    started = []
    results = []
    specs = [(i, str(tmp_path), 0.1) for i in range(n)]
    for i in ordered_pool_map(mark_and_return, specs, workers, names(n)):
        started.append(children() - before)
        results.append(i)
    assert results == list(range(n))
    runs = ran(tmp_path)
    assert sorted(runs) == list(range(n))
    assert all(len(pids) == 1 for pids in runs.values())  # exactly once
    # The caller ran spec 0 and, stealing from the back of the queue,
    # a run of the last specs: the ones the pool had not started.
    mine = [i for i, (pid,) in sorted(runs.items()) if pid == CALLER_PID]
    assert mine[0] == 0
    assert mine[1:] == list(range(n - len(mine) + 1, n))
    # No idle fork: the pool is as wide as the specs it is given, at most.
    width = min(workers, n - 1)
    if n - 1 > 2 * width + 1:
        # Until a slow worker finishes, the pool has taken at most 2W + 1
        # specs (W running, W + 1 in its call queue); the quick caller
        # steals from the rest.
        assert len(mine) > 1
    assert max(started) <= width
    assert len({pid for (pid,) in runs.values()} - {CALLER_PID}) <= width


@pytest.mark.parametrize("workers, n", [(0, 5), (2, 0)])
def test_no_process_without_two_specs_and_a_worker(workers, n, tmp_path):
    before = children()
    specs = [(i, str(tmp_path), 0.0) for i in range(n)]
    results = []
    for i in ordered_pool_map(mark_and_return, specs, workers, names(n)):
        assert children() == before
        results.append(i)
    assert results == list(range(n))
    assert all(pids == [CALLER_PID] for pids in ran(tmp_path).values())


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", range(1, 8))
def test_results_arrive_in_input_order(workers, n):
    specs = [(i, n) for i in range(n)]
    assert list(
        ordered_pool_map(late_first, specs, workers, names(n))
    ) == list(range(n))


def test_pool_exception_arrives_after_the_pool_winds_down(tmp_path):
    n = 14
    specs = [(i, str(tmp_path)) for i in range(n)]
    before = children()
    yielded = []
    with pytest.raises(ValueError, match="spec 2 failed"):
        for i in ordered_pool_map(fail_at_two_else_mark, specs, 1, names(n)):
            yielded.append(i)
    assert yielded == [0, 1]
    # Wound down: the worker was joined, and nothing ran twice.
    assert children() == before
    runs = ran(tmp_path)
    assert all(len(pids) == 1 for pids in runs.values())
    # While spec 1 ran the caller may have stolen spec 13; spec 2 had
    # failed before that was done, and the caller took nothing more.
    # The worker's call queue held a few specs after 2 (they run on
    # wind-down); the specs the pool had not started were cancelled.
    mine = sorted(i for i, (pid,) in runs.items() if pid == CALLER_PID)
    assert mine in ([0], [0, 13])
    assert not set(range(7, 13)) & set(runs)


def test_caller_exception_arrives_after_the_pool_winds_down(tmp_path):
    n = 5
    specs = [(i, n, str(tmp_path)) for i in range(n)]
    before = children()
    yielded = []
    with pytest.raises(ValueError, match="stolen spec failed"):
        for i in ordered_pool_map(fail_stolen_last, specs, 1, names(n)):
            yielded.append(i)
    # The caller stole the last spec at once (the worker is slow) and saw
    # it fail: it stole nothing more, and everything before it arrived
    # before the exception did.
    assert yielded == [0, 1, 2, 3]
    assert children() == before
    runs = ran(tmp_path)
    assert sorted(runs) == [0, 1, 2, 3]
    assert runs[0] == [CALLER_PID]
    assert all(pid != CALLER_PID for i in (1, 2, 3) for pid in runs[i])


def test_worker_dying_after_caller_specs_names_the_first_missing_spec():
    n = 6
    yielded = []
    with pytest.raises(WorkerDied, match=r"spec 3 is the first") as info:
        for i in ordered_pool_map(die_at_three, range(n), 1, names(n)):
            yielded.append(i)
    # The caller ran 0 and stole from the back; the one worker ran 1 and
    # 2 before dying on 3.
    assert yielded == [0, 1, 2]
    assert "(3 of 6 did)" in str(info.value)
