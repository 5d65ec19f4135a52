"""The one way this repository maps work over a process pool."""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterator, Sequence

__all__ = ["WorkerDied", "ordered_pool_map", "resolve_workers"]


class WorkerDied(RuntimeError):
    """A pool worker process died (killed, OOM, hard crash) mid-map."""


def resolve_workers(workers: int) -> int:
    """Resolve a worker-count knob: ``0`` auto-detects ``os.cpu_count()``.

    Shared by ``repro experiments --workers`` and ``--collect-workers``:
    an unknown CPU count falls back to 1.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = auto), got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def _run_here(fn: Callable, spec) -> Future:
    """``fn(spec)`` in this process, its outcome held like a pool's."""
    future: Future = Future()
    try:
        future.set_result(fn(spec))
    except Exception as exc:
        future.set_exception(exc)
    return future


def _failed(future: Future) -> bool:
    return (
        future.done()
        and not future.cancelled()
        and future.exception() is not None
    )


def ordered_pool_map(
    fn: Callable,
    specs: Sequence,
    workers: int,
    names: Sequence[str],
) -> Iterator:
    """``fn`` over ``specs`` on ``workers`` processes *and the caller*,
    yielded lazily in *input* order no matter who finishes first, so
    completion order cannot leak into results.

    The pool is given every spec but the first, all submitted up front,
    and the caller runs spec 0.  Then, whenever the next result in input
    order is not back yet, the caller *steals*: it cancels the last spec
    the pool has not started, runs it itself and holds its result until
    its turn.  Nobody idles while work is left, and every spec runs
    exactly once.  The pool is at most ``min(workers, len(specs) - 1)``
    processes wide; ``workers=0`` or a single spec starts none.

    An exception raised by ``fn`` — in a worker, or in the caller on spec
    0 or a stolen spec — propagates as itself after exactly the results
    before it in input order, once the specs not yet started are
    cancelled and the pool has wound down; the caller steals nothing
    once a failure is known.  A worker that dies takes the pool with it;
    that surfaces as :class:`WorkerDied` naming (``names[i]`` for
    ``specs[i]``) the first spec whose result did not come back —
    everything before it was yielded.
    """
    if not workers or len(specs) <= 1:
        yield from map(fn, specs)
        return
    done = 0
    pool = ProcessPoolExecutor(max_workers=min(workers, len(specs) - 1))
    try:
        pooled = [pool.submit(fn, spec) for spec in specs[1:]]
        futures = [_run_here(fn, specs[0]), *pooled]
        # Pooled specs start in input order, so everything below the
        # first one that will not cancel has started too.
        last = len(specs) - 1
        for i in range(len(specs)):
            while (
                not futures[i].done()
                and last >= i
                and not any(map(_failed, futures))
                and futures[last].cancel()
            ):
                futures[last] = _run_here(fn, specs[last])
                last -= 1
            result = futures[i].result()
            done += 1
            yield result
    except BrokenProcessPool as exc:
        raise WorkerDied(
            f"a worker process died: {names[done]} is the "
            f"first that did not come back ({done} of {len(specs)} did)"
        ) from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
