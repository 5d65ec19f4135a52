"""The one way this repository maps work over a process pool."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
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


def ordered_pool_map(
    fn: Callable,
    specs: Sequence,
    workers: int,
    names: Sequence[str],
) -> Iterator:
    """``fn`` over ``specs`` on ``workers`` processes *and the caller*,
    yielded lazily in *input* order no matter who finishes first, so
    completion order cannot leak into results.

    The caller is one of the ``workers + 1`` executors: it runs specs
    ``0, W+1, 2(W+1), …`` (``W = workers``) itself, between yields, while
    the pool runs the rest, all submitted up front.  The pool is never
    wider than the number of specs it is given, and a map whose specs all
    fall to the caller starts no process.

    An exception raised by ``fn`` — in the caller or in a worker —
    propagates as itself once the specs not yet started are cancelled and
    the pool has wound down.  A worker that dies takes the pool with it;
    that surfaces as :class:`WorkerDied` naming (``names[i]`` for
    ``specs[i]``) the first spec whose result did not come back —
    everything before it was yielded.
    """
    stride = workers + 1
    pooled = [i for i in range(len(specs)) if i % stride]
    if not pooled:
        yield from map(fn, specs)
        return
    done = 0
    pool = ProcessPoolExecutor(max_workers=min(workers, len(pooled)))
    try:
        futures = {i: pool.submit(fn, specs[i]) for i in pooled}
        for i, spec in enumerate(specs):
            result = futures[i].result() if i % stride else fn(spec)
            done += 1
            yield result
    except BrokenProcessPool as exc:
        raise WorkerDied(
            f"a worker process died: {names[done]} is the "
            f"first that did not come back ({done} of {len(specs)} did)"
        ) from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
