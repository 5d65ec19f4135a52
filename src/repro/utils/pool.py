"""The one way this repository maps work over a process pool."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterator, Sequence

__all__ = ["WorkerDied", "ordered_pool_map"]


class WorkerDied(RuntimeError):
    """A pool worker process died (killed, OOM, hard crash) mid-map."""


def ordered_pool_map(
    fn: Callable,
    specs: Sequence,
    workers: int,
    names: Sequence[str],
) -> Iterator:
    """``fn`` over ``specs`` on ``workers`` processes, yielded lazily in
    *input* order no matter which worker finishes first, so completion
    order cannot leak into results.

    An exception raised by ``fn`` propagates as itself once the pool has
    wound down.  A worker that dies takes the pool with it; that surfaces
    as :class:`WorkerDied` naming (``names[i]`` for ``specs[i]``) the first
    spec whose result did not come back — everything before it was yielded.
    """
    done = 0
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            for result in pool.map(fn, specs):
                done += 1
                yield result
        except BrokenProcessPool as exc:
            raise WorkerDied(
                f"a worker process died: {names[done]} is the "
                f"first that did not come back ({done} of {len(specs)} did)"
            ) from exc
