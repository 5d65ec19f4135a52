"""Schema v4's ``event.task_complete`` as a view of a v6 record stream.

v5 dropped ``event.task_complete``.  v4 wrote one the instant a task
finished, just ahead of that task's ``event.task_span`` — or, for a
draining consumer's last task, ahead of the
``event.consumer_stop(mode="drained")`` written between the two — and it
carried nothing the span does not: ``service_time`` is the span's
``t - started``, bit for bit.  :func:`as_v4` puts those records back, so
what was pinned against v4 (digests, oracles that still emit the record)
is checked against a v6 run.  A span written before a clock was bound
(``t`` None) gets none: it has no ``t - started`` to rebuild one from,
and the v5 fold observes no service time for it either.

v6 dropped the cluster's ``event.placement`` / ``event.release`` records
and the ``node`` of ``event.consumer_start``; the view does not put
those back (nothing left in the program knows a node), so it is v4 with
v6's drops applied.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

__all__ = ["as_v4"]


def _is_drained(stop: Dict, service: str) -> bool:
    return (
        stop.get("kind") == "event.consumer_stop"
        and stop["mode"] == "drained"
        and stop["service"] == service
    )


def as_v4(records: Iterable[Dict]) -> List[Dict]:
    """``records`` with the ``event.task_complete`` v4 wrote re-inserted."""
    out: List[Dict] = []
    for record in records:
        if record.get("kind") == "event.task_span" and record["t"] is not None:
            service = record["service"]
            at = len(out)
            if at >= 1 and _is_drained(out[-1], service):
                at -= 1
            out.insert(at, {
                "kind": "event.task_complete", "t": record["t"],
                "service": service,
                "service_time": record["t"] - record["started"],
            })
        out.append(record)
    return out
