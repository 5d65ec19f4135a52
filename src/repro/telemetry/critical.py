"""Trace-driven critical-path analysis: where each request's latency went.

The analyzer reconstructs, for every completed workflow request in a
trace, the *causal chain* of tasks that determined its end-to-end
response time, and attributes every second of that response time to a
stage:

- ``queue``   — waiting in a microservice queue for an idle consumer,
- ``startup`` — waiting specifically on a container that was still
  starting up when it eventually took the task,
- ``retry``   — processing time lost to interrupted attempts
  (kill-mode scale-downs, consumer crashes) before the successful one,
- ``service`` — the successful processing attempt itself,
- ``join``    — residual gaps the chain walk could not tie to a single
  trigger task (AND-join reconstruction fallback; rare).

Chain reconstruction leans on two exact-timestamp invariants of the
simulator (both substrates):

1. a successor task is published at *exactly* the completion time of
   the predecessor whose completion made it ready (the invoker publishes
   with ``loop.now`` inside the completion callback), and
2. an entry task is published at exactly the workflow's arrival time.

So walking backwards from the task whose completion finished the
workflow, the trigger of each hop is the same-request span whose
completion time equals the hop's publish time — float equality, no
tolerance.  When no such span exists (it can be hidden by a
completion-time tie) the walk falls back to the latest same-request
completion at or before the publish time and books the uncovered
interval as a ``join`` stage, so the chain always covers the full
``[arrival, completion]`` interval.

**Exact-sum invariant.**  Per request, the stage durations sum *exactly*
(``math.fsum``, bitwise) to the measured end-to-end latency — the
``response_time`` field of the ``event.workflow_complete`` record.
Durations are breakpoint differences, and the final rounding residual is
folded into the largest stage until the correctly-rounded sum equals the
makespan.  Everything here is a pure function of the record stream: live
and replayed traces yield identical reports by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "CRITICAL_VERSION",
    "CRITICAL_FILENAME",
    "Stage",
    "RequestAttribution",
    "CriticalPathReport",
    "analyze_trace",
    "analyze_run",
    "critical_report_json",
    "render_critical",
]

#: Bumped whenever the critical-path report document changes shape.
CRITICAL_VERSION = 1

CRITICAL_FILENAME = "critical.json"

#: Stage names, in rendering order.
_STAGES = ("service", "queue", "startup", "retry", "join")

#: Reconcile iterations for the exact-sum fold; in practice one or two
#: suffice (the residual is a unit-in-the-last-place rounding artifact).
_MAX_RECONCILE = 64


@dataclass(frozen=True)
class Stage:
    """One attributed slice of a request's end-to-end latency."""

    service: str
    stage: str  # one of _STAGES
    duration: float


@dataclass
class RequestAttribution:
    """The critical path of one completed workflow request."""

    request_id: int
    workflow: str
    makespan: float
    stages: List[Stage] = field(default_factory=list)
    #: Tasks on the reconstructed chain.
    hops: int = 0
    #: True when every hop was tied to its trigger by exact timestamp
    #: equality (no ``join`` fallback gaps).
    exact_chain: bool = True

    def total(self) -> float:
        return math.fsum(s.duration for s in self.stages)

    def by_stage(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for s in self.stages:
            out[s.stage] = out.get(s.stage, 0.0) + s.duration
        return out


@dataclass
class CriticalPathReport:
    """All per-request attributions plus fleet-level rollups."""

    requests: List[RequestAttribution] = field(default_factory=list)

    def bottlenecks(self, top_k: int = 5) -> List[Dict]:
        """Top-K (service, stage) sinks of critical-path time.

        Each entry carries the total attributed seconds, the share of
        all attributed time, and how many requests the pair appeared on.
        Service time is the work itself; large ``queue``/``startup``
        shares are the actionable bottlenecks.
        """
        totals: Dict[Tuple[str, str], float] = {}
        counts: Dict[Tuple[str, str], int] = {}
        for request in self.requests:
            seen = set()
            for s in request.stages:
                key = (s.service, s.stage)
                totals[key] = totals.get(key, 0.0) + s.duration
                if key not in seen:
                    counts[key] = counts.get(key, 0) + 1
                    seen.add(key)
        grand = math.fsum(totals.values())
        ranked = sorted(
            totals.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1])
        )
        out = []
        for (service, stage), total in ranked[: max(0, top_k)]:
            out.append({
                "service": service,
                "stage": stage,
                "total_seconds": total,
                "share": total / grand if grand else 0.0,
                "requests": counts[(service, stage)],
            })
        return out

    def stage_totals(self) -> Dict[str, float]:
        """Attributed seconds per stage over every request."""
        out = {stage: 0.0 for stage in _STAGES}
        for request in self.requests:
            for stage, value in request.by_stage().items():
                out[stage] = out.get(stage, 0.0) + value
        return out

    def exact_sum_ok(self) -> bool:
        """Every request's stages sum bitwise-exactly to its makespan."""
        return all(r.total() == r.makespan for r in self.requests)


def _reconcile(durations: List[float], makespan: float) -> List[float]:
    """Fold the float-summation residual into one duration, exactly.

    The correction is applied to the element with the *finest* ulp (the
    smallest magnitude): its representable steps are finer than the
    rounding granularity of the total, so walking it ulp-by-ulp from the
    natural candidate ``makespan - fsum(others)`` always reaches a value
    whose correctly-rounded total (``math.fsum``) equals the makespan
    bitwise.  Folding the residual into the *largest* element — the
    obvious choice — fails when the exact sum lands on a round-to-even
    tie: a one-ulp nudge jumps over the target and oscillates.
    """
    if not durations or math.fsum(durations) == makespan:
        return durations
    j = min(range(len(durations)), key=lambda i: math.ulp(durations[i]))
    others = durations[:j] + durations[j + 1:]
    d = makespan - math.fsum(others)
    for _ in range(_MAX_RECONCILE):
        total = math.fsum(others + [d])
        if total == makespan:
            break
        d = math.nextafter(
            d, math.inf if total < makespan else -math.inf
        )
    return durations[:j] + [d] + durations[j + 1:]


def _hop_stages(
    span: Mapping,
    ready_latency: Dict[Tuple[str, float], float],
) -> List[Tuple[str, str, float]]:
    """Split one task span [published, completed] into stages.

    The wait interval ``[published, started]`` decomposes into retry
    (bounded by the recorded wasted work), startup (when the dispatching
    consumer became ready at exactly the start instant, bounded by its
    startup latency), and plain queueing; ``[started, completed]`` is
    the successful service attempt.
    """
    service = span["service"]
    published = span["published"]
    started = span["started"]
    completed = span["t"]
    wait = started - published
    retry = min(max(span["wasted"], 0.0), max(wait, 0.0))
    startup = 0.0
    latency = ready_latency.get((service, started))
    if latency is not None:
        startup = min(latency, max(wait - retry, 0.0))
    queue = max(wait - retry - startup, 0.0)
    stages = []
    if retry > 0.0:
        stages.append((service, "retry", retry))
    if startup > 0.0:
        stages.append((service, "startup", startup))
    if queue > 0.0:
        stages.append((service, "queue", queue))
    stages.append((service, "service", completed - started))
    return stages


def analyze_trace(records: Sequence[Mapping]) -> CriticalPathReport:
    """Reconstruct per-request critical paths from loaded trace records.

    Requires a schema-v3 trace (``event.task_span`` present); requests
    without spans (e.g. traces from older runs) attribute their whole
    makespan to a single ``join`` stage.
    """
    arrivals: Dict[int, float] = {}
    spans: Dict[int, List[Mapping]] = {}
    completions: List[Mapping] = []
    ready_latency: Dict[Tuple[str, float], float] = {}
    for record in records:
        kind = record.get("kind")
        if kind == "event.arrival":
            arrivals[record["request_id"]] = record["t"]
        elif kind == "event.task_span":
            spans.setdefault(record["request_id"], []).append(record)
        elif kind == "event.workflow_complete":
            completions.append(record)
        elif kind == "event.consumer_ready":
            key = (record["service"], record["t"])
            if key not in ready_latency:
                ready_latency[key] = record["startup_latency"]

    report = CriticalPathReport()
    for complete in completions:
        rid = complete["request_id"]
        makespan = complete["response_time"]
        arrival = arrivals.get(rid, complete["t"] - makespan)
        attribution = RequestAttribution(
            request_id=rid,
            workflow=complete["workflow"],
            makespan=makespan,
        )
        chain = _walk_chain(spans.get(rid, ()), arrival, complete["t"])
        raw: List[Tuple[str, str, float]] = []
        for item in chain:
            if isinstance(item, tuple):  # explicit gap: (service, gap)
                service, gap = item
                attribution.exact_chain = False
                if gap > 0.0:
                    raw.append((service, "join", gap))
            else:
                attribution.hops += 1
                raw.extend(_hop_stages(item, ready_latency))
        if not raw:
            attribution.exact_chain = False
            raw.append(("", "join", makespan))
        durations = _reconcile([d for _, _, d in raw], makespan)
        attribution.stages = [
            Stage(service, stage, duration)
            for (service, stage, _), duration in zip(raw, durations)
        ]
        report.requests.append(attribution)
    return report


def _walk_chain(
    request_spans: Sequence[Mapping], arrival: float, completion: float
):
    """Backwards walk from the finishing task to the arrival.

    Yields spans (chain hops, oldest first) interleaved with
    ``(service, gap_seconds)`` tuples where exact trigger matching
    failed.  An empty span list yields nothing (caller books the whole
    makespan as a join gap).
    """
    if not request_spans:
        return []
    # The finishing task: completion time equals the workflow completion
    # (the invoker stamps both with the same loop.now).  Fall back to
    # the latest span on a mismatch.
    tail = None
    for span in request_spans:
        if span["t"] == completion:
            tail = span
    if tail is None:
        tail = max(request_spans, key=lambda s: s["t"])
    by_completion: Dict[float, Mapping] = {}
    for span in request_spans:
        # First occurrence wins on ties: deterministic in trace order.
        by_completion.setdefault(span["t"], span)
    chain: List = [tail]
    current = tail
    guard = len(request_spans) + 1
    while guard > 0:
        guard -= 1
        published = current["published"]
        if published == arrival:
            break  # entry task: chain is complete
        trigger = by_completion.get(published)
        if trigger is not None and trigger is not current:
            chain.append(trigger)
            current = trigger
            continue
        # Fallback: latest completion at or before the publish time.
        candidates = [
            s for s in request_spans
            if s["t"] <= published and s is not current and s not in chain
        ]
        if candidates:
            trigger = max(candidates, key=lambda s: s["t"])
            chain.append((current["service"], published - trigger["t"]))
            chain.append(trigger)
            current = trigger
        else:
            chain.append((current["service"], published - arrival))
            break
    chain.reverse()
    return chain


def analyze_run(path) -> CriticalPathReport:
    """Analyze a run directory (or trace file) offline."""
    from repro.telemetry.report import load_trace

    return analyze_trace(load_trace(path))


def critical_report_json(
    report: CriticalPathReport, top_k: int = 5
) -> str:
    """Canonical JSON document (sorted keys, compact, trailing newline)."""
    document = {
        "critical_version": CRITICAL_VERSION,
        "requests": [
            {
                "request_id": r.request_id,
                "workflow": r.workflow,
                "makespan": r.makespan,
                "hops": r.hops,
                "exact_chain": r.exact_chain,
                "stages": [
                    {
                        "service": s.service,
                        "stage": s.stage,
                        "duration": s.duration,
                    }
                    for s in r.stages
                ],
            }
            for r in report.requests
        ],
        "bottlenecks": report.bottlenecks(top_k),
        "stage_totals": report.stage_totals(),
        "exact_sum_ok": report.exact_sum_ok(),
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def render_critical(
    report: CriticalPathReport, top_k: int = 5
) -> str:
    """Human-readable bottleneck table (the ``repro critical`` CLI)."""
    lines: List[str] = []
    n = len(report.requests)
    lines.append(
        f"Critical-path attribution over {n} completed request"
        f"{'s' if n != 1 else ''}"
    )
    totals = report.stage_totals()
    grand = math.fsum(totals.values())
    if grand > 0:
        parts = ", ".join(
            f"{stage} {totals[stage] / grand * 100.0:.1f}%"
            for stage in _STAGES if totals[stage] > 0
        )
        lines.append(f"attributed time by stage: {parts}")
    lines.append("")
    lines.append(f"{'service':<16} {'stage':<8} {'seconds':>10} "
                 f"{'share':>7} {'requests':>9}")
    for row in report.bottlenecks(top_k):
        lines.append(
            f"{row['service'] or '(none)':<16} {row['stage']:<8} "
            f"{row['total_seconds']:>10.1f} "
            f"{row['share'] * 100.0:>6.1f}% {row['requests']:>9}"
        )
    exact = sum(1 for r in report.requests if r.exact_chain)
    lines.append("")
    lines.append(
        f"exact chains: {exact}/{n}   exact-sum invariant: "
        f"{'ok' if report.exact_sum_ok() else 'VIOLATED'}"
    )
    return "\n".join(lines)
