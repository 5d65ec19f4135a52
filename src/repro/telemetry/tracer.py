"""The tracer: structured event/metric emission with a simulation clock.

Design constraints (docs/OBSERVABILITY.md):

- **Deterministic timestamps.**  The tracer never reads the wall clock;
  ``t`` comes from the bound event loop, so a
  re-run with the same seed produces an identical trace (D102 of
  ``tests/test_determinism.py`` stays clean by construction).
- **Off-by-default-cheap.**  Components default to :data:`NULL_TRACER`,
  whose :attr:`Tracer.enabled` is False.  Hot paths guard emission with
  ``if tracer.enabled:`` so the disabled cost is one attribute read and a
  branch per site — gated in ns per site by
  ``benchmarks/run_observability_bench.py``.
- **Flat records.**  Every emission is one dict matching a schema in
  :mod:`repro.telemetry.records`; sinks own serialisation.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.telemetry.sinks import NullSink, Sink

__all__ = ["Tracer", "NULL_TRACER"]


class Tracer:
    """Emits schema'd trace records and keeps named counters.

    Parameters
    ----------
    sink:
        Destination for records; ``None`` (or a :class:`NullSink`) makes
        the tracer disabled — every emit method returns immediately.

    The clock — the current *simulation* time — is bound afterwards with
    :meth:`bind_clock`: the system binds its event loop.
    """

    def __init__(self, sink: Optional[Sink] = None):
        self.sink: Sink = sink if sink is not None else NullSink()
        #: Fast-path flag checked by instrumented hot paths.
        self.enabled: bool = not isinstance(self.sink, NullSink)
        #: The bound event loop; its ``_now`` is ``t``, read as an
        #: attribute — no call per record.
        self._loop = None
        #: Named monotonic counters (flushed into the run manifest).
        self.counters: Dict[str, int] = {}
        self.records_written = 0

    # Clock ---------------------------------------------------------------
    def bind_clock(self, loop) -> None:
        """Attach the simulation clock; no-op on a disabled tracer.

        ``loop`` is an event loop (anything with a ``_now`` attribute:
        :class:`~repro.sim.events.EventLoop`, ``TypedEventLoop``).  The
        no-op keeps the shared :data:`NULL_TRACER` singleton free of
        cross-run state when many systems are constructed without
        tracing.
        """
        if self.enabled:
            self._loop = loop

    def now(self) -> Optional[float]:
        """Current simulation time, or ``None`` before a loop is bound."""
        loop = self._loop
        return float(loop._now) if loop is not None else None

    # Emission ------------------------------------------------------------
    def write(self, record: Dict) -> None:
        """Stamp ``record`` with the simulation time and hand it to the sink.

        ``record`` is the one dict the record will ever be: built at the
        emitting site, envelope first —
        ``{"kind": ..., "t": None, <payload in schema order>}`` — so
        stamping ``t`` here keeps the key order without a second dict.
        Schema conformance is the caller's contract (validated in tests
        and under ``REPRO_SANITIZE=1``, not per record in the hot path).
        """
        if not self.enabled:
            return
        loop = self._loop
        # Stamping the caller's dict is the contract (see above).
        record["t"] = float(loop._now) if loop is not None else None
        self.sink.write(record)
        self.records_written += 1

    def emit(self, kind: str, **fields) -> None:
        """:meth:`write` for callers holding the payload as keywords —
        the cold form; per-task sites build the record themselves."""
        if self.enabled:
            self.write({"kind": kind, "t": None, **fields})

    def metric(self, name: str, value: float, step: Optional[int] = None) -> None:
        """Emit one named scalar (training-loop instrumentation)."""
        self.emit("metric", name=name, value=float(value), step=step)

    def count(self, name: str, n: int = 1) -> None:
        """Increment a named counter (no record is written per increment)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + n

    # Lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Flush and close the sink."""
        self.sink.flush()
        self.sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        """Flush-and-close on scope exit, including exceptional exit.

        Guarantees a crashed run keeps every record buffered in a
        :class:`~repro.telemetry.sinks.JsonlSink` up to the failure point.
        """
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer(enabled={self.enabled}, "
            f"records={self.records_written})"
        )


#: Shared disabled tracer used as the default by every instrumented
#: component.  Never bind a clock or sink to it.
NULL_TRACER = Tracer()
