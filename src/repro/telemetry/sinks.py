"""Trace sinks: where emitted records go.

A sink is anything with ``write(record)``/``flush()``/``close()``.  The
tracer never serialises records itself — the sink owns the encoding — so
an in-memory sink costs one list append per record and the no-op sink
costs nothing at all (the tracer short-circuits before building the
record dict; see :class:`repro.telemetry.tracer.Tracer`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.telemetry.records import validate_record

__all__ = [
    "TRACE_FILENAME", "Sink", "NullSink", "MemorySink", "JsonlSink",
    "load_trace",
]

#: The trace file of a run directory.
TRACE_FILENAME = "trace.jsonl"


class Sink:
    """Interface for trace-record consumers.

    Every sink is a context manager: ``with sink:`` flushes and closes
    on exit — including exceptional exit, so a
    crashed run never loses buffered trace lines.
    """

    def write(self, record: Dict) -> None:
        """Consume one record (a flat JSON-serialisable dict)."""
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered records to their destination (default: no-op)."""

    def close(self) -> None:
        """Release resources; further writes are an error (default: no-op)."""

    def __bool__(self) -> bool:
        """A sink is always truthy, however few records it holds: without
        this, ``Tracer(sink) if sink else None`` runs untraced on a fresh
        :class:`MemorySink`, whose ``__len__`` is still 0."""
        return True

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullSink(Sink):
    """Discards everything.  The tracer treats it as "tracing disabled"."""

    def write(self, record: Dict) -> None:
        """Drop the record."""


class MemorySink(Sink):
    """Keeps records in a list — for tests and in-process analysis."""

    def __init__(self):
        self.records: List[Dict] = []

    def write(self, record: Dict) -> None:
        """Append the record to :attr:`records`."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)


class JsonlSink(Sink):
    """Writes one JSON object per line to a file (the trace format).

    Keys are written in insertion order (the envelope first), compact,
    values as ``json.dumps`` writes them by default — re-running the same
    seeded experiment byte-reproduces the file.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file: Optional = self.path.open("w", encoding="utf-8")
        # One encoder for the sink's life: ``json.dumps`` with non-default
        # separators builds a new ``JSONEncoder`` on every call.
        self._encode = json.JSONEncoder(separators=(",", ":")).encode
        self.records_written = 0

    def write(self, record: Dict) -> None:
        """Serialise and append one record line."""
        if self._file is None:
            raise RuntimeError(f"sink for {self.path} is closed")
        self._file.write(self._encode(record) + "\n")
        self.records_written += 1

    def flush(self) -> None:
        """Flush the underlying file buffer."""
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        """Flush and close the file; idempotent."""
        if self._file is not None:
            self._file.close()
            self._file = None


def load_trace(
    path: Union[str, Path], validate: bool = False
) -> List[Dict]:
    """Read back what :class:`JsonlSink` wrote: a trace file, or a run
    directory holding ``trace.jsonl``.

    With ``validate=True`` every record is checked against its registered
    schema.  A line that is not JSON, or fails the check, raises
    ``ValueError`` naming ``<file>:<line>``.
    """
    path = Path(path)
    if path.is_dir():
        path = path / TRACE_FILENAME
    records: List[Dict] = []
    with path.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if validate:
                    validate_record(record)
            except ValueError as exc:
                reason = (
                    f"invalid JSON ({exc})"
                    if isinstance(exc, json.JSONDecodeError) else exc
                )
                raise ValueError(f"{path}:{line_no}: {reason}") from exc
            records.append(record)
    return records
