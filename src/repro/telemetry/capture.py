"""One way to capture a run: the run directory every traced run writes.

``repro train --telemetry DIR``, ``repro simulate --telemetry DIR``,
each ``repro experiments --telemetry`` cell and ``examples/tracing_tour.py``
all run their code inside :func:`capture_run`, so every run directory
holds the same five files:

- ``trace.jsonl`` — every record, written as it is emitted,
- ``metrics.json`` / ``metrics.prom`` — the live fold of those records,
- ``manifest.json`` — seed, config, command and the tracer's totals,
- ``profile.json`` — the phase tree (wall-clock, outside the
  determinism contract).
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Union

from repro.telemetry.manifest import RunManifest, wall_time_now, write_manifest
from repro.telemetry.metrics import MetricsSink, write_metrics
from repro.telemetry.profile import PhaseProfiler, write_profile
from repro.telemetry.sinks import TRACE_FILENAME, JsonlSink
from repro.telemetry.tracer import Tracer

__all__ = ["capture_run"]


@contextmanager
def capture_run(
    outdir: Union[str, Path], *, seed: int, config: Dict, command: str
) -> Iterator[Tracer]:
    """Trace and profile the block; write the run directory when it succeeds.

    Yields a :class:`Tracer` teeing into ``<outdir>/trace.jsonl`` and a
    live :class:`MetricsSink`, with a :class:`PhaseProfiler` installed
    for the block.  On success the manifest, metrics and profile files
    follow; ``sim_time_end``, ``records_written`` and ``counters`` are
    read off the tracer.  If the block raises, the sink is closed (the
    trace keeps every record up to the failure) and nothing else is
    written.
    """
    # The package root imports every layer; read lazily, at the end.
    from repro import __version__

    outdir = Path(outdir)
    sink = MetricsSink(JsonlSink(outdir / TRACE_FILENAME))
    with Tracer(sink) as tracer, PhaseProfiler() as profiler:
        yield tracer
    sim_time_end = tracer.now()
    write_manifest(outdir, RunManifest(
        run_name=outdir.name,
        seed=seed,
        config=config,
        command=command,
        package_version=__version__,
        sim_time_end=0.0 if sim_time_end is None else sim_time_end,
        records_written=tracer.records_written,
        counters=dict(tracer.counters),
        wall_time=wall_time_now(),
    ))
    write_metrics(outdir, sink)
    write_profile(outdir, profiler)
