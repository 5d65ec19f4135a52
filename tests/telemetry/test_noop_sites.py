"""The no-op gate counts the guards a disabled window evaluates.

``benchmarks/run_observability_bench.py`` estimates what the disabled
telemetry path costs as sites per window × the time of one
``if tracer.enabled:`` guard, and counts the sites as the records an
enabled run writes in its timed windows.  Here a tracer that counts
every read of ``enabled`` — on the run's tracer and on ``NULL_TRACER``,
which components built without one hold — runs the same windows
disabled, and the two counts must agree: not the setup's records on top
(the count once included them and read half as much again), and no
guard that no record stands for.
"""

from benchmarks.run_observability_bench import _loaded_system, count_sites
from repro.telemetry import NULL_TRACER, Tracer

WINDOWS = 5


class GuardCounter(Tracer):
    """A disabled tracer that counts the reads of ``enabled``."""

    reads = 0

    @property
    def enabled(self):
        GuardCounter.reads += 1
        return False

    @enabled.setter
    def enabled(self, _value):
        pass  # ``Tracer.__init__`` assigns it


def test_sites_are_the_guards_a_disabled_window_reads(monkeypatch):
    window_records, records = count_sites(WINDOWS)
    assert 0 < window_records < len(records), "the setup writes records"

    monkeypatch.setattr(NULL_TRACER, "__class__", GuardCounter)
    system = _loaded_system(tracer=GuardCounter())
    GuardCounter.reads = 0
    for _ in range(WINDOWS):
        system.run_window()
    assert GuardCounter.reads == window_records
