"""Runtime sanitizer: contracts asserted on the *running* program.

The static checks (``tests/test_determinism.py``) see one file at a time;
this module checks what only the running program can show:

- **Fork-label provenance**: while active, forking the
  same label twice from the same parent :class:`~repro.utils.rng.RngStream`
  instance raises :class:`SanitizerError` — two live streams would share
  one hierarchical name, making traces unattributable.  A process-wide
  registry of every fork name is kept for auditing.
- **Emit-schema conformance**: while active, every record an enabled
  :class:`~repro.telemetry.tracer.Tracer` emits is run through
  :func:`repro.telemetry.records.validate_record` before it reaches the
  sink, so schema drift fails at the emitting call site.  This is the
  only emit-schema check: there is no static twin.

Activation is explicit and reversible::

    from tests.sanitizer import sanitized

    with sanitized():
        run_experiment()

The test suite activates it per-test via an autouse fixture when
``REPRO_SANITIZE=1`` (see ``tests/conftest.py``); CI runs that mode as a
dedicated matrix entry.  Runtime imports (``repro.utils.rng``,
``repro.telemetry``) happen inside :func:`activate`.
"""

from __future__ import annotations

import os
import weakref
from collections import Counter
from typing import List, Optional

__all__ = [
    "SanitizerError",
    "SanitizerState",
    "activate",
    "deactivate",
    "is_active",
    "sanitize_requested",
    "sanitized",
    "state",
]

#: Environment variable that opts the test suite into sanitize mode.
ENV_FLAG = "REPRO_SANITIZE"

#: Attribute used to remember labels already forked from a stream
#: instance; lives on the instance so the registry follows its lifetime.
_FORKED_ATTR = "_sanitizer_forked_labels"


class SanitizerError(AssertionError):
    """A runtime reproducibility contract was violated.

    Derives from :class:`AssertionError` so test frameworks report it as
    a failed invariant rather than an infrastructure error.
    """


class SanitizerState:
    """Bookkeeping for one activation of the sanitizer."""

    def __init__(self) -> None:
        #: Full hierarchical name of every stream forked while active.
        self.fork_names: Counter = Counter()
        #: Records validated while active.
        self.records_validated: int = 0
        #: Collisions/violations raised while active (for reporting).
        self.violations: int = 0
        #: Streams whose per-instance label registry we populated, so
        #: reset() can clear them (weakrefs: never prolong lifetimes).
        self._touched: List[weakref.ref] = []

    def reset(self) -> None:
        self.fork_names.clear()
        self.records_validated = 0
        self.violations = 0
        for ref in self._touched:
            stream = ref()
            if stream is not None and hasattr(stream, _FORKED_ATTR):
                getattr(stream, _FORKED_ATTR).clear()
        self._touched.clear()


#: Process-wide state of the current activation.
state = SanitizerState()

_original_fork = None
_original_write = None


def sanitize_requested() -> bool:
    """True when the environment opts into sanitize mode."""
    return os.environ.get(ENV_FLAG, "") == "1"


def is_active() -> bool:
    """True while the runtime patches are installed."""
    return _original_fork is not None


def activate() -> None:
    """Install the runtime checks (idempotent)."""
    global _original_fork, _original_write
    if is_active():
        return

    from repro.telemetry.records import validate_record
    from repro.telemetry.tracer import Tracer
    from repro.utils.rng import RngStream

    state.reset()
    _original_fork = RngStream.fork
    _original_write = Tracer.write

    original_fork = _original_fork
    original_write = _original_write

    def checked_fork(self, label):
        seen = getattr(self, _FORKED_ATTR, None)
        if seen is None:
            seen = set()
            setattr(self, _FORKED_ATTR, seen)
        if not seen:
            state._touched.append(weakref.ref(self))
        if label in seen:
            state.violations += 1
            raise SanitizerError(
                f"fork-label collision: stream {self.name!r} already "
                f"forked label {label!r}; the second child would share "
                f"the name {self.name!r}/{label!r} — qualify the label"
            )
        seen.add(label)
        child = original_fork(self, label)
        state.fork_names[child.name] += 1
        return child

    def checked_write(self, record):
        # ``Tracer.write`` is the one door to the sink (``emit`` and
        # ``metric`` go through it), so patching it checks every record.
        if self.enabled:
            try:
                validate_record(record)
            except ValueError as exc:
                state.violations += 1
                raise SanitizerError(
                    f"emit-schema violation: {exc}"
                ) from exc
            state.records_validated += 1
        return original_write(self, record)

    RngStream.fork = checked_fork
    Tracer.write = checked_write


def deactivate() -> None:
    """Remove the runtime checks and forget per-stream registries."""
    global _original_fork, _original_write
    if not is_active():
        return

    from repro.telemetry.tracer import Tracer
    from repro.utils.rng import RngStream

    RngStream.fork = _original_fork
    Tracer.write = _original_write
    _original_fork = None
    _original_write = None


class sanitized:
    """Context manager scoping one sanitizer activation.

    Entering resets the registry, so each scope (one test, one
    experiment) checks its own invariants; exiting always restores the
    unpatched methods.
    """

    def __enter__(self) -> SanitizerState:
        activate()
        state.reset()
        return state

    def __exit__(self, exc_type, exc, tb) -> Optional[bool]:
        deactivate()
        return None
