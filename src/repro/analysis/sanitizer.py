"""Runtime sanitizer: contracts asserted on the *running* program.

The static pass proves properties about call sites it can resolve; this
module checks what only the running program can show:

- **Fork-label provenance** (static R101): while active, forking the
  same label twice from the same parent :class:`~repro.utils.rng.RngStream`
  instance raises :class:`SanitizerError` — two live streams would share
  one hierarchical name, making traces unattributable.  A process-wide
  registry of every fork name is kept for auditing.
- **Emit-schema conformance**: while active, every record an enabled
  :class:`~repro.telemetry.tracer.Tracer` emits is run through
  :func:`repro.telemetry.records.validate_record` before it reaches the
  sink, so schema drift fails at the emitting call site.  This is the
  only emit-schema check: there is no static twin.
- **Batch-pair contracts** (static N1): while active, every call
  through a function registered with
  :func:`repro.utils.batchpairs.batched_pair` is routed through a guard
  that (a) rejects mixed float32/float64 array arguments, (b) pins the
  floating dtype of the result per pair — silent promotion between calls
  raises, and (c) hashes every array argument before and after the call,
  so in-place mutation leaking across the registered boundary fails at
  the exact call site the static N103 pass could not prove.

Activation is explicit and reversible::

    from repro.analysis.sanitizer import sanitized

    with sanitized():
        run_experiment()

The test suite activates it per-test via an autouse fixture when
``REPRO_SANITIZE=1`` (see ``tests/conftest.py``); CI runs that mode as a
dedicated matrix entry.  Runtime imports (``repro.utils.rng``,
``repro.telemetry``) happen inside :func:`activate`, keeping
``repro.analysis`` import-free of runtime packages for the static path —
the layering rule the L1 family enforces.
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
        #: Guarded batch-pair calls while active, by BatchPair.key.
        self.pair_calls: Counter = Counter()
        #: BatchPair.key -> floating result dtype pinned by the first
        #: guarded call; later drift raises.
        self.pair_dtypes: dict = {}
        #: Streams whose per-instance label registry we populated, so
        #: reset() can clear them (weakrefs: never prolong lifetimes).
        self._touched: List[weakref.ref] = []

    def reset(self) -> None:
        self.fork_names.clear()
        self.records_validated = 0
        self.violations = 0
        self.pair_calls.clear()
        self.pair_dtypes.clear()
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

    import hashlib

    import numpy as np

    from repro.telemetry.records import validate_record
    from repro.telemetry.tracer import Tracer
    from repro.utils import batchpairs
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
                f"the name {self.name!r}/{label!r} — qualify the label "
                "(static rule R101 catches the constant-label cases)"
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

    def array_fingerprint(value):
        """(dtype, shape, content hash) for ndarrays; None otherwise."""
        if not isinstance(value, np.ndarray):
            return None
        digest = hashlib.blake2b(
            np.ascontiguousarray(value).tobytes(), digest_size=16
        ).hexdigest()
        return str(value.dtype), value.shape, digest

    def batch_pair_guard(pair, fn, args, kwargs):
        arrays = [
            (label, value)
            for label, value in (
                [(f"arg{i}", a) for i, a in enumerate(args)]
                + sorted(kwargs.items())
            )
            if isinstance(value, np.ndarray)
        ]
        float_dtypes = {
            str(a.dtype) for _, a in arrays
            if np.issubdtype(a.dtype, np.floating)
        }
        if len(float_dtypes) > 1:
            state.violations += 1
            raise SanitizerError(
                f"batch-pair dtype mix: {pair.batch_qualname} received "
                f"arrays of {sorted(float_dtypes)}; arithmetic between "
                "them promotes silently (static rule N101 catches the "
                "constant cases) — align the dtypes before the call"
            )
        before = [(label, array_fingerprint(a)) for label, a in arrays]
        result = fn(*args, **kwargs)
        for (label, prior), (_, value) in zip(before, arrays):
            if array_fingerprint(value) != prior:
                state.violations += 1
                raise SanitizerError(
                    f"batch-pair mutation: {pair.batch_qualname} "
                    f"modified array argument `{label}` in place; the "
                    "caller's data changed across the registered "
                    "boundary (static rule N103 catches the provable "
                    "cases) — operate on a copy"
                )
        if isinstance(result, np.ndarray) and np.issubdtype(
            result.dtype, np.floating
        ):
            pinned = state.pair_dtypes.setdefault(
                pair.key, str(result.dtype)
            )
            if str(result.dtype) != pinned:
                state.violations += 1
                raise SanitizerError(
                    f"batch-pair dtype drift: {pair.batch_qualname} "
                    f"returned {result.dtype} after earlier calls "
                    f"returned {pinned}; the serial/batch equivalence "
                    "contract assumes a stable dtype"
                )
        state.pair_calls[pair.key] += 1
        return result

    RngStream.fork = checked_fork
    Tracer.write = checked_write
    batchpairs.set_runtime_guard(batch_pair_guard)


def deactivate() -> None:
    """Remove the runtime checks and forget per-stream registries."""
    global _original_fork, _original_write
    if not is_active():
        return

    from repro.telemetry.tracer import Tracer
    from repro.utils import batchpairs
    from repro.utils.rng import RngStream

    RngStream.fork = _original_fork
    Tracer.write = _original_write
    batchpairs.clear_runtime_guard()
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
