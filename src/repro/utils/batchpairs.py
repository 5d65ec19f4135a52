"""Serial/batch pair registry: the contract behind ``publish_many`` et al.

The batched simulator substrate relies on a family of *serial/batch
pairs*: a scalar method (``publish``, ``push``, ``add_task``) and a
batched twin (``publish_many``, ...) that must agree bit-for-bit row by
row.  That equivalence is easy to break silently — a dtype promotion in
one twin, an in-place tweak of a shared input, a signature drift that
reorders arguments.  This module makes the pairing *explicit*::

    @batched_pair("push")
    def push_many(self, values):
        ...

Declaring the pair buys two layers of enforcement:

- **Runtime** — while the sanitizer is active (``REPRO_SANITIZE=1``),
  every call through a registered batch function is routed through a
  guard that hashes array arguments (mutation across the boundary raises)
  and checks dtype stability (silent float32/float64 drift raises).
- **Registry** — :func:`registered_pairs` lets tests enumerate every
  declared pair and drive serial-vs-batch equivalence sweeps generically;
  ``tests/core/test_batch_pair_registry.py`` resolves both twins of every
  pair and names the test that pins its row-k equality.

The guard hook is deliberately indirect: this module never imports
``repro.analysis`` (``repro.utils`` sits at the bottom of the layer DAG);
instead the sanitizer installs a callable via :func:`set_runtime_guard`
on activation and clears it on deactivation.  With no guard installed the
wrapper is a single global read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.utils.validation import require

__all__ = [
    "BatchPair",
    "batched_pair",
    "registered_pairs",
    "set_runtime_guard",
    "clear_runtime_guard",
]


@dataclass(frozen=True)
class BatchPair:
    """One declared serial/batch pairing (identity only, no callables)."""

    #: Defining module of the batched function (``repro.core.reward``).
    module: str
    #: Qualified name of the serial twin within the module
    #: (``EnvironmentModel.predict``; plain name for free functions).
    serial_qualname: str
    #: Qualified name of the decorated batch function.
    batch_qualname: str
    serial_name: str
    batch_name: str

    @property
    def key(self) -> str:
        """Registry key: the fully qualified serial twin."""
        return f"{self.module}.{self.serial_qualname}"


#: Every pair declared via :func:`batched_pair`, keyed by
#: :attr:`BatchPair.key`.  Populated at import time of the decorated
#: modules; re-imports re-register the same key idempotently.
_REGISTRY: Dict[str, BatchPair] = {}

#: Sanitizer hook: ``guard(pair, fn, args, kwargs) -> result``.  None
#: (the default) means calls pass straight through.
_RUNTIME_GUARD: Optional[Callable[..., Any]] = None


def batched_pair(serial_name: str) -> Callable:
    """Declare the decorated function as the batch twin of ``serial_name``.

    ``serial_name`` is the *simple* name of the serial function in the
    same scope (same class for methods, same module for free functions);
    ``tests/core/test_batch_pair_registry.py`` resolves it on the imported
    module, so a typo here fails tier-1 rather than silently registering
    an unpaired function.
    """
    require(
        isinstance(serial_name, str) and serial_name.isidentifier(),
        f"serial_name must be a Python identifier, got {serial_name!r}",
    )

    def decorate(fn: Callable) -> Callable:
        qualname = fn.__qualname__
        scope, _, _ = qualname.rpartition(".")
        serial_qualname = f"{scope}.{serial_name}" if scope else serial_name
        pair = BatchPair(
            module=fn.__module__,
            serial_qualname=serial_qualname,
            batch_qualname=qualname,
            serial_name=serial_name,
            batch_name=fn.__name__,
        )
        _REGISTRY[pair.key] = pair

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            guard = _RUNTIME_GUARD
            if guard is None:
                return fn(*args, **kwargs)
            return guard(pair, fn, args, kwargs)

        wrapper.__repro_batch_pair__ = pair
        return wrapper

    return decorate


def registered_pairs() -> Dict[str, BatchPair]:
    """Snapshot of every declared pair, keyed by serial qualname."""
    return dict(_REGISTRY)


def set_runtime_guard(guard: Callable[..., Any]) -> None:
    """Install the sanitizer's call-through guard (replaces any prior)."""
    global _RUNTIME_GUARD
    require(callable(guard), "runtime guard must be callable")
    _RUNTIME_GUARD = guard


def clear_runtime_guard() -> None:
    """Remove the guard; registered functions call through directly."""
    global _RUNTIME_GUARD
    _RUNTIME_GUARD = None
