"""Span recorder for the traced pass: wrap callables, keep spans in memory.

The benchmark records spans from its own files (choosing-metrics guide,
section 4): for one traced pass the recorder replaces public callables of
the program -- methods on classes, functions on modules -- with thin
wrappers that append ``[name, start, end, parent]`` rows to a list, and
puts the originals back afterwards.  Nothing under ``src/`` is edited and
the untraced pass, which every end-to-end metric comes from, never sees a
wrapper.

A layer's *self time* is its span's duration minus the part its child
spans cover; children never overlap (the program is single-threaded per
process), so that part is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """Records nested spans and restores every wrapper it installed."""

    def __init__(self):
        #: ``[name, start, end, parent_index]`` rows, in start order;
        #: ``parent_index`` is -1 for a root span.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    # Recording -------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    # Wrapping --------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        observe: Optional[Callable[[tuple, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` (class or module attribute) by a recording
        wrapper; ``observe(args, value)`` runs after each call, outside
        the span, for tallies the program does not keep itself."""
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if kind else raw

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                value = function(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(args, value)
            return value

        wrapper.__e2e_span__ = name
        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every original back (reverse order, idempotent)."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # Aggregation -----------------------------------------------------------
    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` and ``self_s``.

        ``busy_s`` skips a span nested (at any depth) inside a span of
        the same name, so recursion and same-name delegation
        (``act_greedy -> act``) are not counted twice.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        totals: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = totals.setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["self_s"] += (end - start) - child_s[index]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                row["busy_s"] += end - start
        return totals

    def write(self, path: Path) -> None:
        """Write ``spans.json``: a name table plus one row per span."""
        names: Dict[str, int] = {}
        rows = []
        origin = self.spans[0][1] if self.spans else 0.0
        for name, start, end, parent in self.spans:
            code = names.setdefault(name, len(names))
            rows.append(
                [code, round(start - origin, 7), round(end - origin, 7), parent]
            )
        document = {
            "columns": ["name", "start_s", "end_s", "parent"],
            "names": list(names),
            "spans": rows,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, separators=(",", ":")) + "\n")
