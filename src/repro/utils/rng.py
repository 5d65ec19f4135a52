"""Seeded random-number streams.

Every stochastic component of the reproduction (arrival processes, service
times, network initialisation, exploration noise, ...) draws from its own
named stream so that experiments are reproducible and components can be
re-seeded independently.  Streams are derived from a root seed with
``numpy.random.SeedSequence`` spawning, which guarantees statistical
independence between streams.

Reproducibility contract
------------------------
All randomness in ``repro`` must flow through :class:`RngStream`; ambient
sources (the :mod:`random` module, global numpy state, wall-clock seeds)
are forbidden, and every stochastic component takes a required ``rng``
stream forked from the experiment seed.  ``tests/test_determinism.py``
enforces both statically (docs/ARCHITECTURE.md, "Determinism contract").
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

__all__ = [
    "RngStream",
    "spawn_rngs",
    "derive_stream_seed",
]


class RngStream:
    """A named, independently seeded random generator.

    Thin wrapper around :class:`numpy.random.Generator` that remembers its
    name and seed sequence so it can be re-created (``fork``) or reported in
    experiment logs.
    """

    def __init__(self, name: str, seed_sequence: np.random.SeedSequence):
        self.name = name
        self._seed_sequence = seed_sequence
        self.generator = np.random.default_rng(seed_sequence)

    def fork(self, label: str) -> "RngStream":
        """Derive a child stream that is independent of this one.

        Forking is deterministic given the parent's seed and the *order* of
        ``fork`` calls: the same parent forked through the same sequence of
        labels reproduces the same children, and every fork — including a
        re-used label — yields a fresh, statistically independent stream.
        The label is recorded in the child's hierarchical name so streams
        remain auditable in traces.
        """
        (child,) = self._seed_sequence.spawn(1)
        return RngStream(f"{self.name}/{label}", child)

    # Convenience passthroughs ------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self.generator.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self.generator.normal(loc, scale, size)

    def exponential(self, scale: float = 1.0, size=None):
        return self.generator.exponential(scale, size)

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0, size=None):
        return self.generator.lognormal(mean, sigma, size)

    def integers(self, low: int, high: int, size=None):
        return self.generator.integers(low, high, size)

    def choice(self, a, size=None, replace: bool = True, p=None):
        return self.generator.choice(a, size=size, replace=replace, p=p)

    def permutation(self, x):
        return self.generator.permutation(x)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(name={self.name!r})"


def spawn_rngs(seed: int, names: Iterable[str]) -> Dict[str, RngStream]:
    """Create one independent :class:`RngStream` per name from a root seed."""
    names_list: List[str] = list(names)
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(names_list))
    return {
        name: RngStream(name, child) for name, child in zip(names_list, children)
    }


def derive_stream_seed(root_seed: int, label: str) -> int:
    """Deterministic seed keyed by (root seed, label) — and nothing else.

    Uses a ``SeedSequence`` over the root seed plus the label's bytes: no
    ``hash()`` (randomised per process) and no dependence on derivation
    *order*, so any scheduling of labelled work items over workers —
    serial, process pools, interleaved — derives the same seed for the
    same item.  This is the primitive behind the parallel experiment
    runner's per-cell seeds and the distributed collector's per-episode
    streams.
    """
    if root_seed < 0:
        raise ValueError(f"root_seed must be >= 0, got {root_seed}")
    entropy = (root_seed, *label.encode("utf-8"))
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint32)[0])

