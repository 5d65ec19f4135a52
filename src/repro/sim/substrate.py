"""Shared substrate utilities: RNG prefetching and state snapshots.

Two pieces the batched substrate (:mod:`repro.sim.batched`) builds on:

- :class:`PrefetchStream` — a block-prefetching facade over one
  :class:`repro.utils.rng.RngStream` that stays *bit-identical* to
  scalar draws.  numpy's sized draws consume the bit generator exactly
  like the same number of scalar draws, so a block of 512 lognormals
  costs one numpy call yet leaves the stream indistinguishable from 512
  serial calls.  The facade is also *rewindable*: an aborted vectorised
  window rolls the generator back to the position the serial path would
  occupy.

- :func:`substrate_snapshot` — one deep, JSON-compatible dictionary of
  everything observable about a system (queues, consumers, counters,
  cluster, TDS, window history, RNG states).  The serial and batched
  substrates produce *identical* snapshots for the same seed and
  scenario; the equivalence suite (tests/sim/test_batched_substrate.py)
  pins that, and docs/SIMULATOR.md states the contract.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["PrefetchStream", "substrate_snapshot"]


class PrefetchStream:
    """Block-prefetching, rewindable facade over one ``RngStream``.

    The serial microservice draws one lognormal per dispatch and one
    uniform per container start **from the same stream**, interleaved in
    event order (and a Poisson arrival stream one exponential per
    request from its own).  This facade reproduces that draw sequence
    exactly while amortising numpy call overhead:

    - lognormal and exponential draws are served from a prefetched
      block (``tolist()``-ed once, so takes are plain Python floats),
    - a change of kind or parameters, and the uniforms of a scale-up
      (:meth:`uniform_block`: their count is known, so they are drawn
      directly), *resync* first: the generator rewinds to the saved
      pre-block state and re-draws exactly the consumed count, leaving
      it bit-identical to that many scalar draws,
    - :meth:`begin` / :meth:`rollback` bracket a speculative window: on
      rollback the generator and buffer return to the marked position,
      so an aborted vectorised window consumes nothing.

    ``sync()`` normalises the stream back to its serial-equivalent
    position (used before snapshotting generator state).
    """

    __slots__ = (
        "stream", "_gen", "_block", "_kind", "_a", "_b",
        "_buf", "_pos", "_pre_block_state",
    )

    def __init__(self, stream, block: int = 512):
        if block < 1:
            raise ValueError(f"block size must be positive, got {block}")
        self.stream = stream
        self._gen = stream.generator
        self._block = block
        self._kind: Optional[str] = None
        self._a = 0.0
        self._b = 0.0
        self._buf: List[float] = []
        self._pos = 0
        self._pre_block_state: Optional[dict] = None

    # Draws -------------------------------------------------------------
    def lognormal(self, mean: float, sigma: float) -> float:
        """One lognormal draw, bit-identical to the scalar path."""
        if self._kind != "lognormal" or self._a != mean or self._b != sigma:
            self.sync()
            self._kind, self._a, self._b = "lognormal", mean, sigma
            self._fill()
        elif self._pos >= len(self._buf):
            self._fill()
        value = self._buf[self._pos]
        self._pos += 1
        return value

    def exponential(self, scale: float) -> float:
        """One exponential draw, bit-identical to the scalar path."""
        if self._kind != "exponential" or self._a != scale:
            self.sync()
            self._kind, self._a, self._b = "exponential", scale, 0.0
            self._fill()
        elif self._pos >= len(self._buf):
            self._fill()
        value = self._buf[self._pos]
        self._pos += 1
        return value

    def uniform_block(self, low: float, high: float, count: int) -> List[float]:
        """``count`` uniform draws in one call, bit-identical to that
        many scalar ones (a scale-up starts its consumers together)."""
        self.sync()
        return self._gen.uniform(low, high, count).tolist()

    def _sized(self, count: int):
        """``count`` draws of the current kind (numpy consumes the bit
        generator exactly as that many scalar draws would)."""
        if self._kind == "lognormal":
            return self._gen.lognormal(self._a, self._b, count)
        return self._gen.exponential(self._a, count)

    def _fill(self) -> None:
        self._pre_block_state = self._gen.bit_generator.state
        self._buf = self._sized(self._block).tolist()
        self._pos = 0

    # Position management ------------------------------------------------
    def sync(self) -> None:
        """Rewind unconsumed prefetch so the generator state equals the
        serial path's after the draws actually taken."""
        if self._buf and self._pos < len(self._buf):
            self._gen.bit_generator.state = self._pre_block_state
            if self._pos:
                self._sized(self._pos)
        self._buf = []
        self._pos = 0
        self._kind = None
        self._pre_block_state = None

    def begin(self) -> Tuple:
        """Mark the current position for a speculative window."""
        return (
            self._kind, self._a, self._b, self._buf, self._pos,
            self._pre_block_state, self._gen.bit_generator.state,
        )

    def rollback(self, mark: Tuple) -> None:
        """Return to a :meth:`begin` mark (aborted speculative window)."""
        (
            self._kind, self._a, self._b, self._buf, self._pos,
            self._pre_block_state, gen_state,
        ) = mark
        self._gen.bit_generator.state = gen_state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PrefetchStream({self.stream.name!r}, kind={self._kind}, "
            f"buffered={len(self._buf) - self._pos})"
        )


def _rng_state(stream) -> Dict[str, Any]:
    """JSON-compatible bit-generator state of one stream."""
    state = stream.generator.bit_generator.state
    return {
        "bit_generator": state.get("bit_generator"),
        "state": {k: int(v) for k, v in state.get("state", {}).items()},
    }


def _observation_dict(observation) -> Dict[str, Any]:
    return {
        "index": observation.index,
        "start_time": observation.start_time,
        "end_time": observation.end_time,
        "wip": observation.wip.tolist(),
        "allocation": observation.allocation.tolist(),
        "reward": observation.reward,
        "arrivals": dict(observation.arrivals),
        "completions": dict(observation.completions),
        "response_times": list(observation.response_times),
        "response_times_by_type": {
            k: list(v) for k, v in observation.response_times_by_type.items()
        },
        "task_completions": dict(observation.task_completions),
        "task_publishes": dict(observation.task_publishes),
    }


def substrate_snapshot(system) -> Dict[str, Any]:
    """Deep state snapshot of a workflow system, substrate-agnostic.

    Returns one JSON-compatible dictionary covering the event loop,
    per-microservice queues (contents included), consumer tables,
    lifetime counters, cluster placement, TDS read accounting, the full
    window-observation history, the delay tracker, and every RNG
    stream's bit-generator state (registered Poisson arrival streams
    included).  A serial
    :class:`repro.sim.system.MicroserviceWorkflowSystem` and a batched
    :class:`repro.sim.batched.BatchedWorkflowSystem` built from the same
    seed and driven through the same scenario return **equal**
    snapshots — the metrics half of the equivalence contract
    (docs/SIMULATOR.md).

    In-flight workflow instances are identified by their submission
    rank *within the referenced set* (live requests in queues and
    consumers), which is substrate-independent; completed workflows are
    covered by the response-time history and the delay tracker.

    Each microservice yields its own rows (``snapshot_rows``) and the
    system its streams (``rng_streams``); the batched classes ``sync()``
    their prefetch streams there, normalising unconsumed prefetch so
    generator states are comparable (semantically a no-op).
    """
    named_rngs, arrival_rngs = system.rng_streams()
    referenced: List[int] = []
    microservices: Dict[str, Dict[str, Any]] = {}
    for name, ms in system.microservices.items():
        ready, consumers, draining = ms.snapshot_rows()
        referenced.extend(r[0] for r in ready)
        referenced.extend(
            c["task"][0] for c in consumers if c["task"] is not None
        )
        referenced.extend(d["task"][0] for d in draining)
        microservices[name] = {
            "ready": ready,
            "consumers": consumers,
            "draining": draining,
            "queue": {
                "published": ms.published_total,
                "acked": ms.acked_total,
                "redelivered": ms.redelivered_total,
                "ready": ms.ready_count,
                "unacked": ms.unacked_count,
                "conservation_ok": ms.conservation_ok(),
            },
            "counters": {
                "tasks_completed": ms.tasks_completed,
                "killed_busy": ms.consumers_killed_busy,
                "killed_starting": ms.consumers_killed_starting,
                "started": ms.consumers_started,
            },
            "rng_state": _rng_state(ms.rng),
        }

    # Substrate-independent ranks for live workflow instances: both
    # substrates reference the same live set in submission order.
    rank = {wf: i for i, wf in enumerate(sorted(set(referenced)))}

    def _rerank(row: Tuple) -> Tuple:
        return (rank[row[0]],) + tuple(row[1:])

    for entry in microservices.values():
        entry["ready"] = [_rerank(r) for r in entry["ready"]]
        entry["consumers"] = [
            {**c, "task": None if c["task"] is None else _rerank(c["task"])}
            for c in entry["consumers"]
        ]
        entry["draining"] = [
            {**d, "task": _rerank(d["task"])} for d in entry["draining"]
        ]

    return {
        "loop": {
            "now": float(system.loop.now),
            "processed": system.loop.processed,
            "pending": system.loop.pending,
        },
        "window_index": system.window_index,
        "invoker": {
            "submitted": system.invoker.submitted_total,
            "completed": system.invoker.completed_total,
        },
        "microservices": microservices,
        "cluster": {
            str(k): v for k, v in system.cluster.load_by_node().items()
        },
        "tds": {
            "reads": {
                str(k): v for k, v in system.tds.read_distribution().items()
            },
            "healthy": system.tds.healthy_count,
        },
        "history": [_observation_dict(o) for o in system.history],
        "rngs": {
            name: _rng_state(stream)
            for name, stream in sorted(named_rngs.items())
        },
        "arrival_rngs": [_rng_state(rng) for rng in arrival_rngs],
    }
