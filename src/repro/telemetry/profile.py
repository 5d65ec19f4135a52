"""Hierarchical phase profiler: where did the wall/CPU time go?

A :class:`PhaseProfiler` attributes real (wall and CPU) time to a tree
of named *phases*.  Nothing in the program knows about it: used as a
context manager (``with PhaseProfiler() as profiler:``) it wraps every
layer boundary listed in :data:`BOUNDARIES` — ``nn.forward`` under
``rl.update`` under ``core.train_policy``, ``sim.dispatch`` under
``sim.run_window`` under ``sim.env_step`` — for the duration of the
block and puts every original back on exit, so a profiled run executes
the same code as an unprofiled one plus one wrapper per boundary call.
``with profiler.phase("name"):`` times any other block under the
current phase.  Each tree node records call counts, cumulative time,
and self time (cumulative minus children).

**Determinism boundary.**  Profiling is *measurement of the machine*,
not of the simulation: its clock reads are real, so profiler output is
explicitly excluded from the trace-determinism contract, exactly like
``wall_time`` in the run manifest.  The two clock reads below are the
sanctioned wall-clock sites (the wall clock is a D102 ``WAIVED`` row of
``tests/test_determinism.py``); nothing from
this module may ever be written into a trace record.  The determinism
tests pin the other direction too: a profiled run writes the same
trace, weights, replay and dataset bytes.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import timeit
from pathlib import Path
from typing import Callable, Dict, List, Tuple, Union

__all__ = [
    "PROFILE_VERSION",
    "PROFILE_FILENAME",
    "BOUNDARIES",
    "PhaseNode",
    "PhaseProfiler",
    "render_profile",
    "write_profile",
    "read_profile",
]

#: Bumped whenever the profile.json document changes shape.
#: v3: added ``boundary_ns``, the profiler's own cost per boundary call.
PROFILE_VERSION = 3

PROFILE_FILENAME = "profile.json"

#: The layer boundaries an installed profiler wraps: ``("module:qualname",
#: phase)``.  Targets are strings resolved at install time, so this
#: module imports nothing above it.  Two targets share a phase when they
#: are the same boundary (``act``/``act_batch``).  A function is listed
#: under the module whose global its callers read.
BOUNDARIES: List[Tuple[str, str]] = [
    ("repro.nn.network:MLP.forward", "nn.forward"),
    ("repro.nn.network:MLP.backward", "nn.backward"),
    ("repro.nn.network:MLP.train_batch", "nn.train_batch"),
    ("repro.nn.network:MLP.input_gradient", "nn.input_gradient"),
    ("repro.rl.ddpg:soft_update", "nn.soft_update"),
    ("repro.rl.ddpg:DDPGAgent.act", "rl.act"),
    ("repro.rl.ddpg:DDPGAgent.act_batch", "rl.act"),
    ("repro.rl.ddpg:DDPGAgent.update", "rl.update"),
    ("repro.rl.ddpg:DDPGAgent.store_batch", "rl.store"),
    ("repro.rl.ddpg:DDPGAgent.refresh_perturbation", "rl.refresh_perturbation"),
    ("repro.rl.replay:ReplayBuffer.sample", "rl.replay_sample"),
    ("repro.rl.distributed:run_collect_episode", "rl.collect.episode"),
    ("repro.rl.distributed:EnvSpec.build", "rl.collect.episode_env_build"),
    ("repro.core.agent:MirasAgent.iterate", "core.iterate"),
    ("repro.core.agent:MirasAgent.collect_real_interactions", "core.collect"),
    ("repro.core.agent:MirasAgent.collect_distributed", "core.collect"),
    ("repro.core.agent:MirasAgent.train_model", "core.train_model"),
    ("repro.core.agent:MirasAgent.train_policy", "core.train_policy"),
    ("repro.core.agent:MirasAgent.evaluate", "core.evaluate"),
    ("repro.core.environment_model:EnvironmentModel.fit", "core.model_fit"),
    ("repro.core.refinement:RefinedModel.from_dataset", "core.refine_build"),
    ("repro.core.refinement:RefinedModel.predict_batch", "core.predict_batch"),
    ("repro.core.model_env:BatchedModelEnv.step", "core.model_env_step"),
    ("repro.core.dataset:TransitionDataset.add", "core.dataset_add"),
    ("repro.eval.runner:evaluate_allocator", "eval.evaluate_allocator"),
    ("repro.sim.env:MicroserviceEnv.step", "sim.env_step"),
    ("repro.sim.env:MicroserviceEnv.reset", "sim.env_reset"),
    ("repro.sim.system:MicroserviceWorkflowSystem.run_window", "sim.run_window"),
    (
        "repro.sim.system:MicroserviceWorkflowSystem.apply_allocation",
        "sim.apply_allocation",
    ),
    ("repro.sim.system:MicroserviceWorkflowSystem.inject_burst", "sim.inject_burst"),
    ("repro.sim.batched:BatchedWorkflowSystem.inject_burst", "sim.inject_burst"),
    ("repro.sim.events:EventLoop.run_until", "sim.dispatch"),
    ("repro.sim.events:TypedEventLoop.run_until", "sim.dispatch"),
    ("repro.baselines.static_alloc:UniformAllocator.allocate", "baselines.allocate"),
    (
        "repro.baselines.static_alloc:ProportionalToWipAllocator.allocate",
        "baselines.allocate",
    ),
    ("repro.baselines.drs:DrsAllocator.allocate", "baselines.allocate"),
    ("repro.baselines.heft:HeftAllocator.allocate", "baselines.allocate"),
    ("repro.baselines.autoscaler:HpaAllocator.allocate", "baselines.allocate"),
    ("repro.telemetry.metrics:MetricsSink.write", "telemetry.sink_write"),
    ("repro.telemetry.sinks:MemorySink.write", "telemetry.sink_write"),
]


def _wall_clock() -> float:
    """Sanctioned wall-clock read for profiling (not simulation data)."""
    return time.perf_counter()


def _cpu_clock() -> float:
    """Sanctioned CPU-clock read for profiling (not simulation data)."""
    return time.process_time()


def _resolve(target: str) -> Tuple[object, str, object]:
    """``"module:Owner.attr"`` -> ``(owner, attr, raw)``.

    ``raw`` is read through ``vars(owner)`` so a classmethod/staticmethod
    is seen as such and an inherited attribute is an error, not a wrap
    installed on the wrong class.
    """
    module, _, qualname = target.partition(":")
    *owners, attr = qualname.split(".")
    owner = importlib.import_module(module)
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr, vars(owner)[attr]


class PhaseNode:
    """One node of the phase tree."""

    __slots__ = ("name", "calls", "wall", "cpu", "children")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.children: Dict[str, "PhaseNode"] = {}

    def child(self, name: str) -> "PhaseNode":
        node = self.children.get(name)
        if node is None:
            node = PhaseNode(name)
            self.children[name] = node
        return node

    @property
    def self_wall(self) -> float:
        """Wall time spent in this phase excluding child phases."""
        return self.wall - sum(c.wall for c in self.children.values())

    @property
    def self_cpu(self) -> float:
        return self.cpu - sum(c.cpu for c in self.children.values())

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "wall": self.wall,
            "cpu": self.cpu,
            "self_wall": self.self_wall,
            "self_cpu": self.self_cpu,
            "children": [
                self.children[name].to_dict()
                for name in sorted(self.children)
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PhaseNode":
        node = cls(data["name"])
        node.calls = int(data["calls"])
        node.wall = float(data["wall"])
        node.cpu = float(data["cpu"])
        for child in data.get("children", ()):
            node.children[child["name"]] = cls.from_dict(child)
        return node


class _Phase:
    """Reusable context manager for one profiler (not re-entrant-safe
    across threads; the simulator is single-threaded by design)."""

    __slots__ = ("profiler", "name", "_wall0", "_cpu0")

    def __init__(self, profiler: "PhaseProfiler", name: str):
        self.profiler = profiler
        self.name = name

    def __enter__(self) -> "_Phase":
        self.profiler._push(self.name)
        self._wall0 = _wall_clock()
        self._cpu0 = _cpu_clock()
        return self

    def __exit__(self, *exc_info) -> None:
        wall = _wall_clock() - self._wall0
        cpu = _cpu_clock() - self._cpu0
        self.profiler._pop(wall, cpu)


class PhaseProfiler:
    """Collects a self-time/cumulative phase tree.

    ``with PhaseProfiler() as profiler:`` wraps every :data:`BOUNDARIES`
    entry for the block (class attributes, so every instance — existing
    or built inside the block — is covered) and restores the originals
    on exit, also when the block raises.  Only one profiler can be
    installed at a time.
    """

    def __init__(self):
        self.root = PhaseNode("total")
        self._stack: List[PhaseNode] = [self.root]
        self._installed: List[Tuple[object, str, object]] = []

    # Installing -----------------------------------------------------------
    def __enter__(self) -> "PhaseProfiler":
        # Resolve everything before touching anything, so a stale entry
        # fails with nothing wrapped; so does a second install, which
        # finds the first boundary already wrapped.
        resolved = [(*_resolve(target), name) for target, name in BOUNDARIES]
        for owner, attr, raw, name in resolved:
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            function = raw.__func__ if kind else raw
            if hasattr(function, "__phase__"):
                raise RuntimeError("a PhaseProfiler is already installed")
            wrapper = self._wrap(function, name)
            setattr(owner, attr, kind(wrapper) if kind else wrapper)
            self._installed.append((owner, attr, raw))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def _wrap(self, function: Callable, name: str) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.phase(name):
                return function(*args, **kwargs)

        wrapper.__phase__ = name
        return wrapper

    # Recording ------------------------------------------------------------
    def phase(self, name: str) -> _Phase:
        """Context manager timing one phase nested under the current one."""
        return _Phase(self, name)

    def _push(self, name: str) -> None:
        node = self._stack[-1].child(name)
        node.calls += 1
        self._stack.append(node)

    def _pop(self, wall: float, cpu: float) -> None:
        node = self._stack.pop()
        node.wall += wall
        node.cpu += cpu

    # Reading --------------------------------------------------------------
    def to_dict(self) -> Dict:
        """The profile.json document."""
        return {
            "profile_version": PROFILE_VERSION,
            "tree": self.root.to_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PhaseProfiler(phases={len(self.root.children)})"


def _total_calls(node: PhaseNode) -> int:
    return node.calls + sum(_total_calls(c) for c in node.children.values())


def render_profile(source: Union[PhaseProfiler, Dict]) -> str:
    """Render the phase tree as an indented text report.

    Accepts a profiler or a loaded profile.json document (v3: with a cost line).
    """
    if isinstance(source, PhaseProfiler):
        source = source.to_dict()
    root = PhaseNode.from_dict(source["tree"])
    lines = [
        f"{'phase':<40} {'calls':>8} {'wall (s)':>10} "
        f"{'self (s)':>10} {'cpu (s)':>10}"
    ]
    lines.append("-" * len(lines[0]))

    def visit(node: PhaseNode, depth: int) -> None:
        label = ("  " * depth) + node.name
        lines.append(
            f"{label:<40} {node.calls:>8} {node.wall:>10.4f} "
            f"{node.self_wall:>10.4f} {node.cpu:>10.4f}"
        )
        for name in sorted(node.children):
            visit(node.children[name], depth + 1)

    for name in sorted(root.children):
        visit(root.children[name], 0)
    if len(lines) == 2:
        lines.append("(no phases recorded)")
    if "boundary_ns" in source:
        ns, calls = source["boundary_ns"], _total_calls(root)
        lines.append(
            f"profiler cost: {ns:.0f} ns per boundary call x {calls} "
            f"calls = {ns * calls / 1e9:.4f} s of the wall time above"
        )
    return "\n".join(lines)


def write_profile(
    outdir: Union[str, Path], profiler: PhaseProfiler
) -> Path:
    """Write ``profile.json`` into a run directory; returns the path.

    The artifact is *outside* the determinism contract — its timings are
    wall-clock measurements and differ between reruns.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    target = outdir / PROFILE_FILENAME
    # The profiler's own cost per boundary call, in ns (about 10 ms to
    # measure): the best of five timings of 1000 calls of a wrapped no-op.
    noop = PhaseProfiler()._wrap(lambda: None, "calibration")
    best = min(timeit.repeat(noop, timer=_wall_clock, number=1000))
    document = profiler.to_dict()
    document["boundary_ns"] = best / 1000 * 1e9
    target.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return target


def read_profile(path: Union[str, Path]) -> Dict:
    """Load a profile.json document from a file or run directory."""
    path = Path(path)
    if path.is_dir():
        path = path / PROFILE_FILENAME
    document = json.loads(path.read_text(encoding="utf-8"))
    if "tree" not in document:
        raise ValueError(f"{path} is not a profile document")
    return document
