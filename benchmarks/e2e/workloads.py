"""The six benchmark workloads and the probe a pass records itself with.

Every workload is a *closed loop* with one client: the controller's next
allocation waits for the window's observation.  A workload function runs
one **pass** -- a fixed amount of user-visible work, built only from the
seed -- through the program's public API, exactly as the CLI path it
stands for would, calls ``probe.stop()`` when the timed part ends, and
then checks its outputs (untimed).  The sizes are constants (``SIZES``);
the seed only feeds the generated inputs (system seed ``S``, agent seed
``S+1``, evaluation seeds ``S + 7919 i``).

Why these six (see README.md for the layer table):

- ``train_msd`` and ``sim_paper`` mirror each other: the first spends
  ~85 % in ``repro.nn``/``repro.rl``/``repro.core`` and ~12 % in
  ``repro.sim``; the second never calls ``repro.nn``.
- ``sim_paper_traced`` runs ``sim_paper`` cells with the program's own
  ``Tracer`` attached: enabled-telemetry cost shows here only.
- ``sim_prod_burst`` is the vectorised window replay's home ground;
  ``sim_prod_steady`` attaches Poisson arrivals, which makes the replay
  statically ineligible on every window, so the exact tier does all
  the work.
- ``collect_physical`` pays process spawn, per-episode weight pickling
  and environment rebuilds, all of which ``train_msd`` (serial
  collection) bypasses.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import pickle
import resource
import sys
import tempfile
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.baselines import (
    DrsAllocator,
    HeftAllocator,
    HpaAllocator,
    ProportionalToWipAllocator,
    UniformAllocator,
)
from repro.core.agent import MirasAgent
from repro.core.config import MirasConfig
from repro.core.persistence import load_agent, save_agent
from repro.eval.experiments import dataset_preset
from repro.eval.runner import evaluate_allocator, make_env
from repro.rl.distributed import (
    DistributedCollector,
    EnvSpec,
    episode_plan,
    policy_payload,
)
from repro.sim import (
    BatchedWorkflowSystem,
    MicroserviceEnv,
    MicroserviceWorkflowSystem,
    SystemConfig,
    substrate_snapshot,
)
from repro.telemetry import MemorySink, MetricsSink, Tracer
from repro.workflows import build_msd_ensemble
from repro.workload.arrivals import PoissonArrivalProcess
from repro.workload.bursts import BurstScenario

from hostspeed import REF_BURST, REF_GAP_S, local_slowdown, reference_kernel
from spans import SpanRecorder

__all__ = ["Probe", "WORKLOADS", "WORKERS", "SIZES", "QUICK_SIZES"]

#: Pool width of the physical collector: ``min(nproc, 4)`` less one core
#: for the learner, which merges blocks while the workers run.  With as
#: many workers as cores the three processes take turns on two cores and
#: the benchmark times the scheduler: the quartile spread of ``wall_s``
#: over ten seeds was 18 % of the median, against 4 % with this width.
WORKERS = max(1, min(os.cpu_count() or 1, 4) - 1)

ALLOCATORS = {
    "uniform": UniformAllocator,
    "wip": ProportionalToWipAllocator,
    "stream": DrsAllocator,
    "heft": HeftAllocator,
    "hpa": HpaAllocator,
}

#: Full sizes.  A pass is sized to ~1-1.5 s on the 2-core sizing host so
#: that a run (run.py) fits ten or more identical passes: the host's slow
#: phases last minutes, and only that many readings of every interval
#: leave each one a clean reading.
SIZES: Dict[str, dict] = {
    # `repro train --dataset msd --iterations 2` at 2/5 of msd_fast's
    # steps.  msd_fast stops policy training early after 8-25 of 25
    # rollouts depending on the seed, which moves wall time by 2x between
    # seeds; the benchmark pins the count (to 2/5 of the mean, 13) so
    # that every seed does the same work.
    "train_msd": dict(iterations=2, steps=100, rollouts=5, eval_steps=10),
    # `repro simulate` / Fig. 7-8: 5 allocators x the first MSD and the
    # first LIGO burst (events move ~3 % between seeds; a single
    # allocator pair would move ~5 %).
    "sim_paper": dict(allocators=tuple(ALLOCATORS), scenarios=1, steps=100),
    # The same cells, tracer attached, for the 40 steps that hold the
    # burst (2/3 of the events: the tracer makes each ~2.7x dearer).
    "sim_paper_traced": dict(
        allocators=tuple(ALLOCATORS), scenarios=1, steps=40
    ),
    # Operator scale: C=4096, pure burst.  The WIP controller drains a
    # burst in one window per pipeline stage whatever the window length,
    # so the windows are the paper's 30 s.
    "sim_prod_burst": dict(
        budget=4096, burst=(12000, 6000, 6000), rates=None, steps=16
    ),
    # Same system and controller with Poisson background attached; the
    # reset drain evaluate_allocator performs (40 windows: the system
    # never empties) runs under load as well.  20 steps put the median
    # step on the steady plateau behind the burst.
    "sim_prod_steady": dict(
        budget=4096, burst=(4000, 2000, 2000), rates=(3.0, 3.0, 2.0), steps=20
    ),
    # `repro train --dataset ligo --collect-mode physical`, collection
    # only: every call spawns its own pool.
    "collect_physical": dict(calls=2, steps=500),
}

#: ``--quick``: every workload at ~1/20 size (smoke test; not comparable).
QUICK_SIZES: Dict[str, dict] = {
    "train_msd": dict(iterations=1, steps=30, rollouts=2, eval_steps=5),
    "sim_paper": dict(allocators=("uniform", "heft"), scenarios=1, steps=12),
    "sim_paper_traced": dict(allocators=("heft",), scenarios=1, steps=12),
    "sim_prod_burst": dict(
        budget=512, burst=(2000, 1000, 1000), rates=None, steps=6
    ),
    "sim_prod_steady": dict(
        budget=512, burst=(600, 300, 300), rates=(0.5, 0.5, 0.4), steps=2
    ),
    "collect_physical": dict(calls=1, steps=50),
}

MSD_WORKFLOWS = ("Type1", "Type2", "Type3")
PROD_WINDOW_S = 30.0
#: The serial-vs-batched equivalence check runs on a twin of the
#: operator-scale scenario with this budget (sizes scaled to match).
TWIN_BUDGET = 256
TWIN_STEPS = 4


class Probe:
    """What one pass records about itself.

    ``ticks`` are ``(perf_counter, process_time)`` readings at
    deterministic program points (every real control window's end, every
    marked call's end, every unit's end).  At a tick, every
    ``REF_GAP_S``, the probe also runs the reference kernel
    (hostspeed.py) -- off the clock: ticks, step latencies and unit
    times are all read from a clock that stops while the kernel runs --
    and ``reference_speed()`` divides every interval by the slowdown the
    nearest samples show.  ``step_s`` holds the host latency of each
    controlled ``env.step`` that simulated at least one task completion
    (an idle window costs microseconds and says nothing about the
    simulator).
    """

    def __init__(
        self, recorder: Optional[SpanRecorder] = None, reference: bool = True
    ):
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        #: Controlled windows: ``env.step`` calls (reset drains excluded --
        #: their number moves with the seed, the steps' does not).
        self.windows = 0
        self.step_s: List[float] = []
        self.systems: list = []
        self.counts: Dict[str, float] = {}
        #: Deterministic results of the pass (equal across repeats).
        self.stats: Dict[str, object] = {}
        #: Host timings the workload took itself.
        self.timings: Dict[str, float] = {}
        self.checks: Dict[str, bool] = {}
        #: Per unit: CPU seconds of child processes (pool workers) reaped
        #: during it, and the tick the unit ended at.
        self.child_cpu: List[float] = []
        self.unit_tick: List[int] = []
        #: Reference samples: the tick each followed, the seconds each took.
        self.ref_tick: List[int] = []
        self.ref_s: List[float] = []
        #: Wall and CPU seconds spent in the reference kernel so far.
        self._off_wall = 0.0
        self._off_cpu = 0.0
        self._next_ref = perf_counter() + REF_GAP_S if reference else math.inf
        self.ticks: List[tuple] = [(perf_counter(), process_time())]

    def now(self) -> float:
        """The probe's wall clock: it stops while the reference kernel runs."""
        return perf_counter() - self._off_wall

    def tick(self, *_ignored) -> None:
        """Also the signature of a system ``window_hooks`` callback."""
        wall, cpu = perf_counter(), process_time()
        self.ticks.append((wall - self._off_wall, cpu - self._off_cpu))
        if wall >= self._next_ref:
            reference_kernel()  # unrecorded: refills the caches the work emptied
            for _ in range(REF_BURST):
                self.ref_tick.append(len(self.ticks) - 1)
                self.ref_s.append(reference_kernel())
            after = perf_counter()
            self._off_wall += after - wall
            self._off_cpu += process_time() - cpu
            self._next_ref = after + REF_GAP_S

    def span(self, name: str):
        return self.recorder.span(name) if self.recorder else nullcontext()

    def time_steps(self, env: MicroserviceEnv) -> None:
        """Time every ``env.step`` of this instance into ``step_s``."""
        inner = env.step
        now = self.now
        samples = self.step_s

        def step(allocation):
            start = now()
            out = inner(allocation)
            elapsed = now() - start
            self.windows += 1
            if out[2].task_completions:
                samples.append(elapsed)
            return out

        env.step = step

    def mark(self, obj, attr: str) -> None:
        """Tick after every call of the public method ``obj.attr``."""
        inner = getattr(obj, attr)
        tick = self.tick

        def marked(*args, **kwargs):
            out = inner(*args, **kwargs)
            tick()
            return out

        setattr(obj, attr, marked)

    @contextmanager
    def unit(self):
        """One attempted operation (a cell, a training run, a collect
        call); an exception fails the unit, not the benchmark."""
        self.attempted += 1
        children = _child_cpu_seconds()
        try:
            yield
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
        self.child_cpu.append(_child_cpu_seconds() - children)
        self.tick()
        self.unit_tick.append(len(self.ticks) - 1)

    def stop(self) -> None:
        """End of the timed part of the pass: the last tick."""
        self.tick()

    @property
    def wall_s(self) -> float:
        return self.ticks[-1][0] - self.ticks[0][0]

    def reference_speed(self):
        """The pass at reference speed: every interval's wall and CPU
        seconds and every unit's child CPU seconds, each divided by the
        host's slowdown around it."""
        clocks = np.diff(np.asarray(self.ticks), axis=0)
        slow = local_slowdown(self.ref_tick, self.ref_s, len(clocks))
        wall, cpu = (clocks / slow[:, None]).T
        # A unit's children ran during the intervals up to its last tick.
        unit_ends = np.asarray(self.unit_tick, dtype=int) - 1
        return wall, cpu, np.asarray(self.child_cpu) / slow[unit_ends]

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok) and self.checks.get(name, True)

    # Counts the program already keeps, read after the pass ----------------
    def settle(self) -> None:
        """Read the systems' counters into ``counts`` and let the systems
        go, so that peak memory is one pass's, not the run's."""
        self.counts = self._sim_counts()
        self.systems.clear()

    def _sim_counts(self) -> Dict[str, float]:
        counts = {
            "events": 0,
            "tasks": 0,
            "workflows": 0,
            "arrivals": 0,
            "batched_windows": 0,
            "fast_windows": 0,
            "fast_aborts": 0,
        }
        reasons: Dict[str, int] = {}
        response_sum = 0.0
        responses = 0
        for system in self.systems:
            counts["events"] += system.loop.processed
            counts["tasks"] += sum(
                ms.tasks_completed for ms in system.microservices.values()
            )
            counts["workflows"] += system.invoker.completed_total
            counts["arrivals"] += system.invoker.submitted_total
            if isinstance(system, BatchedWorkflowSystem):
                counts["batched_windows"] += system.window_index
                counts["fast_windows"] += system.fast_windows
                counts["fast_aborts"] += system.fast_aborts
                for reason, n in system.fast_abort_reasons.items():
                    reasons[reason] = reasons.get(reason, 0) + n
            for observation in system.history:
                response_sum += math.fsum(observation.response_times)
                responses += len(observation.response_times)
            self.check("conservation", system.conservation_ok())
        counts["mean_response_s"] = response_sum / responses if responses else 0.0
        counts["abort_reasons"] = reasons
        return counts


def _child_cpu_seconds() -> float:
    """User + system CPU of this process's reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


# --- train_msd -------------------------------------------------------------
def _train_config(size: dict) -> MirasConfig:
    base = MirasConfig.msd_fast()
    return replace(
        base,
        iterations=size["iterations"],
        steps_per_iteration=size["steps"],
        eval_steps=size["eval_steps"],
        policy=replace(
            base.policy,
            rollouts_per_iteration=size["rollouts"],
            patience=size["rollouts"],
        ),
    )


def _training_env(dataset: str, seed: int, probe: Optional[Probe] = None):
    preset = dataset_preset(dataset)
    return make_env(
        preset["builder"](),
        config=SystemConfig(consumer_budget=preset["budget"]),
        seed=seed,
        background_rates=preset["rates"],
        window_hooks=[probe.tick] if probe else None,
    )


def run_train_msd(seed: int, size: dict, probe: Probe, out_dir: Path) -> None:
    config = _train_config(size)
    agent = None
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        with probe.unit():
            with probe.span("eval.make_env"):
                env = _training_env("msd", seed, probe)
            probe.systems.append(env.system)
            agent = MirasAgent(env, config, seed=seed + 1)
            probe.time_steps(env)
            probe.mark(agent.ddpg, "update_many")
            agent.iterate()
            with probe.span("core.save_agent"):
                saved = save_agent(scratch, agent)
        probe.stop()
        if agent is None or probe.failed:
            return
        with probe.span("core.load_agent"):
            loaded = load_agent(saved, _training_env("msd", seed))
        probe.stats["save_agent_bytes"] = sum(
            f.stat().st_size for f in Path(saved).iterdir()
        )
    rewards = [r.eval_reward for r in agent.results]
    probe.stats["eval_reward_best"] = max(rewards)
    probe.stats["policy_rollouts"] = sum(r.policy_rollouts for r in agent.results)
    probe.stats["updates"] = agent.ddpg.updates_done
    probe.check("finite_rewards", bool(np.all(np.isfinite(rewards))))
    probe.check(
        "dataset_size",
        len(agent.dataset) == size["iterations"] * size["steps"],
    )
    probe.check(
        "load_agent_actor_bit_exact",
        agent.ddpg.actor.network.get_flat().tobytes()
        == loaded.ddpg.actor.network.get_flat().tobytes(),
    )


def warm_train_msd(seed: int, size: dict) -> None:
    env = _training_env("msd", seed)
    agent = MirasAgent(env, _train_config(size), seed=seed + 1)
    state, _, _ = env.step(env.uniform_allocation())
    agent.act(state)


# --- sim_paper / sim_paper_traced ------------------------------------------
#: Cell ``i`` evaluates on seed ``S + CELL_SEED_STRIDE * i``.  One shared
#: seed would give every cell the same arrivals and service draws, and the
#: pass's work would then move ~6 % between seeds instead of ~1.5 %.
CELL_SEED_STRIDE = 7919


def _paper_cells(seed: int, size: dict):
    index = 0
    for dataset in ("msd", "ligo"):
        preset = dataset_preset(dataset)
        for scenario in preset["bursts"][: size["scenarios"]]:
            for allocator in size["allocators"]:
                yield preset, scenario, allocator, seed + CELL_SEED_STRIDE * index
                index += 1


def _completions_in_snapshot(sink: MetricsSink) -> int:
    """Workflow completions as the program's own metrics registry saw them."""
    family = sink.snapshot()["families"]["repro_completions_total"]
    return int(sum(series["value"] for series in family["series"]))


def _cell_env(preset, scenario, cell_seed, tracer=None, hooks=None):
    return make_env(
        preset["builder"](),
        config=SystemConfig(consumer_budget=preset["budget"]),
        seed=cell_seed,
        background_rates=dict(scenario.background_rates),
        tracer=tracer,
        window_hooks=hooks,
    )


def run_sim_paper(
    seed: int, size: dict, probe: Probe, out_dir: Path, traced: bool = False
) -> None:
    records = 0
    finite = True
    for preset, scenario, allocator, cell_seed in _paper_cells(seed, size):
        with probe.unit():
            records_kept = MemorySink()
            sink = MetricsSink(records_kept) if traced else None
            with probe.span("eval.make_env"):
                env = _cell_env(
                    preset,
                    scenario,
                    cell_seed,
                    tracer=Tracer(sink) if traced else None,
                    hooks=[probe.tick],
                )
            probe.systems.append(env.system)
            probe.time_steps(env)
            with probe.span("eval.evaluate_allocator"):
                result = evaluate_allocator(
                    ALLOCATORS[allocator](), env, scenario, size["steps"]
                )
            finite = finite and bool(np.all(np.isfinite(result.reward_series())))
            if traced:
                records += env.system.tracer.records_written
                probe.check(
                    "metrics_snapshot_matches_system",
                    _completions_in_snapshot(sink)
                    == env.system.invoker.completed_total,
                )
                # The trace has been consumed.  Keeping 200 k records alive
                # made the pass memory-bound, which the host-speed
                # correction (interpreter work) cannot follow.
                records_kept.records.clear()
    probe.stop()
    probe.check("finite_rewards", finite)
    probe.stats["telemetry_records"] = records


def warm_sim_paper(seed: int, size: dict) -> None:
    preset, scenario, allocator, cell_seed = next(_paper_cells(seed, size))
    env = _cell_env(preset, scenario, cell_seed)
    bound = ALLOCATORS[allocator]()
    bound.bind(env)
    env.step(bound.allocate(env.observe(), None))


# --- sim_prod_burst / sim_prod_steady --------------------------------------
def _prod_env(cls, seed: int, size: dict, scale: float = 1.0, hooks=None):
    """Operator-scale system, or its ``scale``-sized twin, plus scenario."""
    rates = (
        {w: r * scale for w, r in zip(MSD_WORKFLOWS, size["rates"])}
        if size["rates"]
        else {}
    )
    system = cls(
        build_msd_ensemble(),
        SystemConfig(
            consumer_budget=max(1, int(size["budget"] * scale)),
            window_length=PROD_WINDOW_S,
        ),
        seed=seed,
        window_hooks=hooks,
    )
    if rates:
        PoissonArrivalProcess(rates).attach(system)
    scenario = BurstScenario(
        "prod",
        {w: int(n * scale) for w, n in zip(MSD_WORKFLOWS, size["burst"])},
        rates,
    )
    return MicroserviceEnv(system), scenario


def run_sim_prod(seed: int, size: dict, probe: Probe, out_dir: Path) -> None:
    finite = False
    with probe.unit():
        env, scenario = _prod_env(
            BatchedWorkflowSystem, seed, size, hooks=[probe.tick]
        )
        probe.systems.append(env.system)
        probe.time_steps(env)
        with probe.span("eval.evaluate_allocator"):
            result = evaluate_allocator(
                ProportionalToWipAllocator(), env, scenario, size["steps"]
            )
        finite = bool(np.all(np.isfinite(result.reward_series())))
    probe.stop()
    probe.check("finite_rewards", finite)


def oracle_sim_prod(
    seed: int, size: dict, probes: List[Probe]
) -> Dict[str, bool]:
    """Serial and batched substrates agree on a C=256 twin of the scenario."""
    scale = min(1.0, TWIN_BUDGET / size["budget"])
    twin = dict(size, steps=min(size["steps"], TWIN_STEPS))
    snapshots = []
    for cls in (MicroserviceWorkflowSystem, BatchedWorkflowSystem):
        env, scenario = _prod_env(cls, seed, twin, scale)
        evaluate_allocator(
            ProportionalToWipAllocator(), env, scenario, twin["steps"]
        )
        snapshots.append(substrate_snapshot(env.system))
    return {"serial_equals_batched_twin": snapshots[0] == snapshots[1]}


def warm_sim_prod(seed: int, size: dict) -> None:
    env, _ = _prod_env(BatchedWorkflowSystem, seed, size)
    env.step(env.uniform_allocation())


# --- collect_physical ------------------------------------------------------
def _collect_agent(seed: int, mode: str, workers: int) -> MirasAgent:
    base = MirasConfig.ligo_fast()
    config = replace(
        base,
        policy=replace(base.policy, collect_mode=mode, collect_workers=workers),
    )
    spec = EnvSpec.make(
        "repro.eval.experiments:build_training_env", dataset="ligo"
    )
    return MirasAgent(
        _training_env("ligo", seed), config, seed=seed + 1, env_spec=spec
    )


def run_collect_physical(
    seed: int, size: dict, probe: Probe, out_dir: Path
) -> None:
    agent = _collect_agent(seed, "physical", WORKERS)
    probe.mark(agent.ddpg, "store_batch")
    call_s = []
    collected = 0
    for _ in range(size["calls"]):
        with probe.unit():
            start = probe.now()
            collected += agent.collect_distributed(size["steps"])
            call_s.append(probe.now() - start)
    probe.stop()
    # Episodes run in pool workers; the windows this process sees stepped
    # are the transitions it gets back, and its window latency is the
    # collect call's wall over them.
    probe.windows = collected
    probe.step_s = [s / size["steps"] for s in call_s]
    probe.timings["physical_s"] = sum(call_s)
    probe.stats["collected"] = _collected_digest(agent, collected)
    probe.stats["first_call"] = _collected_digest(agent, size["steps"])
    probe.check(
        "finite_rewards",
        bool(np.all(np.isfinite(agent.ddpg.replay.state_dict()["rewards"]))),
    )


def _collected_digest(agent: MirasAgent, rows: int) -> str:
    """Digest of the first ``rows`` collected transitions, dataset and replay."""
    if len(agent.dataset) < rows or rows == 0:
        return "short"
    replay = agent.ddpg.replay.state_dict()
    parts = [a[:rows] for a in agent.dataset.arrays()]
    parts += [replay[k][:rows] for k in ("states", "actions", "rewards")]
    digest = hashlib.blake2b()
    for part in parts:
        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def logical_reference(seed: int, size: dict, probe: Probe) -> str:
    """The first collect call again on one in-process logical worker.

    The determinism contract makes this the physical pass's twin: same
    plan, same blocks, same simulated windows and tasks.  It is the
    byte-equality oracle, and -- because its episodes run in this
    process -- the only place the traced pass can see inside an episode.
    """
    agent = _collect_agent(seed, "logical", 1)
    start = perf_counter()
    rows = agent.collect_distributed(size["steps"])
    probe.timings["logical_s"] = perf_counter() - start
    return _collected_digest(agent, rows)


def oracle_collect(
    seed: int, size: dict, probes: List[Probe]
) -> Dict[str, bool]:
    reference = logical_reference(seed, size, Probe())
    return {
        "physical_equals_logical": reference != "short"
        and all(p.stats["first_call"] == reference for p in probes)
    }


def trace_collect(
    seed: int, size: dict, probe: Probe, episode_envs: list
) -> Dict[str, float]:
    """Traced pass only: see inside episodes through the logical twin, and
    measure what the pool pays around them on the program's own payloads."""
    logical_reference(seed, size, probe)
    probe.systems.extend(env.system for env in episode_envs)
    agent = _collect_agent(seed, "physical", WORKERS)
    plan = episode_plan(
        size["steps"],
        agent.config.reset_interval,
        agent.config.policy.collect_lanes,
        agent.seed,
    )
    collector = DistributedCollector(agent.env_spec, workers=WORKERS)
    payload = policy_payload(agent.ddpg)
    start = perf_counter()
    pickled = [
        pickle.dumps(collector._episode_spec(task, payload, 0.0)) for task in plan
    ]
    payload_pickle_s = perf_counter() - start
    # A block's pickle depends on its shapes only.
    steps, dims = plan[0].steps, agent.env.state_dim
    block = {
        "states": np.zeros((steps, dims)),
        "executed": np.zeros((steps, dims), dtype=np.int64),
        "rewards": np.zeros(steps),
        "next_states": np.zeros((steps, dims)),
    }
    start = perf_counter()
    block_bytes = sum(len(pickle.dumps(block)) for _ in plan)
    block_pickle_s = perf_counter() - start
    # The program's own pool: default start method, a new pool per call.
    start = perf_counter()
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        list(pool.map(abs, range(WORKERS)))
    pool_spawn_s = perf_counter() - start
    logical_s = probe.timings["logical_s"]
    physical_s = probe.timings["physical_s"] / size["calls"]
    return {
        # The logical twin went through collect_distributed as well.
        "core.collect.busy_s": probe.timings["physical_s"],
        "rl.collect.logical_s": logical_s,
        "rl.collect.physical_s": physical_s,
        "rl.collect.parallel_efficiency": logical_s / (WORKERS * physical_s),
        "rl.collect.pool_spawn_s": pool_spawn_s,
        "rl.collect.payload_bytes": float(sum(len(p) for p in pickled)),
        "rl.collect.payload_pickle_s": payload_pickle_s,
        "rl.collect.block_bytes": float(block_bytes),
        "rl.collect.block_pickle_s": block_pickle_s,
    }


def warm_collect_physical(seed: int, size: dict) -> None:
    agent = _collect_agent(seed, "physical", WORKERS)
    state, _, _ = agent.env.step(agent.env.uniform_allocation())
    agent.act(state)


class Workload:
    """A named pass with its rationale, sizes and warm-up.

    ``oracle(seed, size, probes)`` returns further output checks that
    need a reference run; ``trace_more(seed, size, probe, episode_envs)``
    runs inside the traced pass and returns further per-layer metrics.
    """

    def __init__(
        self,
        name: str,
        why: str,
        run: Callable,
        warm: Callable,
        oracle: Optional[Callable] = None,
        trace_more: Optional[Callable] = None,
    ):
        self.name = name
        self.why = why
        self.run = run
        self.warm = warm
        self.oracle = oracle
        self.trace_more = trace_more

    def size(self, quick: bool) -> dict:
        return (QUICK_SIZES if quick else SIZES)[self.name]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "train_msd",
            "Algorithm 2 as `repro train` runs it: ~85% nn/rl/core, ~12% sim; "
            "an nn/DDPG/replay/model-env change shows here, a simulator one barely",
            run_train_msd,
            warm_train_msd,
        ),
        Workload(
            "sim_paper",
            "`repro simulate` / Fig. 7-8 cells at paper scale (C=14/30, Poisson "
            "background) on the serial substrate: >90% sim, nn never called",
            run_sim_paper,
            warm_sim_paper,
        ),
        Workload(
            "sim_paper_traced",
            "sim_paper cells with the program's Tracer(MetricsSink(MemorySink)) "
            "attached: every instrumentation site live, telemetry cost shows only here",
            functools.partial(run_sim_paper, traced=True),
            warm_sim_paper,
        ),
        Workload(
            "sim_prod_burst",
            "operator scale (C=4096, 30 s windows) pure burst on the batched "
            "substrate: the vectorised window replay's home ground",
            run_sim_prod,
            warm_sim_prod,
            oracle=oracle_sim_prod,
        ),
        Workload(
            "sim_prod_steady",
            "same system with Poisson background attached: the replay is "
            "ineligible on every window, so the exact tier does all the work",
            run_sim_prod,
            warm_sim_prod,
            oracle=oracle_sim_prod,
        ),
        Workload(
            "collect_physical",
            "LIGO collection over a process pool: spawn, per-episode weight "
            "pickling and env rebuild dominate; train_msd bypasses all of it",
            run_collect_physical,
            warm_collect_physical,
            oracle=oracle_collect,
            trace_more=trace_collect,
        ),
    )
}
