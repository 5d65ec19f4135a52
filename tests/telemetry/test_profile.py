"""Phase profiler tests: tree shape, self-times, the boundary table and
its install/restore, persistence, and the determinism boundary (a
profiled run executes the same program: same trace, same weights, same
fast-path windows)."""

import importlib
import inspect
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.telemetry import (
    PROFILE_VERSION,
    PhaseProfiler,
    read_profile,
    render_profile,
    write_profile,
)
from repro.telemetry.profile import (
    BOUNDARIES,
    PROFILE_FILENAME,
    PhaseNode,
    _resolve,
)


class TestPhaseTree:
    def test_nested_phases_build_a_tree(self):
        profiler = PhaseProfiler()
        with profiler.phase("outer"):
            with profiler.phase("inner"):
                pass
            with profiler.phase("inner"):
                pass
        outer = profiler.node("outer")
        inner = profiler.node("outer", "inner")
        assert outer.calls == 1
        assert inner.calls == 2
        assert outer.wall >= inner.wall >= 0.0

    def test_self_time_excludes_children(self):
        node = PhaseNode("parent")
        node.calls, node.wall, node.cpu = 1, 10.0, 8.0
        child = PhaseNode("child")
        child.calls, child.wall, child.cpu = 1, 4.0, 3.0
        node.children["child"] = child
        assert node.self_wall == pytest.approx(6.0)
        assert node.self_cpu == pytest.approx(5.0)

    def test_sibling_phases_are_roots(self):
        profiler = PhaseProfiler()
        with profiler.phase("a"):
            pass
        with profiler.phase("b"):
            pass
        tree = profiler.to_dict()["tree"]
        assert tree["name"] == "total"
        assert [node["name"] for node in tree["children"]] == ["a", "b"]

    def test_phase_pops_on_exception(self):
        profiler = PhaseProfiler()
        with pytest.raises(RuntimeError):
            with profiler.phase("risky"):
                raise RuntimeError("boom")
        assert profiler.depth == 0
        # Timings were still recorded for the failed phase.
        assert profiler.node("risky").calls == 1
        # And the stack is usable afterwards.
        with profiler.phase("next"):
            pass
        assert profiler.node("next").calls == 1

    def test_missing_node_lookup(self):
        profiler = PhaseProfiler()
        with profiler.phase("a"):
            pass
        assert profiler.node("a", "nope") is None
        assert profiler.node("nope") is None


def _installed():
    """What ``vars(owner)[attr]`` holds right now, per boundary."""
    return [_resolve(target)[2] for target, _ in BOUNDARIES]


class TestBoundaryTable:
    def test_every_entry_names_a_function_on_its_owner(self):
        """A renamed or moved boundary fails here, not silently in a
        profile that lost a row."""
        assert len(set(BOUNDARIES)) == len(BOUNDARIES)
        for target, raw in zip((t for t, _ in BOUNDARIES), _installed()):
            function = getattr(raw, "__func__", raw)
            assert inspect.isfunction(function), target
            assert function.__qualname__ == target.partition(":")[2]

    def test_install_wraps_every_entry_and_exit_restores_it(self):
        before = _installed()
        with PhaseProfiler() as profiler:
            for raw, (_, name) in zip(_installed(), BOUNDARIES):
                assert getattr(raw, "__func__", raw).__phase__ == name
            build = "repro.core.refinement:RefinedModel.from_dataset"
            assert type(_resolve(build)[2]) is classmethod
        assert all(a is b for a, b in zip(_installed(), before))
        assert profiler.depth == 0

    def test_restores_when_the_body_raises(self, rng):
        from repro.nn.network import MLP

        before = _installed()
        network = MLP([3, 2], rng=rng)
        with pytest.raises(ValueError):
            with PhaseProfiler() as profiler:
                network.forward(np.zeros((1, 99)))  # wrong width
        assert all(a is b for a, b in zip(_installed(), before))
        assert profiler.depth == 0
        assert profiler.node("nn.forward").calls == 1

    def test_second_install_raises_and_leaves_the_first_intact(self):
        before = _installed()
        with PhaseProfiler():
            wrapped = _installed()
            with pytest.raises(RuntimeError, match="already installed"):
                with PhaseProfiler():
                    pass  # pragma: no cover - never entered
            assert all(a is b for a, b in zip(_installed(), wrapped))
        assert all(a is b for a, b in zip(_installed(), before))

    def test_table_agrees_with_the_benchmark_harness(self, monkeypatch):
        """Until ``benchmarks/e2e/layers.py`` imports this table, the two
        must not drift: a shared phase name wraps the same attributes."""
        harness = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
        monkeypatch.syspath_prepend(str(harness))
        theirs = {}
        for owner, attr, name in importlib.import_module("layers").WRAPS:
            theirs.setdefault(name, set()).add((owner, attr))
        ours = {}
        for target, name in BOUNDARIES:
            ours.setdefault(name, set()).add(_resolve(target)[:2])
        # The harness wraps these two by hand in ``install`` and times
        # evaluate_allocator inside its workloads; dispatch is ours alone.
        only_ours = {
            "core.refine_build", "rl.collect.episode_env_build",
            "eval.evaluate_allocator", "sim.dispatch",
        }
        assert set(ours) - set(theirs) == only_ours
        assert {name: ours[name] for name in theirs} == theirs


class TestPersistence:
    def _populated(self):
        profiler = PhaseProfiler()
        with profiler.phase("agent/collect"):
            with profiler.phase("sim/dispatch"):
                pass
        return profiler

    def test_write_read_round_trip(self, tmp_path):
        profiler = self._populated()
        target = write_profile(tmp_path, profiler)
        assert target == tmp_path / PROFILE_FILENAME
        document = json.loads(target.read_text())
        assert document["profile_version"] == PROFILE_VERSION

        loaded = read_profile(tmp_path)  # accepts the directory...
        root = PhaseNode.from_dict(loaded["tree"])
        assert list(root.children) == ["agent/collect"]
        loaded = read_profile(target)  # ...and the file itself
        root = PhaseNode.from_dict(loaded["tree"])
        inner = root.children["agent/collect"].children["sim/dispatch"]
        assert inner.calls == 1

    def test_read_profile_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not-a-profile.json"
        path.write_text(json.dumps({"something": "else"}))
        with pytest.raises(ValueError, match="not a profile document"):
            read_profile(path)

    def test_node_dict_round_trip(self):
        original = self._populated().node("agent/collect")
        restored = PhaseNode.from_dict(original.to_dict())
        assert restored.name == original.name
        assert restored.calls == original.calls
        assert restored.wall == pytest.approx(original.wall)
        assert set(restored.children) == set(original.children)


class TestRender:
    def test_render_accepts_profiler_and_nodes(self, tmp_path):
        profiler = PhaseProfiler()
        with profiler.phase("agent/train_model"):
            with profiler.phase("model/fit"):
                pass
        text = render_profile(profiler)
        assert "agent/train_model" in text
        assert "model/fit" in text
        assert "calls" in text and "wall" in text

        write_profile(tmp_path, profiler)
        assert "model/fit" in render_profile(read_profile(tmp_path))

    def test_max_depth_truncates(self):
        profiler = PhaseProfiler()
        with profiler.phase("top"):
            with profiler.phase("deep"):
                pass
        shallow = render_profile(profiler, max_depth=0)
        assert "top" in shallow
        assert "deep" not in shallow

    def test_empty_profile(self):
        assert "(no phases recorded)" in render_profile(PhaseProfiler())


class TestDeterminismBoundary:
    """Installing the profiler must not change what the program does."""

    def test_trace_records_identical_with_and_without_profiler(self):
        from test_metrics_engine import _traced_run

        plain_memory, plain_sink = _traced_run()
        with PhaseProfiler():
            prof_memory, prof_sink = _traced_run()

        assert plain_memory.records == prof_memory.records
        from repro.telemetry import snapshot_to_json

        assert snapshot_to_json(plain_sink.snapshot()) == snapshot_to_json(
            prof_sink.snapshot()
        )

    def test_simulation_phases_are_recorded(self):
        from test_metrics_engine import _traced_run

        with PhaseProfiler() as profiler:
            memory, _ = _traced_run()
        window = profiler.node("sim.env_step", "sim.run_window")
        assert window.calls == 4
        dispatch = window.children["sim.dispatch"]
        assert dispatch.calls == 4
        writes = dispatch.children["telemetry.sink_write"]
        assert 0 < writes.calls < len(memory.records)

    def test_profiled_training_is_byte_identical_and_layered(self):
        """One ``msd_fast`` iteration (schedule trimmed as in the golden
        pin): same weights, replay and dataset; ``nn.forward`` under
        ``rl.update`` under ``core.train_policy``."""
        from repro.core.agent import MirasAgent
        from repro.core.config import MirasConfig

        from tests.conftest import make_msd_env

        base = MirasConfig.msd_fast()
        config = replace(
            base,
            steps_per_iteration=40,
            eval_steps=5,
            policy=replace(base.policy, rollouts_per_iteration=3, patience=3),
        )

        def train():
            agent = MirasAgent(make_msd_env(seed=5), config, seed=6)
            agent.iterate(iterations=1)
            arrays = [
                network.get_flat()
                for network in (
                    agent.ddpg.actor.network,
                    agent.ddpg.actor.target_network,
                    agent.ddpg.critic.network,
                    agent.ddpg.critic.target_network,
                )
            ]
            arrays += agent.ddpg.replay.state_dict().values()
            arrays += agent.dataset.arrays()
            return [np.asarray(a).tobytes() for a in arrays]

        plain = train()
        with PhaseProfiler() as profiler:
            profiled = train()
        assert profiled == plain
        update = profiler.node("core.iterate", "core.train_policy", "rl.update")
        assert update.calls > 0
        assert update.children["nn.forward"].calls >= 4 * update.calls
        assert update.children["rl.replay_sample"].calls == update.calls

    def test_batched_fast_path_engages_the_same_when_profiled(self):
        """C=1024, one 6,000-workflow burst, WIP-proportional control:
        every window is replayed, installed profiler or not."""
        from repro.baselines import ProportionalToWipAllocator
        from repro.sim import (
            BatchedWorkflowSystem,
            MicroserviceEnv,
            SystemConfig,
            substrate_snapshot,
        )
        from repro.workflows import build_msd_ensemble

        def run():
            system = BatchedWorkflowSystem(
                build_msd_ensemble(), SystemConfig(consumer_budget=1024), seed=7
            )
            env = MicroserviceEnv(system)
            allocator = ProportionalToWipAllocator()
            allocator.bind(env)
            env.reset()
            system.inject_burst({"Type1": 3000, "Type2": 1500, "Type3": 1500})
            state = env.observe()
            for _ in range(8):
                state, _, _ = env.step(allocator.allocate(state))
            return system

        plain = run()
        with PhaseProfiler() as profiler:
            profiled = run()
        assert plain.fast_windows == profiled.fast_windows == 8
        assert profiled.fast_ineligible_reasons == {}
        assert substrate_snapshot(profiled) == substrate_snapshot(plain)
        # Replayed windows never reach the event loop.
        window = profiler.node("sim.env_step", "sim.run_window")
        assert window.calls == 8
        assert "sim.dispatch" not in window.children
