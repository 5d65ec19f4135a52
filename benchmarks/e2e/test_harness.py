"""Harness self-tests: ``python -m pytest benchmarks/e2e -q``.

Not part of the tier-1 suite (``testpaths = tests``); these check the
benchmark's own machinery -- the BENCHMARK.json schema and its agreement
with the harness, the span recorder's self-time arithmetic, that no
wrapper outlives a traced pass, the host-speed correction and ``--compare``.
"""

import json
import re
import time

import run  # first: puts src/ and this directory on sys.path
import compare
import hostspeed
import layers
from spans import SpanRecorder
from workloads import QUICK_SIZES, SIZES, WORKLOADS, Probe

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_schema_and_names():
    spec = json.loads(run.BENCHMARK_JSON.read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in spec[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_benchmark_json_matches_harness():
    spec = json.loads(run.BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    assert set(SIZES) == set(QUICK_SIZES) == set(WORKLOADS)
    assert spec["run_seconds"] == run.NOMINAL_SECONDS


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_span_self_time_on_nested_calls():
    class Tree:
        def leaf(self):
            _spin(0.01)

        def branch(self):
            _spin(0.01)
            self.leaf()
            self.leaf()

        def root(self):
            self.branch()
            self.leaf()
            self.root_again(1)

        def root_again(self, depth):
            if depth:
                self.root_again(depth - 1)
            else:
                _spin(0.01)

    recorder = SpanRecorder()
    with recorder:
        for attr in ("leaf", "branch", "root", "root_again"):
            recorder.wrap(Tree, attr, f"tree.{attr}")
        Tree().root()
    totals = recorder.aggregate()
    assert totals["tree.leaf"]["calls"] == 3
    assert totals["tree.root_again"]["calls"] == 2
    leaf, branch, root = (totals[f"tree.{n}"] for n in ("leaf", "branch", "root"))
    again = totals["tree.root_again"]
    # Self time excludes children; busy time includes them.
    assert abs(leaf["self_s"] - 0.03) < 0.01 and leaf["self_s"] == leaf["busy_s"]
    assert abs(branch["self_s"] - 0.01) < 0.005
    assert abs(branch["busy_s"] - 0.03) < 0.01
    assert root["self_s"] < 0.005
    # Recursion: busy counts the outermost span once; self adds up.
    assert abs(again["busy_s"] - 0.01) < 0.005
    assert abs(again["self_s"] - 0.01) < 0.005
    # Every second is attributed exactly once.
    total_self = sum(row["self_s"] for row in totals.values())
    assert abs(total_self - root["busy_s"]) < 1e-9
    parents = [span[3] for span in recorder.spans]
    assert parents[0] == -1 and all(p < i for i, p in enumerate(parents))


def _wrapped():
    targets = [(owner, attr) for owner, attr, _name in layers.WRAPS]
    targets += [
        (layers.RefinedModel, "from_dataset"),
        (layers.distributed.EnvSpec, "build"),
    ]
    return [
        (owner, attr)
        for owner, attr in targets
        if hasattr(getattr(owner, attr), "__e2e_span__")
    ]


def test_no_wrapper_survives_a_traced_pass(tmp_path):
    originals = [vars(owner)[attr] for owner, attr, _name in layers.WRAPS]
    result = run.run_workload(
        "train_msd", seed=5, seconds=0, repeats=1, trace=True, quick=True,
        out_dir=tmp_path,
    )  # fmt: skip
    assert result["contract"]["correct"], result["checks"]
    assert _wrapped() == []
    assert originals == [vars(owner)[attr] for owner, attr, _name in layers.WRAPS]
    metrics = result["contract"]["metrics"]
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["nn.forward.calls"]["value"] > 0
    assert metrics["rl.collect.pool_spawn_s"]["value"] == 0
    spans = json.loads((tmp_path / "spans.train_msd.json").read_text())
    assert spans["columns"] == ["name", "start_s", "end_s", "parent"]
    assert "rl.update" in spans["names"]


def test_restore_runs_when_the_pass_raises():
    class Thing:
        def work(self):
            raise RuntimeError("boom")

    original = Thing.work
    recorder = SpanRecorder()
    try:
        with recorder:
            recorder.wrap(Thing, "work", "thing.work")
            Thing().work()
    except RuntimeError:
        pass
    assert Thing.work is original
    assert recorder.aggregate()["thing.work"]["calls"] == 1


def test_quick_untraced_run_reports_every_end_to_end_metric(tmp_path):
    result = run.run_workload(
        "sim_prod_burst", seed=2, seconds=0, repeats=None, trace=False,
        quick=True, out_dir=tmp_path,
    )  # fmt: skip
    contract = result["contract"]
    assert contract["correct"], result["checks"]
    assert result["repeats"] == run.MIN_REPEATS  # --seconds 0: the floor
    assert contract["failed"] == 0 and contract["attempted"] == run.MIN_REPEATS
    assert set(contract["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(entry["value"] > 0 for entry in contract["metrics"].values())
    assert result["checks"]["serial_equals_batched_twin"]
    assert result["checks"]["repeats_identical"]


def test_local_slowdown_follows_the_host():
    nominal = hostspeed.REF_NOMINAL_S
    assert list(hostspeed.local_slowdown([], [], 3)) == [1.0, 1.0, 1.0]
    # Ten samples at reference speed, then the host runs at half speed;
    # one outlier among them does not show.
    seconds = [nominal] * 10 + [2 * nominal] * 10
    seconds[3] = 9 * nominal
    slow = hostspeed.local_slowdown(range(1, 21), seconds, 20)
    assert slow[0] == 1.0 and slow[-1] == 2.0
    assert list(slow) == sorted(slow)
    assert hostspeed.reference_kernel() > 0


def test_reference_speed_corrects_every_clock():
    probe = Probe(reference=False)
    probe.ticks = [(0.0, 0.0), (1.0, 0.5), (3.0, 1.5)]
    probe.ref_tick, probe.ref_s = [1, 2], [2 * hostspeed.REF_NOMINAL_S] * 2
    probe.child_cpu, probe.unit_tick = [0.4], [2]
    wall, cpu, children = probe.reference_speed()
    assert (list(wall), list(cpu), list(children)) == ([0.5, 1.0], [0.25, 0.5], [0.2])
    # Per position, the lower tercile of the passes' readings.
    assert run.steady_sum([[1.0, 2.0], [1.0, 5.0], [4.0, 2.0], [1.0, 2.0]]) == 3.0
    assert run.steady_sum([[1.0], [1.0, 2.0]]) == 2.0  # misaligned: median pass
    assert run.percentile(range(1000), 0.99) == 990
    assert run.percentile(range(100), 0.99) == 0.0  # fewer than 10 beyond


def test_reference_kernel_runs_off_the_clock():
    probe = Probe()
    probe._next_ref = 0.0  # due at the next tick
    probe.tick()
    assert probe.ref_tick == [1] * hostspeed.REF_BURST
    # The probe's clock lags the host's by what the kernel took, and the
    # next reading is not due yet.
    assert probe._off_wall >= sum(probe.ref_s) > 0
    assert probe.now() < time.perf_counter()
    probe.tick()
    assert len(probe.ref_s) == hostspeed.REF_BURST and len(probe.ticks) == 3


def test_compare_verdicts():
    assert compare.verdict([10.0, 10.1, 9.9], [10.4, 10.5, 10.3], "lower", 0.10) == "ok"
    assert compare.verdict([10.0, 10.1, 9.9], [11.5, 11.6, 11.4], "lower", 0.10) == "worse"
    assert compare.verdict([10.0, 10.1, 9.9], [8.0, 8.1, 8.2], "higher", 0.10) == "worse"
    # Spread wider than the bound: unresolved, unless B wins every pairing.
    assert compare.verdict([10.0, 12.0, 9.0], [10.5, 10.6, 10.4], "lower", 0.10) == "unresolved"
    assert compare.verdict([10.0, 12.0, 9.0], [8.0, 8.5, 8.9], "lower", 0.10) == "ok"
    assert compare.verdict([10.0], [13.0], "lower", 0.10) == "unresolved"
    assert compare.verdict([10.0], [10.5], "lower", 0.10) == "ok"
    assert compare.spread([5.0]) == 0.0
    assert abs(compare.spread([9.0, 10.0, 11.0]) - 0.2) < 1e-12
