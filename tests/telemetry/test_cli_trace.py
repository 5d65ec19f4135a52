"""CLI round-trip: ``repro simulate|train --telemetry DIR`` writes a run
directory that ``repro report`` can summarize."""

import hashlib
import json

import pytest

from repro.cli import build_parser, main
from repro.telemetry import JsonlSink, load_trace, read_manifest, write_manifest
from repro.telemetry.records import SCHEMA_VERSION

from tests.core.test_agent import tiny_config
from tests.telemetry.schema_v4 import as_v4


#: sha256 of the run directory ``simulate --dataset msd --allocator heft
#: --burst 0 --steps 3 --seed 1000`` writes.  Schema v6, recorded from
#: parent 96b1b8c's run directory with the ``event.placement`` /
#: ``event.release`` lines and the ``node`` of ``event.consumer_start``
#: filtered out of its trace, and the metrics ``repro report --output``
#: folds from that trace: no ``repro_node_slots_used`` family, no series
#: for the two kinds in ``repro_records_total`` and one clock stamp fewer
#: per placement or release in ``repro_sim_time_seconds``.
RUN_DIGESTS = {
    "trace.jsonl":
        "60f2de4ff290c419395e59bde56572f42c1659fc9260e4f6972b326fafb67238",
    "metrics.json":
        "88d4563b8d5c93587aa71da195eb412e3c20869766f808a57a6e533aa9be7a62",
    "metrics.prom":
        "e24f87b6ef41b0a5f3f171b2d6d5c8f7bd2858752f48e2fb17b1da52003023b2",
}


class TestParser:
    def test_simulate_telemetry_defaults_to_none(self):
        args = build_parser().parse_args(["simulate"])
        assert args.telemetry is None
        assert args.seed == 1000
        args = build_parser().parse_args(["simulate", "--telemetry", "runs/t"])
        assert args.telemetry == "runs/t"

    def test_train_telemetry_defaults_to_none(self):
        args = build_parser().parse_args(["train"])
        assert args.telemetry is None
        assert args.seed == 0
        args = build_parser().parse_args(["train", "--telemetry", "runs/t"])
        assert args.telemetry == "runs/t"

    def test_report_takes_path_and_validate(self):
        args = build_parser().parse_args(["report", "runs/t", "--validate"])
        assert args.path == "runs/t"
        assert args.validate


class TestTraceReportRoundTrip:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        outdir = tmp_path_factory.mktemp("runs") / "trace-msd"
        code = main([
            "simulate", "--dataset", "msd", "--allocator", "heft",
            "--burst", "0", "--steps", "3", "--seed", "1000",
            "--telemetry", str(outdir),
        ])
        assert code == 0
        return outdir

    def test_run_directory_bytes_are_pinned(self, run_dir):
        assert {
            name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in RUN_DIGESTS
        } == RUN_DIGESTS

    def test_trace_writes_jsonl_and_manifest(self, run_dir):
        records = load_trace(run_dir, validate=True)
        assert records
        manifest = read_manifest(run_dir)
        assert manifest.run_name == "trace-msd"
        assert manifest.seed == 1000
        assert manifest.records_written == len(records)
        assert manifest.config["allocator"] == "heft"
        assert manifest.config["telemetry"] == str(run_dir)
        assert manifest.sim_time_end > 0
        assert manifest.wall_time is not None
        assert manifest.command == (
            "simulate --dataset msd --allocator heft --burst 0 --steps 3 "
            f"--seed 1000 --telemetry {run_dir}"
        )

    def test_manifest_is_valid_json_with_sorted_keys(self, run_dir):
        raw = (run_dir / "manifest.json").read_text()
        data = json.loads(raw)
        assert list(data) == sorted(data)

    def test_report_summarizes_the_run(self, run_dir, capsys):
        code = main(["report", str(run_dir), "--validate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-microservice utilization" in out
        assert "Queue depth" in out
        assert "Container lifecycle" in out
        assert "seed 1000" in out
        assert f"schema v{SCHEMA_VERSION}" in out

    def test_report_reads_a_v4_trace(self, run_dir, tmp_path, capsys):
        """A trace written before v5, ``event.task_complete`` and all:
        its service times fold off the spans to the v5 run's series, and
        the header names the schema the trace was written under."""
        records = load_trace(run_dir)
        v4_records = as_v4(records)
        assert len(v4_records) > len(records)
        v4_dir = tmp_path / "trace-v4"
        with JsonlSink(v4_dir / "trace.jsonl") as sink:
            for record in v4_records:
                sink.write(record)
        manifest = read_manifest(run_dir)
        manifest.schema_version = 4
        write_manifest(v4_dir, manifest)

        assert main(["report", str(v4_dir)]) == 0
        assert "schema v4," in capsys.readouterr().out

        def service_times(path):
            assert main(["report", str(path), "--format", "json"]) == 0
            families = json.loads(capsys.readouterr().out)["families"]
            return families["repro_service_time_seconds"]

        v5 = service_times(run_dir)
        assert v5["series"] and service_times(v4_dir) == v5
        live = json.loads((run_dir / "metrics.json").read_text())
        assert live["families"]["repro_service_time_seconds"] == v5

    def test_report_reads_a_v5_trace(self, run_dir, tmp_path, capsys):
        """A trace written before v6, with the cluster's placement and
        release records and a ``node`` on each container start: it still
        renders, and the retired kinds are counted under
        ``repro_records_total``; ``--validate`` names the first retired
        kind it meets."""
        records = load_trace(run_dir)
        v5_records = []
        for used, record in enumerate(records):
            if record["kind"] == "event.consumer_start":
                node = record["consumer_id"] % 3
                v5_records.append({
                    "kind": "event.placement", "t": record["t"],
                    "node": node, "used": used,
                })
                record = {**record, "node": node}
            v5_records.append(record)
        v5_records.append({
            "kind": "event.release", "t": records[-1]["t"],
            "node": 0, "used": 0,
        })
        v5_dir = tmp_path / "trace-v5"
        with JsonlSink(v5_dir / "trace.jsonl") as sink:
            for record in v5_records:
                sink.write(record)
        manifest = read_manifest(run_dir)
        manifest.schema_version = 5
        write_manifest(v5_dir, manifest)

        assert main(["report", str(v5_dir)]) == 0
        out = capsys.readouterr().out
        assert "schema v5," in out
        assert "Container lifecycle" in out

        def records_total(path):
            assert main(["report", str(path), "--format", "json"]) == 0
            families = json.loads(capsys.readouterr().out)["families"]
            return {
                s["labels"]["kind"]: s["value"]
                for s in families["repro_records_total"]["series"]
            }

        placements = sum(
            r["kind"] == "event.consumer_start" for r in records
        )
        assert placements
        assert records_total(v5_dir) == {
            **records_total(run_dir),
            "event.placement": placements,
            "event.release": 1,
        }

        assert main(["report", str(v5_dir), "--validate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trace.jsonl:1: unknown record kind 'event.placement'" in (
            captured.err
        )

    def test_report_reads_an_unstamped_span(self, run_dir, tmp_path, capsys):
        """A schema-valid span written before a clock was bound (``t``
        None) has no ``t - started``: it still counts as a queue wait,
        and its service time is left out."""
        records = load_trace(run_dir)
        span = next(r for r in records if r["kind"] == "event.task_span")
        span["t"] = None
        with JsonlSink(tmp_path / "trace.jsonl") as sink:
            for record in records:
                sink.write(record)

        assert main(["report", str(tmp_path), "--validate"]) == 0
        assert "Per-microservice utilization" in capsys.readouterr().out

        def family(path, name):
            assert main(["report", str(path), "--format", "json"]) == 0
            series = json.loads(capsys.readouterr().out)["families"][name]["series"]
            return {s["labels"]["service"]: s["count"] for s in series}

        name = "repro_service_time_seconds"
        stamped, unstamped = family(run_dir, name), family(tmp_path, name)
        stamped[span["service"]] -= 1
        assert unstamped == stamped
        name = "repro_queue_wait_seconds"
        assert family(tmp_path, name) == family(run_dir, name)

    def test_report_accepts_explicit_file_path(self, run_dir, capsys):
        code = main(["report", str(run_dir / "trace.jsonl")])
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-microservice utilization" in out

    def test_report_missing_trace_fails(self, tmp_path, capsys):
        """Outside input: exit 2 and one line on stderr, no traceback —
        for a missing path and for a directory without a trace."""
        for path in (tmp_path / "nope", tmp_path):
            assert main(["report", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"repro report: no trace.jsonl under {path}\n"
            )

    @pytest.mark.parametrize("content,flags,message", [
        ('{"kind":"metric"}\nnot json\n', [],
         "trace.jsonl:2: invalid JSON"),
        ('{"kind":"event.nope","t":0}\n', ["--validate"],
         "trace.jsonl:1: unknown record kind 'event.nope'"),
        ('\n{"kind":"event.publish","t":0,"queue":"Ingest"}\n',
         ["--validate"], "trace.jsonl:2: event.publish record payload"),
    ], ids=["malformed-line", "unknown-kind", "schema-violation"])
    def test_report_bad_trace_is_a_one_line_error(
        self, tmp_path, capsys, content, flags, message
    ):
        (tmp_path / "trace.jsonl").write_text(content)
        assert main(["report", str(tmp_path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro report: {tmp_path}")
        assert message in captured.err
        assert captured.err.count("\n") == 1


class TestTraceTrainMode(object):
    def test_train_mode_emits_training_curves(self, tmp_path, capsys,
                                              monkeypatch):
        from repro.eval.experiments import dataset_preset

        monkeypatch.setitem(dataset_preset("msd"), "fast_config", tiny_config)
        outdir = tmp_path / "trace-train"
        code = main([
            "train", "--dataset", "msd", "--iterations", "1", "--seed", "0",
            "--telemetry", str(outdir),
        ])
        assert code == 0
        records = load_trace(outdir, validate=True)
        names = {r["name"] for r in records if r["kind"] == "metric"}
        assert "model/epoch_loss" in names
        assert "train/eval_reward" in names
        capsys.readouterr()
        assert main(["report", str(outdir)]) == 0
        assert "Training curves" in capsys.readouterr().out
