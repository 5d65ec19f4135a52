"""Tests for arrival traces and the paper's burst scenarios."""

import numpy as np
import pytest

from repro.utils.rng import RngStream
from repro.workload.bursts import (
    BurstScenario,
    LIGO_BURSTS,
    MSD_BURSTS,
)
from repro.workload.trace import ArrivalTrace


class TestArrivalTrace:
    def test_requires_time_order(self):
        with pytest.raises(ValueError, match="time-ordered"):
            ArrivalTrace([(2.0, "A"), (1.0, "A")])

    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            ArrivalTrace([(-1.0, "A")])

    def test_rejects_empty_workflow_name(self):
        with pytest.raises(ValueError):
            ArrivalTrace([(1.0, "")])

    def test_shifted(self):
        trace = ArrivalTrace([(1.0, "A")])
        shifted = trace.shifted(5.0)
        assert shifted.events == [(6.0, "A")]

    def test_save_load_roundtrip(self, tmp_path):
        trace = ArrivalTrace([(1.0, "A"), (2.5, "B")])
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = ArrivalTrace.load(path)
        assert loaded.events == trace.events

    def test_len(self):
        assert len(ArrivalTrace([(1.0, "A")])) == 1


class TestBurstScenariosMatchPaper:
    """Section VI-D burst definitions, verbatim from the paper."""

    def test_msd_burst_counts(self):
        expected = [
            {"Type1": 300, "Type2": 200, "Type3": 300},
            {"Type1": 1000, "Type2": 300, "Type3": 400},
            {"Type1": 500, "Type2": 500, "Type3": 500},
        ]
        assert [dict(b.burst) for b in MSD_BURSTS] == expected

    def test_ligo_burst_counts(self):
        expected = [
            {"DataFind": 100, "CAT": 100, "Full": 50, "Injection": 30},
            {"DataFind": 150, "CAT": 150, "Full": 80, "Injection": 50},
            {"DataFind": 80, "CAT": 80, "Full": 80, "Injection": 80},
        ]
        assert [dict(b.burst) for b in LIGO_BURSTS] == expected

    def test_total_requests(self):
        assert sum(MSD_BURSTS[0].burst.values()) == 800
        assert sum(MSD_BURSTS[1].burst.values()) == 1700

    def test_scenarios_have_background_rates(self):
        for scenario in (*MSD_BURSTS, *LIGO_BURSTS):
            assert scenario.background_rates
            assert all(r >= 0 for r in scenario.background_rates.values())

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ValueError):
            BurstScenario("bad", {"A": -1}, {})
        with pytest.raises(ValueError):
            BurstScenario("bad", {"A": 1}, {"A": -0.5})
