"""Tests for the paper's burst scenarios."""

import pytest

from repro.workload.bursts import (
    BurstScenario,
    LIGO_BURSTS,
    MSD_BURSTS,
)


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
