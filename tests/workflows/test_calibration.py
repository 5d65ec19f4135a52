"""Calibration sanity checks for the MSD/LIGO ensembles and workloads.

These pin the properties the experiments depend on: steady-state demand
leaves headroom under the paper's consumer budgets, while the Section VI-D
bursts genuinely exceed per-window capacity (so allocation quality
matters).
"""

import pytest

from repro.workflows import build_ligo_ensemble, build_msd_ensemble
from repro.workload.bursts import (
    LIGO_BACKGROUND_RATES,
    LIGO_BURSTS,
    MSD_BACKGROUND_RATES,
    MSD_BURSTS,
)

MSD_BUDGET = 14
LIGO_BUDGET = 30


def total_demand(ensemble, rates):
    """Consumer-seconds demanded per second: every task of a workflow is
    visited once per request (AND-join DAG)."""
    service = ensemble.mean_service_times()
    return sum(
        rate * sum(service[t] for t in ensemble.workflow(wf).tasks)
        for wf, rate in rates.items()
    )


class TestSteadyStateHeadroom:
    def test_msd_background_fits_budget_with_headroom(self):
        demand = total_demand(build_msd_ensemble(), MSD_BACKGROUND_RATES)
        assert 0.1 * MSD_BUDGET < demand < 0.6 * MSD_BUDGET

    def test_ligo_background_fits_budget_with_headroom(self):
        demand = total_demand(build_ligo_ensemble(), LIGO_BACKGROUND_RATES)
        assert 0.1 * LIGO_BUDGET < demand < 0.6 * LIGO_BUDGET


class TestBurstsAreStressful:
    """Each burst's total work should take many windows at full budget —
    otherwise any allocator drains it instantly and Figs. 7-8 degenerate."""

    @pytest.mark.parametrize("scenario", MSD_BURSTS, ids=lambda s: s.name)
    def test_msd_burst_demand(self, scenario):
        ensemble = build_msd_ensemble()
        service = ensemble.mean_service_times()
        work = sum(
            count * sum(service[t] for t in ensemble.workflow(wf).tasks)
            for wf, count in scenario.burst.items()
        )
        windows_at_full_budget = work / (MSD_BUDGET * 30.0)
        assert windows_at_full_budget > 5

    @pytest.mark.parametrize("scenario", LIGO_BURSTS, ids=lambda s: s.name)
    def test_ligo_burst_demand(self, scenario):
        ensemble = build_ligo_ensemble()
        service = ensemble.mean_service_times()
        work = sum(
            count * sum(service[t] for t in ensemble.workflow(wf).tasks)
            for wf, count in scenario.burst.items()
        )
        windows_at_full_budget = work / (LIGO_BUDGET * 30.0)
        assert windows_at_full_budget > 3


class TestInspiralDominates:
    """Per Juve et al. [17], matched filtering (Inspiral) is by far the
    heaviest LIGO stage — the experiments rely on that bottleneck."""

    def test_inspiral_is_heaviest(self):
        ensemble = build_ligo_ensemble()
        services = ensemble.mean_service_times()
        inspiral = services.pop("Inspiral")
        assert inspiral == max([inspiral, *services.values()])
        assert inspiral >= 1.8 * max(services.values())
