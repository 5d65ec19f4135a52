"""Workload generation: arrival processes and burst scenarios.

"We use Poisson process to emulate request traces for both workflow
datasets" (Section VI-A1) and "generate bursts of workflow requests"
(Section VI-D).  This package provides both, plus fixed-interval
arrivals, which stay a callback on the event loop.
"""

from repro.workload.arrivals import (
    ArrivalProcess,
    DeterministicArrivalProcess,
    PoissonArrivalProcess,
)
from repro.workload.bursts import (
    BurstScenario,
    LIGO_BACKGROUND_RATES,
    LIGO_BURSTS,
    MSD_BACKGROUND_RATES,
    MSD_BURSTS,
)

__all__ = [
    "ArrivalProcess",
    "PoissonArrivalProcess",
    "DeterministicArrivalProcess",
    "BurstScenario",
    "MSD_BURSTS",
    "LIGO_BURSTS",
    "MSD_BACKGROUND_RATES",
    "LIGO_BACKGROUND_RATES",
]
