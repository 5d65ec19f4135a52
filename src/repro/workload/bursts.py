"""The paper's burst scenarios (Section VI-D).

"For MSD dataset, the bursts are 300 requests, 200 requests, 300 requests
for Type1, Type2, and Type3; 1000, 300, 400 for Type1 to Type3; and 500,
500, 500.  For LIGO dataset the bursts are 100, 100, 50, 30 for DataFind,
CAT, Full, Injection; 150, 150, 80, 50; and 80, 80, 80, 80 for the 4
workflows.  These request bursts are fed into the system at the beginning
of each evaluation.  We also feed the system with continuous workflow
requests sampled from Poisson process."

The background Poisson rates are not printed in the paper; the defaults
here are calibrated so the steady-state demand uses roughly a third of the
consumer budget, leaving the bursts as the dominant stress (matching the
drain-then-recover shapes of Figs. 7–8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

__all__ = [
    "BurstScenario",
    "MSD_BURSTS",
    "LIGO_BURSTS",
    "MSD_BACKGROUND_RATES",
    "LIGO_BACKGROUND_RATES",
]


@dataclass(frozen=True)
class BurstScenario:
    """One evaluation condition: an initial burst + background Poisson rates."""

    name: str
    burst: Mapping[str, int]
    background_rates: Mapping[str, float]

    def __post_init__(self):
        for workflow_type, count in self.burst.items():
            if count < 0:
                raise ValueError(
                    f"burst count for {workflow_type!r} must be >= 0, got {count}"
                )
        for workflow_type, rate in self.background_rates.items():
            if rate < 0:
                raise ValueError(
                    f"rate for {workflow_type!r} must be >= 0, got {rate!r}"
                )

#: Background Poisson rates (requests/second per workflow type), calibrated
#: so steady-state demand occupies a meaningful fraction of the consumer
#: budget (C=14 for MSD, C=30 for LIGO) without the bursts.
MSD_BACKGROUND_RATES: Dict[str, float] = {
    "Type1": 0.10,
    "Type2": 0.10,
    "Type3": 0.08,
}

LIGO_BACKGROUND_RATES: Dict[str, float] = {
    "DataFind": 0.12,
    "CAT": 0.06,
    "Full": 0.036,
    "Injection": 0.036,
}

#: The three MSD burst conditions of Fig. 7.
MSD_BURSTS = (
    BurstScenario(
        "msd-burst1",
        {"Type1": 300, "Type2": 200, "Type3": 300},
        MSD_BACKGROUND_RATES,
    ),
    BurstScenario(
        "msd-burst2",
        {"Type1": 1000, "Type2": 300, "Type3": 400},
        MSD_BACKGROUND_RATES,
    ),
    BurstScenario(
        "msd-burst3",
        {"Type1": 500, "Type2": 500, "Type3": 500},
        MSD_BACKGROUND_RATES,
    ),
)

#: The three LIGO burst conditions of Fig. 8.
LIGO_BURSTS = (
    BurstScenario(
        "ligo-burst1",
        {"DataFind": 100, "CAT": 100, "Full": 50, "Injection": 30},
        LIGO_BACKGROUND_RATES,
    ),
    BurstScenario(
        "ligo-burst2",
        {"DataFind": 150, "CAT": 150, "Full": 80, "Injection": 50},
        LIGO_BACKGROUND_RATES,
    ),
    BurstScenario(
        "ligo-burst3",
        {"DataFind": 80, "CAT": 80, "Full": 80, "Injection": 80},
        LIGO_BACKGROUND_RATES,
    ),
)
