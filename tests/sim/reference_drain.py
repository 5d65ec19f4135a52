"""The reset drain as it ran before it stopped at "nothing waiting".

Kept in ``tests/`` as the reference
:meth:`repro.sim.system.MicroserviceWorkflowSystem.drain` is held to:
it always applies the over-provisioned allocation, and runs windows
until the WIP vector sums to ``target_wip`` (exactly 0 for every
caller) or the cap is hit — which Poisson background arrivals make the
usual outcome.  ``reference_drain`` is the pre-change method verbatim
(``self`` renamed, nothing else touched).  tests/sim/test_drain_exit.py
requires the production drain to be a prefix of it, and the golden pins
recorded before the change are still asserted with it monkeypatched
over ``MicroserviceWorkflowSystem.drain``, which proves nothing but the
drain moved.
"""

from typing import Optional

import numpy as np

from repro.utils.validation import check_positive


def reference_drain(
    system,
    max_windows: int = 40,
    target_wip: float = 0.0,
    consumers_per_service: Optional[int] = None,
) -> int:
    """The paper's "reset": over-provision until WIP is (near) zero.

    "'Reset' means to provision sufficient consumers of each
    microservice to reduce WIP close to 0" (Section VI-A3).  Returns the
    number of windows the drain took.  The previous allocation is *not*
    restored — callers apply a fresh one, as the RL loop does.
    """
    if consumers_per_service is None:
        consumers_per_service = system.config.resolved_drain_consumers(
            system.ensemble.num_task_types
        )
    check_positive("consumers_per_service", consumers_per_service)
    drain_allocation = np.full(
        system.ensemble.num_task_types, consumers_per_service, dtype=np.int64
    )
    system.apply_allocation(drain_allocation)
    windows = 0
    while windows < max_windows:
        system.run_window()
        windows += 1
        if float(system.wip_vector().sum()) <= target_wip:
            break
    return windows
