"""Comparison algorithms from the paper's Section VI-D.

- :mod:`repro.baselines.drs` — DRS (Fu et al., ICDCS'15): Jackson
  open-queueing-network allocation ("stream" in Figs. 7–8),
- :mod:`repro.baselines.heft` — HEFT (Yu et al.) adapted to per-window
  resource allocation exactly as the paper describes,
- :mod:`repro.baselines.monad` — MONAD (Nguyen & Nahrstedt, ICAC'17):
  model-predictive control over an identified linear performance model,
- :mod:`repro.baselines.modelfree` — model-free DDPG trained with the same
  number of real interactions as MIRAS ("rl" in Figs. 7–8),
- :mod:`repro.baselines.static_alloc` — uniform and WIP-proportional
  allocators (sanity anchors),
- :mod:`repro.baselines.base` — the shared allocator interface, integer
  apportionment, and the task-inflow estimator.
"""

from repro.baselines.autoscaler import HpaAllocator
from repro.baselines.oracle import OracleAllocator
from repro.baselines.base import (
    Allocator,
    largest_remainder_allocation,
)
from repro.baselines.drs import DrsAllocator, erlang_c, mmc_expected_number
from repro.baselines.heft import HeftAllocator, upward_ranks
from repro.baselines.miras_alloc import MirasAllocator
from repro.baselines.modelfree import ModelFreeDDPGAllocator
from repro.baselines.monad import LinearPerformanceModel, MonadAllocator
from repro.baselines.static_alloc import (
    ProportionalToWipAllocator,
    UniformAllocator,
)

__all__ = [
    "Allocator",
    "largest_remainder_allocation",
    "DrsAllocator",
    "erlang_c",
    "mmc_expected_number",
    "HeftAllocator",
    "upward_ranks",
    "MonadAllocator",
    "LinearPerformanceModel",
    "ModelFreeDDPGAllocator",
    "MirasAllocator",
    "UniformAllocator",
    "HpaAllocator",
    "OracleAllocator",
    "ProportionalToWipAllocator",
]
