"""Scientific-workflow ensembles: DAG model plus the paper's two workloads.

The paper evaluates on two "real-world scientific workflow computing
ensembles": Material Science Data processing (MSD — 3 workflow types over 4
task types) and LIGO (4 workflow types over 9 task types).  The exact DAG
topologies are not printed in the paper; :mod:`repro.workflows.msd` and
:mod:`repro.workflows.ligo` reconstruct them from the paper's own constraints
(type/task counts, shared microservices, the "Coire" task appearing in the
CAT/Full/Injection workflows) and the LIGO Inspiral characterisation of
Juve et al. [17].
"""

from repro.workflows.dag import TaskType, WorkflowEnsemble, WorkflowType
from repro.workflows.generator import random_ensemble
from repro.workflows.ligo import build_ligo_ensemble
from repro.workflows.msd import build_msd_ensemble

__all__ = [
    "TaskType",
    "WorkflowType",
    "WorkflowEnsemble",
    "build_msd_ensemble",
    "build_ligo_ensemble",
    "random_ensemble",
]
