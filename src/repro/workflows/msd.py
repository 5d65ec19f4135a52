"""Material Science Data (MSD) workflow ensemble.

The paper (Section VI-A1) states MSD "consists of 3 workflows — Type1 to
Type3 — and 4 task types" and cites the MONAD / elastic pub-sub papers
[26][27] where the workload is 4D material-science (TEM microscopy) image
processing.  The exact DAGs are not printed, so we reconstruct a faithful
ensemble that satisfies every constraint the paper does state:

- exactly 4 task types shared by 3 workflow types,
- workflows share microservices (the source of the cascading-effect
  challenge in Section II-C),
- processing is "long tail ... not very large" jobs — per-task service
  times of a few seconds so that the consumer budget C=14 is tight but
  feasible (Section VI-A4).

Stage names follow the TEM image-processing pipeline of [27]:
``Ingest`` (data registration / metadata extraction), ``Preprocess``
(denoise + align), ``Segment`` (feature segmentation), ``Analyze``
(statistics / visualisation products).
"""

from __future__ import annotations

from repro.workflows.dag import TaskType, WorkflowEnsemble, WorkflowType

__all__ = ["build_msd_ensemble", "MSD_TASKS", "MSD_WORKFLOWS"]

#: Task names in index order (dimension order of w(k) and m(k)).
MSD_TASKS = ("Ingest", "Preprocess", "Segment", "Analyze")

#: Workflow names in index order (dimension order of d(k)).
MSD_WORKFLOWS = ("Type1", "Type2", "Type3")


def build_msd_ensemble() -> WorkflowEnsemble:
    """Build the MSD ensemble.

    The mean service times are calibrated to keep the paper's budget
    ``C=14`` tight-but-feasible under the evaluation arrival rates.
    """
    task_types = [
        TaskType("Ingest", 2.0, cv=0.4),
        TaskType("Preprocess", 4.0, cv=0.5),
        TaskType("Segment", 6.0, cv=0.6),
        TaskType("Analyze", 5.0, cv=0.5),
    ]
    workflow_types = [
        # Type1: straight segmentation pipeline.
        WorkflowType(
            "Type1",
            edges=[("Ingest", "Preprocess"), ("Preprocess", "Segment")],
        ),
        # Type2: straight analysis pipeline (shares Ingest/Preprocess).
        WorkflowType(
            "Type2",
            edges=[("Ingest", "Preprocess"), ("Preprocess", "Analyze")],
        ),
        # Type3: full pipeline with a parallel fork after Preprocess.
        WorkflowType(
            "Type3",
            edges=[
                ("Ingest", "Preprocess"),
                ("Preprocess", "Segment"),
                ("Preprocess", "Analyze"),
            ],
        ),
    ]
    return WorkflowEnsemble("MSD", task_types, workflow_types)
