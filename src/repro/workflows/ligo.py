"""LIGO workflow ensemble.

The paper (Section VI-A1) states LIGO "consists of 4 workflows — DataFind,
CAT, Full, and Injection — and 9 task types", citing the workflow
characterisation of Juve et al. [17].  Section VI-D additionally reveals that
a task named **Coire** appears in the CAT, Full, and Injection workflows.

We reconstruct the ensemble from the LIGO Inspiral analysis pipeline in
[17], whose task types are: ``DataFind`` (frame lookup), ``TmpltBank``
(template bank generation), ``Inspiral`` (matched filtering — the heavy
stage), ``Thinca`` (coincidence analysis), ``TrigBank`` (triggered bank),
``Sire`` (single-inspiral result), ``Coire`` (coincidence result), ``Inca``
(inspiral coincidence), and ``InspInj`` (injection generation).  The four
workflow types below satisfy every constraint stated in the paper:

- 9 task types total, each used by at least one workflow,
- Coire present in CAT, Full, and Injection (and not DataFind),
- Full is the most complex topology (the paper calls LIGO "a more
  complicated workflow" and evaluates it over 100 steps),
- heavy sharing of upstream stages (DataFind/TmpltBank/Inspiral), which
  produces the cascading effects MIRAS must learn.
"""

from __future__ import annotations

from repro.workflows.dag import TaskType, WorkflowEnsemble, WorkflowType

__all__ = ["build_ligo_ensemble", "LIGO_TASKS", "LIGO_WORKFLOWS"]

#: Task names in index order (dimension order of w(k) and m(k)).
LIGO_TASKS = (
    "DataFind",
    "TmpltBank",
    "Inspiral",
    "Thinca",
    "TrigBank",
    "Sire",
    "Coire",
    "Inca",
    "InspInj",
)

#: Workflow names in index order (dimension order of d(k)).
LIGO_WORKFLOWS = ("DataFind", "CAT", "Full", "Injection")


def build_ligo_ensemble() -> WorkflowEnsemble:
    """Build the LIGO ensemble.

    The mean service times are calibrated to keep the paper's budget
    ``C=30`` tight-but-feasible.
    """
    # Mean service times follow the relative weights of the LIGO Inspiral
    # characterisation in [17]: Inspiral (matched filtering) dominates by
    # far; bank generation is the next heaviest; coincidence/result stages
    # are light.  Absolute values are compressed so a control window (30 s)
    # spans roughly one heavy task, keeping the bursts of Section VI-D a
    # genuinely hard allocation problem under C=30.
    task_types = [
        TaskType("DataFind", 4.5, cv=0.3),
        TaskType("TmpltBank", 9.0, cv=0.4),
        TaskType("Inspiral", 18.0, cv=0.6),
        TaskType("Thinca", 6.0, cv=0.4),
        TaskType("TrigBank", 4.5, cv=0.4),
        TaskType("Sire", 6.0, cv=0.5),
        TaskType("Coire", 7.5, cv=0.5),
        TaskType("Inca", 6.0, cv=0.4),
        TaskType("InspInj", 3.0, cv=0.3),
    ]
    workflow_types = [
        # DataFind: lightweight frame-lookup + template-bank workflow.
        WorkflowType(
            "DataFind",
            edges=[("DataFind", "TmpltBank")],
        ),
        # CAT: category-veto analysis ending in Coire.
        WorkflowType(
            "CAT",
            edges=[
                ("DataFind", "TmpltBank"),
                ("TmpltBank", "Inspiral"),
                ("Inspiral", "Thinca"),
                ("Thinca", "Coire"),
            ],
        ),
        # Full: the complete two-stage inspiral pipeline with fork/join.
        WorkflowType(
            "Full",
            edges=[
                ("DataFind", "TmpltBank"),
                ("TmpltBank", "Inspiral"),
                ("Inspiral", "Thinca"),
                ("Thinca", "TrigBank"),
                ("Thinca", "Sire"),
                ("TrigBank", "Coire"),
                ("Sire", "Coire"),
                ("Coire", "Inca"),
            ],
        ),
        # Injection: software-injection validation run.
        WorkflowType(
            "Injection",
            edges=[
                ("InspInj", "Inspiral"),
                ("Inspiral", "Thinca"),
                ("Thinca", "Sire"),
                ("Sire", "Coire"),
            ],
        ),
    ]
    return WorkflowEnsemble("LIGO", task_types, workflow_types)
