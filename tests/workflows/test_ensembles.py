"""Tests pinning the MSD and LIGO ensembles to the paper's constraints."""

from repro.workflows.ligo import LIGO_TASKS, LIGO_WORKFLOWS, build_ligo_ensemble
from repro.workflows.msd import MSD_TASKS, MSD_WORKFLOWS, build_msd_ensemble


class TestMsdEnsemble:
    """Section VI-A1: MSD has 3 workflows (Type1-3) over 4 task types."""

    def test_counts_match_paper(self):
        ensemble = build_msd_ensemble()
        assert ensemble.num_task_types == 4
        assert len(ensemble.workflow_types) == 3

    def test_names(self):
        ensemble = build_msd_ensemble()
        assert ensemble.task_names() == MSD_TASKS
        assert ensemble.workflow_names() == MSD_WORKFLOWS

    def test_workflows_share_microservices(self):
        """Sharing causes the cascading effects of Section II-C."""
        ensemble = build_msd_ensemble()
        type1 = ensemble.workflow("Type1").tasks
        type2 = ensemble.workflow("Type2").tasks
        assert type1 & type2  # shared tasks exist

    def test_all_tasks_used(self):
        ensemble = build_msd_ensemble()
        used = set().union(*(w.tasks for w in ensemble.workflow_types))
        assert used == set(MSD_TASKS)


class TestLigoEnsemble:
    """Section VI-A1: LIGO has 4 workflows over 9 task types; Section VI-D
    says task "Coire" appears in the CAT, Full and Injection workflows."""

    def test_counts_match_paper(self):
        ensemble = build_ligo_ensemble()
        assert ensemble.num_task_types == 9
        assert len(ensemble.workflow_types) == 4

    def test_names(self):
        ensemble = build_ligo_ensemble()
        assert ensemble.task_names() == LIGO_TASKS
        assert ensemble.workflow_names() == LIGO_WORKFLOWS

    def test_coire_membership_matches_paper(self):
        ensemble = build_ligo_ensemble()
        assert "Coire" in ensemble.workflow("CAT").tasks
        assert "Coire" in ensemble.workflow("Full").tasks
        assert "Coire" in ensemble.workflow("Injection").tasks
        assert "Coire" not in ensemble.workflow("DataFind").tasks

    def test_all_tasks_used(self):
        ensemble = build_ligo_ensemble()
        used = set().union(*(w.tasks for w in ensemble.workflow_types))
        assert used == set(LIGO_TASKS)

    def test_full_is_most_complex(self):
        """The paper calls LIGO's Full "a more complicated workflow"."""
        ensemble = build_ligo_ensemble()
        full = ensemble.workflow("Full")
        assert full.size == max(w.size for w in ensemble.workflow_types)

    def test_upstream_stages_shared(self):
        ensemble = build_ligo_ensemble()
        shared = (
            ensemble.workflow("CAT").tasks & ensemble.workflow("Full").tasks
        )
        assert {"DataFind", "TmpltBank", "Inspiral"} <= shared

    def test_all_workflows_acyclic_with_single_component(self):
        ensemble = build_ligo_ensemble()
        for wf in ensemble.workflow_types:
            order = wf.topological_order()
            assert len(order) == wf.size
            assert wf.entry_tasks
            assert wf.exit_tasks
