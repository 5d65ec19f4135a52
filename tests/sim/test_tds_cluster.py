"""Tests for the TDS ensemble and the cluster/placement model."""

import pytest

from repro.sim.cluster import CapacityError, Cluster, Node
from repro.sim.tds import TaskDependencyService, TdsUnavailableError
from repro.workflows import build_msd_ensemble


class TestTdsQueries:
    def test_entry_tasks(self, msd_ensemble):
        tds = TaskDependencyService(msd_ensemble)
        assert tds.entry_tasks("Type1") == ("Ingest",)

    def test_successors_follow_dag(self, msd_ensemble):
        tds = TaskDependencyService(msd_ensemble)
        assert tds.successors("Type1", "Ingest") == ("Preprocess",)
        assert set(tds.successors("Type3", "Preprocess")) == {
            "Segment",
            "Analyze",
        }

    def test_predecessors(self, msd_ensemble):
        tds = TaskDependencyService(msd_ensemble)
        assert tds.predecessors("Type1", "Preprocess") == ("Ingest",)

    def test_reads_are_load_balanced(self, msd_ensemble):
        tds = TaskDependencyService(msd_ensemble, replicas=3)
        for _ in range(30):
            tds.entry_tasks("Type1")
        reads = tds.read_distribution()
        assert all(count == 10 for count in reads.values())


class TestTdsAvailability:
    def test_survives_minority_failure(self, msd_ensemble):
        tds = TaskDependencyService(msd_ensemble, replicas=3)
        tds.fail_server(0)
        assert tds.entry_tasks("Type1") == ("Ingest",)
        assert tds.healthy_count == 2

    def test_majority_failure_raises(self, msd_ensemble):
        tds = TaskDependencyService(msd_ensemble, replicas=3)
        tds.fail_server(0)
        tds.fail_server(1)
        with pytest.raises(TdsUnavailableError, match="quorum"):
            tds.entry_tasks("Type1")

    def test_recovery_restores_service(self, msd_ensemble):
        tds = TaskDependencyService(msd_ensemble, replicas=3)
        tds.fail_server(0)
        tds.fail_server(1)
        tds.recover_server(0)
        assert tds.entry_tasks("Type1") == ("Ingest",)

    def test_failed_replica_not_queried(self, msd_ensemble):
        tds = TaskDependencyService(msd_ensemble, replicas=3)
        tds.fail_server(1)
        for _ in range(10):
            tds.entry_tasks("Type1")
        assert tds.read_distribution()[1] == 0

    def test_quorum_sizes(self, msd_ensemble):
        assert TaskDependencyService(msd_ensemble, replicas=1).quorum == 1
        assert TaskDependencyService(msd_ensemble, replicas=3).quorum == 2
        assert TaskDependencyService(msd_ensemble, replicas=5).quorum == 3

    def test_unknown_server_id(self, msd_ensemble):
        tds = TaskDependencyService(msd_ensemble)
        with pytest.raises(KeyError):
            tds.fail_server(99)

    def test_invalid_replica_count(self, msd_ensemble):
        with pytest.raises(ValueError):
            TaskDependencyService(msd_ensemble, replicas=0)


class TestNode:
    def test_allocate_release(self):
        node = Node(0, capacity=2)
        node.allocate()
        node.allocate()
        assert node.free == 0
        with pytest.raises(CapacityError):
            node.allocate()
        node.release()
        assert node.free == 1

    def test_release_empty_raises(self):
        with pytest.raises(RuntimeError):
            Node(0, capacity=1).release()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Node(0, capacity=0)


def imbalance(cluster):
    used = cluster.load_by_node().values()
    return max(used) - min(used)


class TestCluster:
    def test_least_loaded_placement_balances(self):
        cluster = Cluster(num_nodes=3, node_capacity=10)
        for _ in range(9):
            cluster.place()
        assert imbalance(cluster) == 0
        assert cluster.total_used == 9

    def test_imbalance_never_exceeds_one(self):
        cluster = Cluster(num_nodes=3, node_capacity=10)
        for _ in range(10):
            cluster.place()
            assert imbalance(cluster) <= 1

    def test_capacity_error_when_full(self):
        cluster = Cluster(num_nodes=2, node_capacity=1)
        cluster.place()
        cluster.place()
        with pytest.raises(CapacityError, match="full"):
            cluster.place()

    @pytest.mark.parametrize("used", [(0, 0, 0), (5, 1, 3), (2, 9, 2), (7, 7, 6)])
    def test_place_many_is_that_many_placements(self, used):
        """Same nodes in the same order as ``place()`` call by call,
        from level and uneven loads, up to the last free slot."""
        one_by_one = Cluster(num_nodes=3, node_capacity=10)
        at_once = Cluster(num_nodes=3, node_capacity=10)
        for cluster in (one_by_one, at_once):
            for node, count in zip(cluster.nodes, used):
                node.used = count
        for count in (1, 4, 0, one_by_one.total_capacity - one_by_one.total_used - 5):
            expected = [one_by_one.place().node_id for _ in range(count)]
            assert [n.node_id for n in at_once.place_many(count)] == expected
            assert at_once.load_by_node() == one_by_one.load_by_node()
        with pytest.raises(CapacityError, match="full"):
            at_once.place_many(1)

    def test_release_frees_slot(self):
        cluster = Cluster(num_nodes=1, node_capacity=1)
        node = cluster.place()
        cluster.release(node)
        assert cluster.total_used == 0
        cluster.place()

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Cluster(num_nodes=0)
