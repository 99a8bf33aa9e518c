"""Tests for the client encoders and the reference MatchingServer."""

import numpy as np
import pytest

from repro.crowdsourcing import (
    MatchingServer,
    Task,
    TaskReport,
    Worker,
    WorkerReport,
    encode_task_laplace,
    encode_task_tree,
    encode_worker_laplace,
    encode_worker_tree,
    make_predefined_points,
    publish_tree,
)
from repro.geometry import Box
from repro.privacy import PlanarLaplaceMechanism, TreeMechanism


@pytest.fixture(scope="module")
def published():
    tree = publish_tree(Box.square(100.0), grid_nx=6, seed=0)
    mech = TreeMechanism(tree, epsilon=0.5, seed=1)
    return tree, mech


class TestPublication:
    def test_predefined_points_grid(self):
        pts = make_predefined_points(Box.square(10.0), 3, 2)
        assert pts.shape == (6, 2)

    def test_publish_tree_covers_grid(self, published):
        tree, _ = published
        assert tree.n_points == 36
        assert tree.depth >= 1


class TestClientEncoding:
    def test_worker_tree_report(self, published):
        tree, mech = published
        report = encode_worker_tree(
            Worker(5, (10.0, 10.0), reachable_distance=7.0), tree, mech
        )
        assert report.worker_id == 5
        assert report.reachable_distance == 7.0
        tree.path_of_leaf(report.leaf)  # a leaf index inside the tree
        assert report.noisy_location is None

    def test_task_tree_report(self, published):
        tree, mech = published
        report = encode_task_tree(Task(2, (50.0, 50.0)), tree, mech)
        assert report.task_id == 2
        tree.path_of_leaf(report.leaf)

    def test_laplace_reports(self):
        mech = PlanarLaplaceMechanism(0.5, seed=0)
        w = encode_worker_laplace(Worker(1, (5.0, 5.0)), mech)
        t = encode_task_laplace(Task(1, (5.0, 5.0)), mech)
        assert w.leaf is None and t.leaf is None
        assert w.noisy_location.shape == (2,)
        assert t.noisy_location.shape == (2,)

    def test_tree_reports_are_obfuscated(self, published):
        """With a tiny epsilon, reports rarely stay at the true leaf."""
        tree, _ = published
        mech = TreeMechanism(tree, epsilon=1e-4, seed=2)
        moved = 0
        for _ in range(50):
            report = encode_worker_tree(Worker(0, (10.0, 10.0)), tree, mech)
            if report.leaf != tree.leaf_of_path(tree.leaf_for_location((10.0, 10.0))):
                moved += 1
        assert moved > 25


class TestMatchingServer:
    def _fill(self, server, tree, mech, n=5, seed=0):
        rng = np.random.default_rng(seed)
        for i in range(n):
            loc = rng.random(2) * 100
            server.register_worker(
                encode_worker_tree(Worker(i, loc), tree, mech, rng)
            )

    def test_registration_and_matching(self, published):
        tree, mech = published
        server = MatchingServer(tree)
        self._fill(server, tree, mech, n=5)
        assert server.registered_workers == 5
        rng = np.random.default_rng(1)
        assigned = set()
        for task_id in range(5):
            report = encode_task_tree(
                Task(task_id, rng.random(2) * 100), tree, mech, rng
            )
            worker = server.submit_task(report)
            assert worker is not None
            assigned.add(worker)
        assert len(assigned) == 5  # each worker used once
        assert server.result.size == 5

    def test_pool_exhaustion_records_unassigned(self, published):
        tree, mech = published
        server = MatchingServer(tree)
        self._fill(server, tree, mech, n=1)
        t0 = encode_task_tree(Task(0, (1.0, 1.0)), tree, mech)
        t1 = encode_task_tree(Task(1, (2.0, 2.0)), tree, mech)
        assert server.submit_task(t0) is not None
        assert server.submit_task(t1) is None
        assert server.result.unassigned_tasks == [1]

    def test_duplicate_registration_rejected(self, published):
        tree, mech = published
        server = MatchingServer(tree)
        report = encode_worker_tree(Worker(0, (5.0, 5.0)), tree, mech)
        server.register_worker(report)
        with pytest.raises(ValueError):
            server.register_worker(report)

    def test_registration_closes_after_first_task(self, published):
        tree, mech = published
        server = MatchingServer(tree)
        self._fill(server, tree, mech, n=2)
        server.submit_task(encode_task_tree(Task(0, (5.0, 5.0)), tree, mech))
        with pytest.raises(RuntimeError):
            server.register_worker(
                encode_worker_tree(Worker(99, (1.0, 1.0)), tree, mech)
            )

    def test_type_discipline(self, published):
        tree, mech = published
        server = MatchingServer(tree)
        with pytest.raises(TypeError):
            server.register_worker("not a report")
        with pytest.raises(TypeError):
            server.submit_task("not a report")

    def test_cohort_registers_as_columns(self, published):
        tree, _ = published
        server = MatchingServer(tree, allow_late_registration=True)
        server.register_cohort([4, 2], tree.leaf_index[[0, 5]])
        server.register_worker(WorkerReport(worker_id=9, leaf=int(tree.leaf_index[7])))
        assert server.registered_ids == [4, 2, 9]
        state = server.export_state()
        assert state["worker_ids"] == [4, 2, 9]
        assert state["leaves"] == tree.leaf_index[[0, 5, 7]].tolist()
        found = server.submit_task_detailed(
            TaskReport(task_id=0, leaf=int(tree.leaf_index[5]))
        )
        assert found == (2, 0)
        # late registrations go straight into the live trie
        server.register_cohort([11], [int(tree.leaf_index[5])])
        assert server.submit_task(TaskReport(task_id=1, leaf=int(tree.leaf_index[5]))) == 11

    def test_cohort_is_all_or_nothing(self, published):
        tree, _ = published
        server = MatchingServer(tree)
        server.register_cohort([1], [0])
        with pytest.raises(ValueError):
            server.register_cohort([2, 1], [0, 0])  # 1 already registered
        with pytest.raises(ValueError):
            server.register_cohort([3, 3], [0, 0])  # duplicate in the cohort
        with pytest.raises(ValueError):
            server.register_cohort([4], [tree.num_leaves])  # leaf outside the tree
        with pytest.raises(ValueError):
            server.register_cohort([5, 6], [0])  # columns differ in length
        assert server.registered_ids == [1]

    def test_late_cohort_is_all_or_nothing(self, published):
        """Once the matcher exists, a late cohort is checked once, by the
        server, before any of it reaches the matcher."""
        tree, _ = published
        server = MatchingServer(tree, allow_late_registration=True)
        server.register_cohort([1, 2], [0, 5])
        server.submit_task(TaskReport(task_id=0, leaf=0))
        for ids, leaves in (([3, 4], [0, tree.num_leaves]), ([5], [-1]), ([6, 7], [0])):
            with pytest.raises(ValueError):
                server.register_cohort(ids, leaves)
        assert server.registered_ids == [1, 2]
        assert server.available_workers == 1
        server.register_cohort([3], [0])
        assert server.submit_task(TaskReport(task_id=1, leaf=0)) == 3

    def test_task_leaf_validated(self, published):
        tree, _ = published
        server = MatchingServer(tree)
        server.register_cohort([1], [0])
        with pytest.raises(ValueError):
            server.submit_task(TaskReport(task_id=0, leaf=tree.num_leaves))

    def test_rejects_noisy_location_reports(self, published):
        tree, _ = published
        server = MatchingServer(tree)
        with pytest.raises(ValueError):
            server.register_worker(
                WorkerReport(worker_id=0, noisy_location=np.zeros(2))
            )
        with pytest.raises(ValueError):
            server.submit_task(TaskReport(task_id=0, noisy_location=np.zeros(2)))
