"""Tests for repro.crowdsourcing.entities."""

import numpy as np
import pytest

from repro.crowdsourcing import Task, TaskReport, Worker, WorkerReport


class TestWorker:
    def test_location_normalized(self):
        w = Worker(worker_id=0, location=(1, 2))
        assert isinstance(w.location, np.ndarray)
        assert w.location.tolist() == [1.0, 2.0]

    def test_default_radius_infinite(self):
        assert Worker(0, (0, 0)).reachable_distance == float("inf")

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Worker(0, (0, 0), reachable_distance=-1.0)

    def test_can_reach(self):
        w = Worker(0, (0, 0), reachable_distance=5.0)
        assert w.can_reach(Task(0, (3, 4)))
        assert not w.can_reach(Task(1, (4, 4)))

    def test_boundary_reach_inclusive(self):
        w = Worker(0, (0, 0), reachable_distance=5.0)
        assert w.can_reach(Task(0, (5, 0)))


class TestTask:
    def test_location_normalized(self):
        t = Task(task_id=3, location=[7, 8])
        assert t.location.tolist() == [7.0, 8.0]

    def test_bad_location_rejected(self):
        with pytest.raises(ValueError):
            Task(0, (1, 2, 3))


class TestReports:
    def test_leaf_report(self):
        r = WorkerReport(worker_id=0, leaf=2)
        assert r.noisy_location is None

    def test_noisy_report(self):
        r = TaskReport(task_id=0, noisy_location=np.array([1.0, 2.0]))
        assert r.leaf is None

    def test_exactly_one_encoding_worker(self):
        with pytest.raises(ValueError):
            WorkerReport(worker_id=0)
        with pytest.raises(ValueError):
            WorkerReport(
                worker_id=0, leaf=0, noisy_location=np.zeros(2)
            )

    def test_exactly_one_encoding_task(self):
        with pytest.raises(ValueError):
            TaskReport(task_id=0)

    def test_report_carries_radius(self):
        r = WorkerReport(worker_id=1, leaf=0, reachable_distance=12.0)
        assert r.reachable_distance == 12.0
