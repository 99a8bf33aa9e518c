"""Client-side location encoding (the trusted half of the workflow).

The paper's workflow (Fig. 1) runs the privacy mechanism *on the user's
device*: a worker/task snaps its true location to the nearest published
predefined point and obfuscates the resulting leaf (TBF, reported as a
leaf index), or adds planar Laplace noise to the raw coordinates (the
baselines). Only the output of
these functions may cross into :mod:`repro.crowdsourcing.server`.
"""

from __future__ import annotations

import numpy as np

from ..hst.tree import HST
from ..privacy.laplace import PlanarLaplaceMechanism
from ..privacy.tree_mechanism import TreeMechanism
from .entities import Task, TaskReport, Worker, WorkerReport

__all__ = [
    "encode_worker_tree",
    "encode_task_tree",
    "encode_worker_laplace",
    "encode_task_laplace",
]


def encode_worker_tree(
    worker: Worker, tree: HST, mechanism: TreeMechanism, rng=None
) -> WorkerReport:
    """Snap a worker to its nearest predefined point and obfuscate the leaf."""
    path = mechanism.obfuscate(tree.leaf_for_location(worker.location), rng)
    return WorkerReport(
        worker_id=worker.worker_id,
        leaf=tree.leaf_of_path(path),
        reachable_distance=worker.reachable_distance,
    )


def encode_task_tree(
    task: Task, tree: HST, mechanism: TreeMechanism, rng=None
) -> TaskReport:
    """Snap a task to its nearest predefined point and obfuscate the leaf."""
    path = mechanism.obfuscate(tree.leaf_for_location(task.location), rng)
    return TaskReport(task_id=task.task_id, leaf=tree.leaf_of_path(path))


def encode_worker_laplace(
    worker: Worker, mechanism: PlanarLaplaceMechanism, rng=None
) -> WorkerReport:
    """Report a planar-Laplace-noised worker location."""
    noisy = np.asarray(mechanism.obfuscate(worker.location, rng))
    return WorkerReport(
        worker_id=worker.worker_id,
        noisy_location=noisy,
        reachable_distance=worker.reachable_distance,
    )


def encode_task_laplace(
    task: Task, mechanism: PlanarLaplaceMechanism, rng=None
) -> TaskReport:
    """Report a planar-Laplace-noised task location."""
    noisy = np.asarray(mechanism.obfuscate(task.location, rng))
    return TaskReport(task_id=task.task_id, noisy_location=noisy)
