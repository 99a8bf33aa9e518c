"""End-to-end algorithm pipelines: the compared systems of Sec. IV.

Each pipeline wires one privacy mechanism to one online matcher and runs a
full arrival sequence, producing the paper's three metrics:

* ``total distance`` — true Euclidean distance summed over (successful)
  assignments. Assignment decisions only ever see obfuscated data; true
  coordinates re-enter exclusively for metric computation, mirroring the
  paper's evaluation.
* ``running time`` — accumulated wall-clock time of the per-task region
  (encode the arriving task, assign it), matching the paper's "from
  receiving a task to the completion of the assignment". One-time setup
  (HST construction, worker registration) is reported separately.
* ``memory`` — peak traced allocation over the whole run.

Minimum-total-distance pipelines (Figs. 6-7): :class:`TBFPipeline`,
:class:`LapGRPipeline`, :class:`LapHGPipeline`.
Matching-size case study (Fig. 8): :class:`TBFSizePipeline`,
:class:`ProbPipeline`. Their semantics: the server proposes a worker from
obfuscated data; the assignment *succeeds* iff the worker's true distance
to the task is within its reachable radius; on failure the task is lost but
the worker stays available (it never traveled).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..geometry.box import Box
from ..geometry.points import as_points
from ..hst.build import build_hst
from ..hst.paths import path_to_leaf
from ..hst.tree import HST
from ..matching.euclidean_greedy import EuclideanGreedyMatcher
from ..matching.hst_greedy import HSTGreedyMatcher
from ..matching.prob_assign import NoiseDifferencePool, ProbMatcher
from ..matching.reachability import estimate_stretch
from ..matching.types import Assignment, MatchingResult
from ..privacy.laplace import PlanarLaplaceMechanism
from ..privacy.tree_mechanism import TreeMechanism
from ..utils import Stopwatch, ensure_rng, measure_peak_memory
from .server import make_predefined_points

__all__ = [
    "Instance",
    "PipelineOutcome",
    "TBFPipeline",
    "LapGRPipeline",
    "LapHGPipeline",
    "TBFSizePipeline",
    "PSDPipeline",
    "ProbPipeline",
    "MIN_DISTANCE_PIPELINES",
    "SIZE_PIPELINES",
]


@dataclass(frozen=True)
class Instance:
    """One POMBM problem instance.

    Tasks arrive in row order of ``task_locations`` (workloads pre-shuffle
    per the random-order model); ``radii`` is only used by the
    matching-size pipelines.
    """

    region: Box
    worker_locations: np.ndarray
    task_locations: np.ndarray
    epsilon: float
    radii: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "worker_locations", as_points(self.worker_locations)
        )
        object.__setattr__(self, "task_locations", as_points(self.task_locations))
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.radii is not None:
            r = np.asarray(self.radii, dtype=np.float64)
            if r.shape != (len(self.worker_locations),):
                raise ValueError("need one radius per worker")
            object.__setattr__(self, "radii", r)

    @property
    def n_workers(self) -> int:
        return len(self.worker_locations)

    @property
    def n_tasks(self) -> int:
        return len(self.task_locations)


@dataclass
class PipelineOutcome:
    """Metrics of one pipeline run on one instance."""

    algorithm: str
    matching: MatchingResult
    assignment_seconds: float
    setup_seconds: float
    peak_mib: float
    details: dict = field(default_factory=dict)

    @property
    def total_distance(self) -> float:
        return self.matching.total_distance

    @property
    def matching_size(self) -> int:
        return self.matching.size


def _register_workers(tree, mechanism, locations, rng) -> list[int]:
    """Snap and obfuscate all worker locations at once, as leaf indices.

    Uses the vectorized batch sampler (same distribution as the walk) so
    registering 10^5 workers costs milliseconds, not seconds.
    """
    idx = tree.snap_index.snap_many(locations)
    return mechanism.obfuscate_points_batch(idx, rng).tolist()


class _BasePipeline:
    """Shared HST-publication plumbing for the pipelines that need a tree."""

    name = "base"

    def __init__(self, grid_nx: int = 32, tree: HST | None = None) -> None:
        if grid_nx < 1:
            raise ValueError(f"grid_nx must be >= 1, got {grid_nx}")
        self.grid_nx = grid_nx
        self._fixed_tree = tree

    def _publish_tree(self, region: Box, rng) -> HST:
        if self._fixed_tree is not None:
            return self._fixed_tree
        return build_hst(make_predefined_points(region, self.grid_nx), seed=rng)

    @staticmethod
    def _true_distance(instance: Instance, task: int, worker: int) -> float:
        diff = instance.task_locations[task] - instance.worker_locations[worker]
        return float(np.hypot(diff[0], diff[1]))


class TBFPipeline(_BasePipeline):
    """The paper's Tree-Based Framework: tree mechanism + HST-Greedy."""

    name = "TBF"

    def __init__(
        self,
        grid_nx: int = 32,
        tree: HST | None = None,
        sampler: str = "walk",
    ) -> None:
        super().__init__(grid_nx, tree)
        self.sampler = sampler

    def run(self, instance: Instance, seed=None) -> PipelineOutcome:
        rng = ensure_rng(seed)
        watch = Stopwatch()
        mem: dict = {}
        with measure_peak_memory(mem):
            setup = Stopwatch()
            with setup.timed():
                tree = self._publish_tree(instance.region, rng)
                mechanism = TreeMechanism(
                    tree, instance.epsilon, method=self.sampler
                )
                worker_reports = _register_workers(
                    tree, mechanism, instance.worker_locations, rng
                )
                matcher = HSTGreedyMatcher.for_tree(tree, worker_reports)
            matching = MatchingResult()
            for task_id in range(instance.n_tasks):
                with watch.timed():
                    path = tree.leaf_for_location(
                        instance.task_locations[task_id]
                    )
                    report = mechanism.obfuscate(path, rng)
                    found = matcher.assign(path_to_leaf(report, tree.branching))
                if found is None:
                    matching.unassigned_tasks.append(task_id)
                    continue
                worker, _level = found
                matching.assignments.append(
                    Assignment(
                        task=task_id,
                        worker=worker,
                        distance=self._true_distance(instance, task_id, worker),
                    )
                )
        return PipelineOutcome(
            algorithm=self.name,
            matching=matching,
            assignment_seconds=watch.elapsed,
            setup_seconds=setup.elapsed,
            peak_mib=mem["peak_mib"],
            details={"tree_depth": tree.depth, "branching": tree.branching},
        )


class LapGRPipeline(_BasePipeline):
    """Baseline Lap-GR: planar Laplace + Euclidean greedy."""

    name = "Lap-GR"

    def __init__(self, naive_scan: bool = False) -> None:
        super().__init__(grid_nx=1)
        self.naive_scan = naive_scan

    def run(self, instance: Instance, seed=None) -> PipelineOutcome:
        rng = ensure_rng(seed)
        watch = Stopwatch()
        mem: dict = {}
        with measure_peak_memory(mem):
            setup = Stopwatch()
            with setup.timed():
                laplace = PlanarLaplaceMechanism(
                    instance.epsilon, region=instance.region
                )
                noisy_workers = laplace.obfuscate_many(
                    instance.worker_locations, rng
                )
                matcher = EuclideanGreedyMatcher(
                    noisy_workers, naive=self.naive_scan
                )
            matching = MatchingResult()
            for task_id in range(instance.n_tasks):
                with watch.timed():
                    noisy_task = laplace.obfuscate(
                        instance.task_locations[task_id], rng
                    )
                    found = matcher.assign(noisy_task)
                if found is None:
                    matching.unassigned_tasks.append(task_id)
                    continue
                worker, _ = found
                matching.assignments.append(
                    Assignment(
                        task=task_id,
                        worker=worker,
                        distance=self._true_distance(instance, task_id, worker),
                    )
                )
        return PipelineOutcome(
            algorithm=self.name,
            matching=matching,
            assignment_seconds=watch.elapsed,
            setup_seconds=setup.elapsed,
            peak_mib=mem["peak_mib"],
        )


class LapHGPipeline(_BasePipeline):
    """Baseline Lap-HG: planar Laplace + HST-Greedy over snapped noise.

    Noisy coordinates are snapped to the published predefined points so
    that HST-Greedy can run on leaves, as in Meyerson et al.'s HST matcher
    applied to Laplace-obfuscated data.
    """

    name = "Lap-HG"

    def run(self, instance: Instance, seed=None) -> PipelineOutcome:
        rng = ensure_rng(seed)
        watch = Stopwatch()
        mem: dict = {}
        with measure_peak_memory(mem):
            setup = Stopwatch()
            with setup.timed():
                tree = self._publish_tree(instance.region, rng)
                laplace = PlanarLaplaceMechanism(
                    instance.epsilon, region=instance.region
                )
                noisy_workers = laplace.obfuscate_many(
                    instance.worker_locations, rng
                )
                worker_leaves = tree.leaves_for_locations(noisy_workers)
                matcher = HSTGreedyMatcher.for_tree(tree, worker_leaves)
            matching = MatchingResult()
            for task_id in range(instance.n_tasks):
                with watch.timed():
                    noisy_task = laplace.obfuscate(
                        instance.task_locations[task_id], rng
                    )
                    leaf = tree.leaf_index[tree.snap_index.snap(noisy_task)]
                    found = matcher.assign(leaf)
                if found is None:
                    matching.unassigned_tasks.append(task_id)
                    continue
                worker, _level = found
                matching.assignments.append(
                    Assignment(
                        task=task_id,
                        worker=worker,
                        distance=self._true_distance(instance, task_id, worker),
                    )
                )
        return PipelineOutcome(
            algorithm=self.name,
            matching=matching,
            assignment_seconds=watch.elapsed,
            setup_seconds=setup.elapsed,
            peak_mib=mem["peak_mib"],
            details={"tree_depth": tree.depth, "branching": tree.branching},
        )


class TBFSizePipeline(_BasePipeline):
    """TBF variant for the matching-size objective (paper Sec. IV-C).

    The server proposes the nearest available worker on the HST whose
    stretch-calibrated tree budget covers the obfuscated tree distance
    ("the nearest reachable worker on the HST"); if no worker passes the
    budget filter it falls back to the plain nearest worker — under the
    release-on-failure semantics a failed proposal costs nothing beyond the
    task itself, so proposing dominates abstaining. Success is then decided
    by the true locations; a failed proposal returns the worker to the pool.
    """

    name = "TBF"

    def __init__(
        self,
        grid_nx: int = 32,
        tree: HST | None = None,
        sampler: str = "walk",
    ) -> None:
        super().__init__(grid_nx, tree)
        self.sampler = sampler

    def run(self, instance: Instance, seed=None) -> PipelineOutcome:
        if instance.radii is None:
            raise ValueError("matching-size pipelines need per-worker radii")
        rng = ensure_rng(seed)
        watch = Stopwatch()
        mem: dict = {}
        with measure_peak_memory(mem):
            setup = Stopwatch()
            with setup.timed():
                tree = self._publish_tree(instance.region, rng)
                mechanism = TreeMechanism(
                    tree, instance.epsilon, method=self.sampler
                )
                stretch = estimate_stretch(tree, seed=rng)
                budgets = (
                    instance.radii * stretch * tree.metric_scale
                )
                worker_reports = _register_workers(
                    tree, mechanism, instance.worker_locations, rng
                )
                matcher = HSTGreedyMatcher.for_tree(tree, worker_reports)
            matching = MatchingResult()
            for task_id in range(instance.n_tasks):
                with watch.timed():
                    path = tree.leaf_for_location(
                        instance.task_locations[task_id]
                    )
                    report = mechanism.obfuscate(path, rng)
                    found = matcher.assign_reachable_preferring_radius(
                        path_to_leaf(report, tree.branching),
                        budgets,
                        instance.radii,
                    )
                if found is None:
                    matching.unassigned_tasks.append(task_id)
                    continue
                worker, _level = found
                distance = self._true_distance(instance, task_id, worker)
                success = distance <= instance.radii[worker]
                matching.assignments.append(
                    Assignment(
                        task=task_id,
                        worker=worker,
                        distance=distance,
                        success=success,
                    )
                )
                if not success:
                    matcher.release(worker)
        return PipelineOutcome(
            algorithm=self.name,
            matching=matching,
            assignment_seconds=watch.elapsed,
            setup_seconds=setup.elapsed,
            peak_mib=mem["peak_mib"],
            details={
                "tree_depth": tree.depth,
                "branching": tree.branching,
                "stretch": stretch,
            },
        )


class ProbPipeline(_BasePipeline):
    """The ``Prob`` baseline: Laplace + probability-based assignment."""

    name = "Prob"

    def __init__(
        self,
        pool_samples: int = 2048,
        min_probability: float = 0.05,
    ) -> None:
        super().__init__(grid_nx=1)
        self.pool_samples = pool_samples
        self.min_probability = min_probability

    def run(self, instance: Instance, seed=None) -> PipelineOutcome:
        if instance.radii is None:
            raise ValueError("matching-size pipelines need per-worker radii")
        rng = ensure_rng(seed)
        watch = Stopwatch()
        mem: dict = {}
        with measure_peak_memory(mem):
            setup = Stopwatch()
            with setup.timed():
                laplace = PlanarLaplaceMechanism(
                    instance.epsilon, region=instance.region
                )
                pool = NoiseDifferencePool(
                    instance.epsilon, n_samples=self.pool_samples, seed=rng
                )
                noisy_workers = laplace.obfuscate_many(
                    instance.worker_locations, rng
                )
                matcher = ProbMatcher(
                    noisy_workers,
                    instance.radii,
                    pool,
                    min_probability=self.min_probability,
                )
            matching = MatchingResult()
            for task_id in range(instance.n_tasks):
                with watch.timed():
                    noisy_task = laplace.obfuscate(
                        instance.task_locations[task_id], rng
                    )
                    found = matcher.assign(noisy_task)
                if found is None:
                    matching.unassigned_tasks.append(task_id)
                    continue
                worker, prob = found
                distance = self._true_distance(instance, task_id, worker)
                success = distance <= instance.radii[worker]
                matching.assignments.append(
                    Assignment(
                        task=task_id,
                        worker=worker,
                        distance=distance,
                        success=success,
                    )
                )
                if not success:
                    matcher.release(worker)
        return PipelineOutcome(
            algorithm=self.name,
            matching=matching,
            assignment_seconds=watch.elapsed,
            setup_seconds=setup.elapsed,
            peak_mib=mem["peak_mib"],
        )


class PSDPipeline(_BasePipeline):
    """Ablation baseline: Private Spatial Decomposition geocast (ref. [5]).

    The aggregate-DP approach the paper's related work argues is unfit for
    individual-location task assignment: the server only learns
    Laplace-noised per-cell worker counts (To et al., PVLDB'14), geocasts
    each task to a region whose noisy count reaches a target, and a random
    worker inside the region accepts. Workers' exact locations never leave
    the trusted aggregation step, so the guarantee is ε-DP over the worker
    set — a different (aggregate) trust model than Geo-I per report.
    Note the asymmetry: To et al. protect *workers only*; tasks reach the
    server in the clear, so PSD geocasts from exact task locations. Its
    distances can therefore look competitive while offering strictly less
    protection — exactly the contrast the paper's related work draws.
    """

    name = "PSD-GR"

    def __init__(
        self,
        height: int = 6,
        target_count: float = 2.0,
        max_expansions: int = 4,
    ) -> None:
        super().__init__(grid_nx=1)
        if max_expansions < 0:
            raise ValueError("max_expansions must be non-negative")
        self.height = height
        self.target_count = target_count
        self.max_expansions = max_expansions

    def run(self, instance: Instance, seed=None) -> PipelineOutcome:
        from ..privacy.psd import NoisyQuadtree

        rng = ensure_rng(seed)
        watch = Stopwatch()
        mem: dict = {}
        with measure_peak_memory(mem):
            setup = Stopwatch()
            with setup.timed():
                quadtree = NoisyQuadtree(
                    instance.region,
                    instance.worker_locations,
                    epsilon=instance.epsilon,
                    height=self.height,
                    seed=rng,
                )
                available = np.ones(instance.n_workers, dtype=bool)
                worker_cells = np.array(
                    [
                        quadtree.cell_of(loc, quadtree.height)
                        for loc in instance.worker_locations
                    ]
                )
            matching = MatchingResult()
            for task_id in range(instance.n_tasks):
                with watch.timed():
                    worker = self._geocast_assign(
                        instance, quadtree, worker_cells, available, task_id, rng
                    )
                if worker is None:
                    matching.unassigned_tasks.append(task_id)
                    continue
                available[worker] = False
                matching.assignments.append(
                    Assignment(
                        task=task_id,
                        worker=worker,
                        distance=self._true_distance(instance, task_id, worker),
                    )
                )
        return PipelineOutcome(
            algorithm=self.name,
            matching=matching,
            assignment_seconds=watch.elapsed,
            setup_seconds=setup.elapsed,
            peak_mib=mem["peak_mib"],
            details={"quadtree_height": quadtree.height},
        )

    def _geocast_assign(
        self, instance, quadtree, worker_cells, available, task_id, rng
    ):
        """Grow the geocast region until an available worker accepts."""
        task_loc = instance.task_locations[task_id]
        target = self.target_count
        for _ in range(self.max_expansions + 1):
            region = quadtree.geocast(task_loc, target_count=target)
            cell_set = set(region.cells)
            inside = [
                w
                for w in np.flatnonzero(available)
                if tuple(worker_cells[w]) in cell_set
            ]
            if inside:
                # a geocast is a broadcast: any worker inside may accept
                return int(rng.choice(inside))
            target *= 4.0
        return None


#: The three systems compared in the minimum-total-distance experiments.
MIN_DISTANCE_PIPELINES = (LapGRPipeline, LapHGPipeline, TBFPipeline)
#: The two systems compared in the matching-size case study.
SIZE_PIPELINES = (ProbPipeline, TBFSizePipeline)
