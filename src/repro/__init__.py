"""repro — reproduction of "Differentially Private Online Task Assignment
in Spatial Crowdsourcing: A Tree-based Approach" (Tao et al., ICDE 2020).

Public API tour:

* :mod:`repro.hst` — Hierarchically Well-Separated Trees (Alg. 1).
* :mod:`repro.privacy` — the tree mechanism (Algs. 2-3), the planar
  Laplace baseline and Geo-Indistinguishability audits (Thms. 1-2).
* :mod:`repro.matching` — HST-Greedy (Alg. 4), the Euclidean greedy and
  Prob baselines, the offline optimum.
* :mod:`repro.crowdsourcing` — workers/tasks/server and the end-to-end
  pipelines (TBF, Lap-GR, Lap-HG, Prob).
* :mod:`repro.workloads` — the paper's synthetic Gaussian workloads, the
  Chengdu-like taxi substitute, and arrival-order/arrival-time processes.
* :mod:`repro.service` — the serving layer: a sharded online assignment
  engine with batched cohort obfuscation, timed event streams, per-shard
  telemetry/budget audit and a load generator
  (``python -m repro.service --smoke``).
* :mod:`repro.cluster` — the shard-family core: versioned base +
  delta shard snapshots, the per-family row journal, the one shard
  host every runtime ingests rows through, hot-cell split routing and
  the hot-shard balancer.
* :mod:`repro.mesh` — the distributed layer: the same shards across
  worker processes that dial a coordinator over sockets, with
  checkpoints, crash failover, hot-cell splitting and family migration
  (``python -m repro.mesh --smoke``).
* :mod:`repro.runtime` — the execution core: the keyed
  :class:`~repro.runtime.PipelineScheduler` (FIFO per key, global
  barriers, early release), on which the gateway runs every request as
  a barrier in arrival order and the mesh coordinator runs each shard
  family under its own key, so pipelined serving stays bit-identical to
  serial replay.
* :mod:`repro.experiments` — per-figure sweeps; also a CLI
  (``python -m repro.experiments``).

Quickstart::

    from repro import (
        Box, build_hst, uniform_grid, TreeMechanism, HSTGreedyMatcher,
    )

    region = Box.square(200.0)
    tree = build_hst(uniform_grid(region, 16), seed=0)
    mech = TreeMechanism(tree, epsilon=0.5, seed=1)
    worker_leaves = mech.obfuscate_points_batch([3, 77, 120])
    matcher = HSTGreedyMatcher.for_tree(tree, worker_leaves)
    worker, level = matcher.assign(mech.obfuscate_points_batch([42])[0])
"""

from .crowdsourcing import (
    Instance,
    LapGRPipeline,
    LapHGPipeline,
    MatchingServer,
    PipelineOutcome,
    ProbPipeline,
    TBFPipeline,
    TBFSizePipeline,
    Task,
    Worker,
    publish_tree,
)
from .geometry import Box, SnapIndex, uniform_grid
from .hst import HST, build_hst
from .matching import (
    EuclideanGreedyMatcher,
    HSTGreedyMatcher,
    LeafTrie,
    MatchingResult,
    ProbMatcher,
    optimal_matching,
)
from .privacy import (
    PlanarLaplaceMechanism,
    PrivacyBudgetLedger,
    TreeMechanism,
    TreeWeights,
    verify_laplace_geo_i,
    verify_tree_geo_i,
)
from .service import (
    LoadConfig,
    LoadGenerator,
    ServiceReport,
    ShardMap,
    ShardServer,
    ShardedAssignmentEngine,
)
from .workloads import (
    ChengduTaxiDataset,
    SyntheticConfig,
    Workload,
    gaussian_workload,
)

__version__ = "1.0.0"

__all__ = [
    "Box",
    "ChengduTaxiDataset",
    "EuclideanGreedyMatcher",
    "HST",
    "HSTGreedyMatcher",
    "Instance",
    "LapGRPipeline",
    "LapHGPipeline",
    "LeafTrie",
    "LoadConfig",
    "LoadGenerator",
    "MatchingResult",
    "MatchingServer",
    "PipelineOutcome",
    "PlanarLaplaceMechanism",
    "PrivacyBudgetLedger",
    "ProbMatcher",
    "ProbPipeline",
    "ServiceReport",
    "ShardMap",
    "ShardServer",
    "ShardedAssignmentEngine",
    "SnapIndex",
    "SyntheticConfig",
    "TBFPipeline",
    "TBFSizePipeline",
    "Task",
    "TreeMechanism",
    "TreeWeights",
    "Worker",
    "Workload",
    "build_hst",
    "gaussian_workload",
    "optimal_matching",
    "publish_tree",
    "uniform_grid",
    "verify_laplace_geo_i",
    "verify_tree_geo_i",
    "__version__",
]
