"""repro.service — the sharded online assignment serving layer.

The paper's algorithms are single-region and single-stream; this package
is the production-shaped layer on top: the service region is partitioned
into shards (:class:`ShardMap`), each shard publishes its own HST and runs
its own mechanism + ledger + Algorithm-4 matcher (:class:`ShardServer`),
and the :class:`ShardedAssignmentEngine` routes timed worker/task events
(:mod:`repro.service.events`) to shards, batching worker cohorts through
the vectorized obfuscation path. :class:`LoadGenerator` replays the repo's
synthetic Gaussian and Chengdu-taxi workloads against the engine at
configurable rates, and :class:`ServiceReport` carries the run's
throughput, latency quantiles, assignment distances and per-shard privacy
budget audit.

CLI::

    python -m repro.service --smoke
    python -m repro.service --workload taxi --shards 3 3 --tasks 2000 --json
"""

from .engine import ShardedAssignmentEngine
from .events import TaskArrival, WorkerArrival, merge_event_streams
from .loadgen import LoadConfig, LoadGenerator
from .metrics import ServiceReport, ShardMetrics, ShardSnapshot
from .shard import ShardServer
from .sharding import ShardMap

__all__ = [
    "LoadConfig",
    "LoadGenerator",
    "ServiceReport",
    "ShardMap",
    "ShardMetrics",
    "ShardServer",
    "ShardSnapshot",
    "ShardedAssignmentEngine",
    "TaskArrival",
    "WorkerArrival",
    "merge_event_streams",
]
