"""repro.runtime — the shard-aware pipelined execution core.

One execution model, shared by every serving layer instead of being
re-implemented per layer:

* :class:`PipelineScheduler` — requests execute on a bounded pool under
  an *ordering key*: different keys run concurrently, equal keys stay
  FIFO, and ``None`` is a global barrier. Keys come from the backend's
  shard routing, so pipelined execution is bit-identical to the serial
  dispatch loops it replaced — per shard, nothing ever reorders. A
  running job may end its hold early with :func:`release_order` once
  everything later jobs must see is in place (the mesh backend does so
  once a window is journaled); it stays in flight until it returns;
* :class:`SequenceReorderer` — the stream-window bookkeeping
  (answers in completion order, responses out in stream order) of the
  client's pipelined stream mode.

Consumers: :class:`repro.gateway.GatewayServer` schedules every framed
request through a :class:`PipelineScheduler` keyed by
``backend.ordering_key(request)``; :class:`repro.api.AssignmentClient`
pipelines stream windows over transports that support it; and
:class:`repro.mesh.MeshCoordinator` delivers and checkpoints each shard
family as jobs keyed by the family, with flush and report as barriers.
"""

from .scheduler import PipelineScheduler, default_worker_count, release_order
from .window import SequenceReorderer

__all__ = [
    "PipelineScheduler",
    "SequenceReorderer",
    "default_worker_count",
    "release_order",
]
