"""repro.runtime — the pipelined execution core.

One execution model, shared by every serving layer instead of being
re-implemented per layer:

* :class:`PipelineScheduler` — jobs execute on a bounded pool under an
  *ordering key*: different keys run concurrently, equal keys stay
  FIFO, and ``None`` is a global barrier. A running job may end its
  hold early with :func:`release_order` once everything later jobs must
  see is in place (the mesh backend does so once a window is
  journaled); it stays in flight until it returns.

Consumers: :class:`repro.gateway.GatewayServer` submits every framed
request as a barrier, so requests run in arrival order (a released mesh
window lets the next request journal while its outcomes are in
flight); and :class:`repro.mesh.MeshCoordinator` delivers and
checkpoints each shard family as jobs keyed by the family, with flush
and report as barriers — the only per-key concurrency in the repo.
"""

from .scheduler import PipelineScheduler, default_worker_count, release_order

__all__ = [
    "PipelineScheduler",
    "default_worker_count",
    "release_order",
]
