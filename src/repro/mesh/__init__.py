"""repro.mesh — the distributed worker mesh behind a non-blocking coordinator.

The paper's assignment mechanism survives being cut into shard families,
snapshotted, killed and replayed (:mod:`repro.cluster` holds that
shard-family core). This package runs those families across worker
*processes*: standalone workers (``python -m repro.mesh --worker
--connect HOST:PORT``, or forked locally by
:func:`~repro.mesh.worker.spawn_local_worker`) dial a coordinator,
negotiate the ``role:mesh-worker`` handshake over the gateway wire form,
and serve shard families via :mod:`repro.mesh.protocol` ops.

The pieces:

* :mod:`~repro.mesh.protocol` — the sans-IO op/reply vocabulary
  (``repro.mesh`` v1 documents in gateway frames, seq-matched so ops
  pipeline per connection); an ``events`` op carries a slice of the
  coordinator's journal as fixed-width rows, and its ``events_reply``
  one worker per task row (:func:`~repro.mesh.protocol.event_columns`
  checks the rows on the worker);
* :mod:`~repro.mesh.worker` — one process: a
  :class:`~repro.cluster.worker.ShardHost` serving ops FIFO off a
  socket (``events`` rows through
  :meth:`~repro.cluster.worker.ShardHost.ingest`, the engine's own row
  path), failing loudly then exiting;
* :mod:`~repro.mesh.coordinator` — :class:`MeshCoordinator`: accepts
  peers, places shard families across them, sends each family's
  journal slices from the journaling thread without waiting (several in
  flight per family, in journal order; replies advance acknowledged
  cursors, and a window waits once for its marks), runs checkpoint
  cuts (one per family, keyed by it), migrations and failover replays
  on a :class:`~repro.runtime.PipelineScheduler` with flush and report
  as its only barriers, splits hot cells and migrates hot families
  when given a balancer, and on a dead connection restores the lost
  families onto survivors from checkpoint snapshots plus journal
  replay — bit-identical to the single-process engine by construction.

The serving adapter is :class:`repro.api.backends.MeshBackend`
(``make_backend("mesh", spec)``), which joins the cross-backend
conformance matrix.

CLI::

    python -m repro.mesh --smoke                       # CI gate
    python -m repro.mesh --worker --connect HOST:PORT  # one worker
"""

from .coordinator import MeshCoordinator, MeshError, PeerLost
from .protocol import (
    MESH_SCHEMA,
    MESH_VERSION,
    OP_KINDS,
    event_columns,
    events_reply_doc,
    fail_doc,
    op_doc,
    parse_op,
    parse_reply,
    reply_doc,
)
from .worker import (
    connect_worker,
    run_worker,
    serve_connection,
    spawn_cli_worker,
    spawn_local_worker,
)

__all__ = [
    "MESH_SCHEMA",
    "MESH_VERSION",
    "MeshCoordinator",
    "MeshError",
    "OP_KINDS",
    "PeerLost",
    "connect_worker",
    "event_columns",
    "events_reply_doc",
    "fail_doc",
    "op_doc",
    "parse_op",
    "parse_reply",
    "reply_doc",
    "run_worker",
    "serve_connection",
    "spawn_cli_worker",
    "spawn_local_worker",
]
