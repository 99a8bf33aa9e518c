"""The mesh coordinator: worker peers on sockets, slices sent in line.

:class:`MeshCoordinator` is the repo's distributed coordinator. It keeps
the engine's ingest contract (``ingest``/``flush``/``report``) but its
workers are independent processes — possibly on other machines — that
dialed in over the gateway wire and hold shard families behind
:mod:`repro.mesh.protocol` ops.

How it works:

* **no single dispatch lock.** :meth:`MeshCoordinator.ingest` takes a
  run of arrivals as columns (ids, locations, kinds, times — the
  engine's ingest shape), cuts it into ``chunk_size`` chunks and absorbs
  each into the :class:`~repro.cluster.dispatch.FamilyJournal` with no
  per-event object. The journaling thread then sends each touched
  family's new rows itself, as one ``events`` op: a slice of the
  family's journal, whose rows are already fixed-width records in the
  op's wire layout (no per-row object, no JSON), which the worker
  applies through :meth:`~repro.cluster.worker.ShardHost.ingest`. The
  send does not wait for the reply. A per-family send lock makes taking
  a slice and writing it one step, so a family's slices reach its owner
  in journal order whichever thread journaled them, with several in
  flight; the socket and the worker's op loop are both FIFO, so
  per-shard row order is exactly the serial order, which is what the
  bit-exactness guarantee needs. Different families flow to their
  peers concurrently;
* **replies advance acknowledged cursors.** Each ``events`` reply is
  handled on the peer's reader thread as it lands: it records the
  outcomes of the slice's task rows (first write wins) and advances the
  family's acknowledged cursor past the slice. ``ingest`` returns the
  run's marks (each touched family's journal end), and
  :meth:`~MeshCoordinator.result_of` waits once per window, until every
  family it touched is acknowledged up to its mark, then takes the
  window's outcomes out of the table;
* **per-family checkpoint cuts.** Every ``checkpoint_every`` events the
  coordinator schedules one *cut* per family, keyed by that family, on a
  :class:`~repro.runtime.PipelineScheduler`. Under the family's send
  lock a cut reads the send cursor and posts one snapshot op per shard;
  it waits for the replies off the lock, chains them and truncates the
  journal at exactly that position. Slices sent meanwhile queue behind
  the snapshot ops on the peer, so a cut holds back no family's
  deliveries. The scheduler runs only cuts, migrations, failover
  replays and the flush and report barriers;
* **no reply lock across a send.** Reply handling takes only the
  coordinator's state lock, and no send is made while holding it (nor
  while holding any lock reply handling takes): a peer that is blocked
  writing replies can always drain, so it never deadlocks the
  journaling thread;
* **failover is reassignment, not respawn.** The coordinator does not
  own worker processes; when a connection dies mid-stream the dead
  peer's families are handed to the surviving peer with the lightest
  load. Under the state lock each family's send and acknowledged
  cursors are rewound to its checkpoint base, and a replay job restores
  it on the new owner from its last checkpoint chains and replays the
  journal from the base. A chain is the snapshot replies' texts as they
  came, each beside its checked head: the coordinator never parses a
  snapshot, and a ``load`` hands the texts back for the new owner to
  parse.
  Taking a slice reads the owner and plans any restore in the same
  step, so the new owner gets the restore and the replay before any
  newer slice. Snapshot restore plus replay is bit-deterministic, and a
  replayed task's outcome is dropped: only the first answer for a
  journal position is recorded. A second death during recovery just
  repeats the handling on the next survivor; only losing *every* peer
  is fatal;
* **hot-shard balancing** (``balancer=``). A
  :class:`~repro.cluster.balancer.HotShardBalancer` counts routed tasks
  per family and decides at the chunk end where its window fills. A
  *split* re-lattices a hot cell on the spot (later events route to its
  sub-shards, created lazily by the next send; the parent drains its
  old pool). A *migration* is that family's cut plus an ownership flip
  under its send lock, with the cursors rewound as on failover: the new
  owner restores the family from the chain and replays from the cut,
  and its shards are dropped on the old owner.

Telemetry rides the existing reservoir machinery
(:class:`~repro.service.metrics.SampleReservoir`): per-peer dispatch
depth (ops in flight) sampled at every op send — with several slices
per family in flight it may exceed the peer's family count —
checkpoint snapshot sizes (each snapshot reply's frame payload, in
bytes, bases and deltas apart), and checkpoint wall-times, all
summarized by :meth:`telemetry` together with the scheduler's live
per-family queue depths.
"""

from __future__ import annotations

import functools
import socket
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from typing import NamedTuple

import numpy as np

from ..api.errors import ValidationFailed, map_exception
from ..api.messages import to_wire
from ..cluster.balancer import (
    BalancerConfig,
    ClusterRouter,
    HotShardBalancer,
    key_order,
)
from ..cluster.dispatch import FamilyJournal
from ..cluster.worker import RefusedRow, shard_spec
from ..gateway.protocol import (
    MESH_WORKER_ROLE,
    FrameDecoder,
    advertised_families,
    encode_frame,
    goodbye_doc,
    handshake_frame,
    is_gateway_doc,
    parse_hello,
    peer_role,
    role_feature,
    welcome_doc,
)
from ..geometry.box import Box
from ..geometry.points import as_points
from ..obs.registry import MetricsRegistry
from ..obs.trace import current_context
from ..runtime import PipelineScheduler
from ..service.metrics import (
    SampleReservoir,
    ServiceReport,
    ShardSnapshot,
    build_report,
    summarize_reservoir,
)
from ..utils import keyed_shard_seed
from .protocol import op_doc, parse_reply

__all__ = ["MeshCoordinator", "MeshError", "PeerLost"]


class MeshError(RuntimeError):
    """A mesh peer failed, stalled, or the mesh cannot recover."""


class PeerLost(MeshError):
    """One peer's connection is gone; its families need a new home."""

    def __init__(self, peer: str) -> None:
        super().__init__(f"mesh worker {peer!r} is gone")
        self.peer = peer


def _failed(peer: str, op: str, reply: dict) -> MeshError:
    """The error for a ``fail`` answer to an ``op`` op."""
    return MeshError(
        f"mesh worker {peer!r} failed {op!r}: "
        f"[{reply.get('code')}] {reply.get('message')}"
    )


class MeshPeer:
    """One connected worker: a socket, a reader thread, seq-matched ops.

    :meth:`send` is thread-safe and does not wait: it writes one op and
    returns the future its reply resolves, so any number of ops may be
    in flight on the one socket (the worker serves them FIFO). The
    reader thread matches replies back by ``seq`` and runs each future's
    callbacks as it resolves it. Death, however it manifests (EOF,
    reset, a frame that fails to parse), resolves every in-flight future
    to ``None``, which :meth:`await_reply` turns into :class:`PeerLost`.
    """

    def __init__(
        self,
        name: str,
        sock: socket.socket,
        features,
        *,
        label: str = "",
        liveness_timeout: float = 120.0,
    ) -> None:
        self.name = name
        self.sock = sock
        self.features = tuple(features)
        self.label = label
        self.families = advertised_families(features)
        self.liveness_timeout = liveness_timeout
        self.dead = False  # guarded-by: _lock
        self.configured = False  # guarded-by: config_lock
        self.calls = 0  # guarded-by: _lock
        self.outstanding = 0  # guarded-by: _lock
        #: outstanding-ops-at-send samples: per-peer dispatch depth
        self.depth = SampleReservoir()
        self.config_lock = threading.Lock()
        self._seq = 0  # guarded-by: _lock
        self._pending: dict[int, Future] = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        self._wlock = threading.Lock()
        self._reader = threading.Thread(
            target=self._read_loop, name=f"mesh-peer-{name}", daemon=True
        )

    def start(self) -> None:
        self._reader.start()

    # ------------------------------------------------------------------ #
    # reply reader                                                        #
    # ------------------------------------------------------------------ #

    def _read_loop(self) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                data = self.sock.recv(65536)
                if not data:
                    return
                for doc, size in decoder.feed_sized(data):
                    if is_gateway_doc(doc):
                        return  # the worker said goodbye
                    kind, seq, body = parse_reply(doc)
                    with self._lock:
                        fut = self._pending.pop(seq, None)
                        if fut is not None:
                            self.outstanding -= 1
                    if fut is not None and not fut.done():
                        fut.set_result((kind, body, size))
        except Exception:
            # a peer whose stream cannot be parsed is as gone as one
            # whose socket died — there is no resynchronizing a framed
            # stream whose length prefix lied
            return
        finally:
            self.abandon()

    def mark_dead(self) -> None:
        """Flip ``dead`` under the peer lock.

        New :meth:`send` attempts fail fast from here on; in-flight ops
        are untouched (that is :meth:`abandon`'s job).
        """
        with self._lock:
            self.dead = True

    def abandon(self) -> None:
        """Mark dead and resolve every in-flight op's future to ``None``."""
        with self._lock:
            self.dead = True
            pending = list(self._pending.values())
            self._pending.clear()
            self.outstanding = 0
        for fut in pending:
            if not fut.done():
                fut.set_result(None)  # None -> PeerLost at the call site

    # ------------------------------------------------------------------ #
    # ops                                                                 #
    # ------------------------------------------------------------------ #

    def send(self, op: str, body: dict, on_reply=None) -> Future:
        """Write one op without waiting; the future of its reply.

        The future resolves to the reply's ``(kind, body, frame payload
        bytes)``, or to ``None`` if the peer is lost first.
        ``on_reply(future)`` is attached before the op is written, so it
        runs on the thread that resolves the future: the reader, as the
        reply lands. Raises :class:`PeerLost` if the peer is already gone
        or the write fails.
        """
        fut: Future = Future()
        if on_reply is not None:
            fut.add_done_callback(on_reply)
        with self._lock:
            if self.dead:
                raise PeerLost(self.name)
            self._seq += 1
            seq = self._seq
        frame = encode_frame(op_doc(op, seq, body))
        with self._lock:
            if self.dead:
                raise PeerLost(self.name)
            self._pending[seq] = fut
            self.calls += 1
            self.outstanding += 1
            self.depth.record(float(self.outstanding))
        try:
            with self._wlock:
                self.sock.sendall(frame)
        except OSError:
            # a worker that answers ``fail`` then closes can refuse this
            # write before the reader has read that ``fail``: the reader
            # handles what the peer sent before it went, then the ops
            # still in flight are lost
            if self._reader.is_alive() and threading.current_thread() is not self._reader:
                self._reader.join(self.liveness_timeout)
            self.abandon()
            raise PeerLost(self.name) from None
        return fut

    def await_reply(self, fut: Future, op: str) -> tuple[str, dict, int]:
        """Block for the reply ``fut`` stands for (an ``op`` op): its
        kind, its body and its frame's payload size in bytes."""
        try:
            answer = fut.result(timeout=self.liveness_timeout)
        except FutureTimeout:
            # alive but wedged: a dead peer would have EOFed the reader;
            # surface the stall instead of hanging forever
            raise MeshError(
                f"mesh worker {self.name!r} stopped answering {op!r}"
            ) from None
        if answer is None:
            raise PeerLost(self.name)
        if answer[0] == "fail":
            raise _failed(self.name, op, answer[1])
        return answer

    def exchange(self, op: str, body: dict) -> tuple[str, dict, int]:
        """Send a control op and block for its reply (see
        :meth:`await_reply`)."""
        return self.await_reply(self.send(op, body), op)

    def call(self, op: str, body: dict) -> dict:
        """:meth:`exchange`, returning only the reply body."""
        return self.exchange(op, body)[1]

    def shutdown(self) -> None:
        """Polite goodbye if possible, then tear the connection down."""
        if not self.dead:
            try:
                with self._wlock:
                    self.sock.sendall(encode_frame(goodbye_doc("mesh closing")))
            except OSError:
                pass
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        if self._reader.is_alive() and self._reader is not threading.current_thread():
            self._reader.join(timeout=5.0)
        self.abandon()


class _Link(NamedTuple):
    """One checkpoint of a shard's chain as the coordinator keeps it:
    the head of its snapshot reply, checked, and the document's text."""

    #: the checkpoint id the cut drew, which the head carried
    checkpoint: int
    #: the checkpoint a delta chains onto; None for a base
    parent: int | None
    #: the document's JSON text as the worker made it, never parsed here
    text: str


class _Slice(NamedTuple):
    """One :meth:`MeshCoordinator._send`: what it read in one step under
    the state lock, and the ops it wrote."""

    #: the family's owner, which every op went to
    peer: MeshPeer
    #: the family's key table; every key is installed on ``peer``
    keys: list
    #: the send cursor after the slice: every row before it is on its
    #: way to ``peer`` (or was sent before)
    stop: int
    #: the family's failover epoch when the slice was taken
    epoch: int
    #: ``(op, future)`` for each op written
    posted: list


class MeshCoordinator:
    """Shard families on socket peers, each family's slices sent in line.

    Parameters
    ----------
    region, shards, grid_nx, epsilon, budget_capacity, batch_size, seed:
        Same meaning as on
        :class:`~repro.service.engine.ShardedAssignmentEngine`; shard
        seeds derive per routing key (:func:`~repro.utils.keyed_shard_seed`)
        so mesh and engine grow bit-identical shard streams.
    expected_workers:
        Peers :meth:`start` waits for before placing families. Workers
        may keep joining later; they receive families only on failover.
    chunk_size, checkpoint_every:
        Dispatch batch size and the period (in events, mesh-wide) at
        which every family gets a checkpoint cut; ``0`` disables
        periodic checkpoints (failover then replays from stream start).
    rebase_every:
        Delta-chain length cap. Once a shard's last base checkpoint has
        this many deltas chained onto it, the next cut requests a fresh
        base (rebase) instead of another delta; ``0`` makes every cut a
        full snapshot.
    balancer:
        A :class:`~repro.cluster.balancer.BalancerConfig` to split hot
        cells and migrate hot families between peers, or ``None`` to
        leave placement static.
    host, port:
        Listen address; port ``0`` picks a free port (see ``address``).
    """

    def __init__(
        self,
        region: Box,
        shards: tuple[int, int] = (2, 2),
        *,
        expected_workers: int = 2,
        grid_nx: int = 12,
        epsilon: float = 0.5,
        budget_capacity: float = 2.0,
        batch_size: int = 256,
        chunk_size: int = 256,
        checkpoint_every: int = 8192,
        rebase_every: int = 8,
        balancer: BalancerConfig | None = None,
        seed: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        liveness_timeout: float = 120.0,
        handshake_timeout: float = 10.0,
        tracer=None,
    ) -> None:
        if expected_workers < 1:
            raise ValueError(f"need at least one worker, got {expected_workers}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 disables)")
        if rebase_every < 0:
            raise ValueError("rebase_every must be >= 0 (0 = always full)")
        if not isinstance(seed, int):
            raise ValueError(f"seed must be an int (keyed shard seeding), got {seed!r}")
        from ..service.sharding import ShardMap

        self.shard_map = ShardMap(region, *shards)
        self.router = ClusterRouter(self.shard_map)
        self.expected_workers = int(expected_workers)
        self.grid_nx = grid_nx
        self.epsilon = epsilon
        self.budget_capacity = budget_capacity
        self.batch_size = batch_size
        self.chunk_size = chunk_size
        self.checkpoint_every = checkpoint_every
        self.rebase_every = int(rebase_every)
        self.seed = seed
        self.host = host
        self.port = port
        self.liveness_timeout = liveness_timeout
        self.handshake_timeout = handshake_timeout

        self._state = threading.RLock()
        self._wake = threading.Condition(self._state)
        self._journal = FamilyJournal(self.router)
        families = range(self.shard_map.n_shards)
        #: per family: taking a slice and writing it are one step, so
        #: the family's slices reach its owner in journal order
        self._send_locks = {fam: threading.Lock() for fam in families}
        #: family -> journal position before which the current owner has
        #: answered every row (rewound with the send cursor on failover)
        self._acked = dict.fromkeys(families, 0)  # guarded-by: _state, _wake
        #: family -> journal position before which every task row's
        #: outcome has been recorded (never rewound)
        self._answered = dict.fromkeys(families, 0)  # guarded-by: _state, _wake
        #: family -> how often it was rewound onto a new owner: a reply to
        #: a slice taken before the last rewind acknowledges nothing
        self._epochs = dict.fromkeys(families, 0)  # guarded-by: _state, _wake
        #: task id -> its worker (or None) until its window takes it
        self._results: dict[int, int | None] = {}  # guarded-by: _state, _wake
        #: distinct tasks whose outcome has come back
        self.tasks_answered = 0  # guarded-by: _state, _wake
        #: family id -> peer name
        self.ownership: dict[int, str] = {}  # guarded-by: _state, _wake
        #: shard key -> the peer it is created or restored on
        self._installed: dict[str, str] = {}  # guarded-by: _state, _wake
        self._specs: dict[str, dict] = {}  # guarded-by: _state, _wake
        #: key -> [base, delta, ...] chain of snapshot texts (see
        #: cluster.snapshot), each beside the checkpoint id it carries
        self._checkpoints: dict[str, list[_Link]] = {}  # guarded-by: _state, _wake
        self._ckpt_seq = 0  # guarded-by: _state, _wake
        self._peers: dict[str, MeshPeer] = {}  # guarded-by: _state, _wake
        self._join_order: list[str] = []  # guarded-by: _state, _wake
        self._alive: set[str] = set()  # guarded-by: _state, _wake
        self._failure: BaseException | None = None  # guarded-by: _state, _wake
        self._events_since_checkpoint = 0  # guarded-by: _state, _wake
        self.failovers = 0  # guarded-by: _state, _wake
        self.rejected_handshakes = 0  # guarded-by: _state, _wake
        self._balancer = (  # guarded-by: _state, _wake
            HotShardBalancer(balancer) if balancer else None
        )
        #: family -> destination of a migration scheduled but not run
        self._moving: dict[int, str] = {}  # guarded-by: _state, _wake
        self.migrations = 0  # guarded-by: _state, _wake
        self.cell_splits = 0  # guarded-by: _state, _wake

        self._scheduler = PipelineScheduler(name="repro-mesh")
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        self.address: tuple[str, int] | None = None
        self._started = False  # guarded-by: _state, _wake
        self._closed = False  # guarded-by: _state, _wake

        # telemetry reservoirs (exact counts/means, bounded samples),
        # re-homed on a MetricsRegistry: the registry holds views of the
        # same reservoir objects, so checkpoint/telemetry bit-exactness
        # is untouched while snapshot() reads everything in one place
        self.tracer = tracer
        self.registry = MetricsRegistry()
        # checkpoint sizes are each snapshot reply's whole frame payload
        # (the head and the escaped text included), as read
        self._snapshot_bytes = self.registry.adopt_histogram(
            "mesh.checkpoint.snapshot_bytes", SampleReservoir()
        )
        self._checkpoint_s = self.registry.adopt_histogram(
            "mesh.checkpoint.seconds", SampleReservoir()
        )
        self._delta_bytes = self.registry.adopt_histogram(
            "mesh.checkpoint.delta_bytes", SampleReservoir()
        )
        # the gauge closes over the dict (never rebound), not over self:
        # the registry it lives in must not make the coordinator a cycle
        checkpoints = self._checkpoints
        self.registry.gauge_fn(
            "mesh.checkpoint.chain_len",
            lambda: max((len(c) for c in checkpoints.values()), default=0),
        )
        self.registry.gauge_fn(
            "runtime.scheduler.key_depth", self._scheduler.key_depths
        )

        # test hooks, called outside coordinator locks: with the lost
        # peer's name once its families are reassigned, and with each key
        # of a cut once its snapshot op is posted, before its reply is
        # read (off the family's send lock, on the scheduler thread
        # running the cut) — failover tests SIGKILL from here
        self._test_on_failover = None
        self._test_mid_checkpoint = None

    # ------------------------------------------------------------------ #
    # lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def listen(self) -> tuple[str, int]:
        """Open the listener (idempotent); returns the bound address."""
        with self._state:
            if self._closed:
                raise MeshError("coordinator was closed; create a new one")
            if self._listener is None:
                self._listener = socket.create_server((self.host, self.port))
                self.address = self._listener.getsockname()[:2]
                self._acceptor = threading.Thread(
                    target=self._accept_loop, name="mesh-accept", daemon=True
                )
                self._acceptor.start()
            return self.address

    def start(self) -> None:
        """Wait for the expected peers, place families, build all shards.

        Untimed setup: HST construction happens before any measured
        serving window.
        """
        if self._started:
            self._check_failure()  # a closed or failed mesh refuses work
            return
        self.listen()
        with self._wake:
            ok = self._wake.wait_for(
                lambda: len(self._alive) >= self.expected_workers
                or self._failure is not None,
                timeout=self.liveness_timeout,
            )
            self._check_failure_locked()
            if not ok:
                raise MeshError(
                    f"only {len(self._alive)} of {self.expected_workers} "
                    "mesh workers joined in time"
                )
            order = [n for n in self._join_order if n in self._alive]
            n_fams = self.shard_map.n_shards
            # a rejoining worker that advertised families keeps them ...
            for name in order:
                for fam in self._peers[name].families:
                    if 0 <= fam < n_fams and fam not in self.ownership:
                        self.ownership[fam] = name
            # ... the rest spread round-robin in join order
            for fam in range(n_fams):
                self.ownership.setdefault(fam, order[fam % len(order)])
            for key in self.router.keys():
                self._specs[key] = self._spec_for(key)
            self._started = True
        # every peer builds its families at once; then wait for them all
        builds = []
        for fam in sorted(self.ownership):
            with self._send_locks[fam]:
                builds.append(self._send(fam))
        for sent in builds:
            self._await_posted(sent)
        # a peer lost meanwhile left replay jobs behind this barrier
        self._await(self._scheduler.submit(None, lambda: None), "shard builds")
        self._check_failure()

    def close(self) -> None:
        """Say goodbye to every peer and stop the dispatch machinery."""
        with self._state:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
            peers = list(self._peers.values())
            listener = self._listener
        if listener is not None:
            # close() alone does not wake an acceptor parked in accept();
            # shutdown does. The listener may already be shut down.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            listener.close()  # acceptor's accept() raises and exits
        for peer in peers:
            peer.shutdown()
        self._scheduler.shutdown(wait=True)
        if self._acceptor is not None:
            self._acceptor.join(timeout=5.0)
        if self.tracer is not None:
            self.tracer.flush()

    def __enter__(self) -> "MeshCoordinator":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _spec_for(self, key: str) -> dict:
        return shard_spec(
            self.router.shard_box(key),
            grid_nx=self.grid_nx,
            epsilon=self.epsilon,
            budget_capacity=self.budget_capacity,
            seed=keyed_shard_seed(self.seed, key),
        )

    # ------------------------------------------------------------------ #
    # peer admission                                                      #
    # ------------------------------------------------------------------ #

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._handshake, args=(conn,), daemon=True
            ).start()

    def _handshake(self, conn: socket.socket) -> None:
        # mirror the worker side: op dispatch is latency-bound round trips
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        conn.settimeout(self.handshake_timeout)
        decoder = FrameDecoder()
        try:
            frames: list[dict] = []
            while not frames:
                data = conn.recv(65536)
                if not data:
                    conn.close()
                    return
                frames = decoder.feed(data)
            api_version, client, features = parse_hello(frames[0])
            role = peer_role(features)
            if role != MESH_WORKER_ROLE:
                raise ValidationFailed(
                    "this endpoint coordinates mesh workers; hello "
                    f"advertises role {role!r}"
                )
        except OSError:
            conn.close()
            return
        except Exception as exc:
            # junk hello: answer the structured taxonomy, then close —
            # the same discipline as the gateway's handshake
            with self._state:
                self.rejected_handshakes += 1
            try:
                conn.sendall(
                    handshake_frame(to_wire(map_exception(exc).info()))
                )
            except OSError:
                pass
            conn.close()
            return
        conn.settimeout(None)
        with self._wake:
            if self._closed:
                conn.close()
                return
            name = f"w{len(self._join_order)}"
            peer = MeshPeer(
                name,
                conn,
                features,
                label=client,
                liveness_timeout=self.liveness_timeout,
            )
            self._peers[name] = peer
            self._join_order.append(name)
            session = len(self._join_order) - 1
            self.registry.adopt_histogram(
                "mesh.peer.dispatch_depth", peer.depth, peer=name
            )
        # The welcome must hit the wire before the peer is published as
        # alive — publishing first lets a dispatch thread race its
        # `configure` ahead of the welcome, and the worker (rightly)
        # treats a welcome-less peer as not a coordinator.
        try:
            conn.sendall(
                handshake_frame(
                    welcome_doc(
                        api_version,
                        "repro.mesh.coordinator",
                        session,
                        features=(role_feature(MESH_WORKER_ROLE),),
                    )
                )
            )
        except OSError:
            peer.abandon()
            conn.close()
            return
        peer.start()
        with self._wake:
            if self._closed or peer.dead:
                return
            self._alive.add(name)
            self._wake.notify_all()

    # ------------------------------------------------------------------ #
    # event-driven operation                                              #
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """The simulation clock: the latest event the journal accepted."""
        with self._state:
            return self._journal.now

    def ingest(self, ids, locations, is_task, times) -> dict[int, int]:
        """Journal a run of arrivals and send it to the peers; its marks.

        Row ``i`` is a task arrival when ``is_task[i]`` is true (``ids[i]``
        is then its task id), else a worker arrival; ``times`` is
        parallel. The run is validated once as whole columns
        (:func:`~repro.geometry.points.as_points`, ids that are ints,
        finite times), then journaled in chunks of ``chunk_size`` rows,
        each routed and packed in one pass and sent to its families'
        owners before the next is absorbed.

        Returns as soon as everything is journaled and sent, with the
        run's marks: each family it touched, mapped to the journal
        position one past its last row there. Outcomes stream back
        through the peer readers; :meth:`result_of` waits for them. A
        worker or task id the mesh has seen before, or an id outside
        int64, raises ``ValueError`` at its row: the rows before it stay
        journaled and neither it nor any after it is, and the clock
        stays at the latest accepted row; it raises once the rows before
        it are answered, their outcomes dropped as the engine's are.
        Raises promptly if the mesh has already failed.
        """
        self.start()
        if not len(ids) == len(locations) == len(is_task) == len(times):
            raise ValueError("need one id, location, kind and time per row")
        if not all(t is int or issubclass(t, np.integer) for t in set(map(type, ids))):
            raise ValueError("mesh event ids must be ints")
        times = np.asarray(times, dtype=np.float64)
        if not np.isfinite(times).all():
            raise ValueError("mesh event times must be finite")
        locations = as_points(locations)
        marks: dict[int, int] = {}
        size = self.chunk_size
        for lo in range(0, len(ids), size):
            hi = lo + size
            refused = self._dispatch(
                ids[lo:hi], locations[lo:hi], is_task[lo:hi], times[lo:hi], marks
            )
            if refused is not None:
                stop = lo + refused.row
                self.result_of(marks, [i for i, t in zip(ids[:stop], is_task[:stop]) if t])
                raise refused
        return marks

    def _dispatch(self, ids, locs, is_task, times, marks) -> RefusedRow | None:
        """Journal one chunk, add its families' ends to ``marks`` and
        send their slices; the chunk's refused row, if any."""
        self._check_failure()
        # the caller's span (e.g. the gateway's scheduler.execute, live on
        # this thread) parents the dispatch span of every slice it sends
        ctx = current_context() if self.tracer is not None else None
        with self._state:
            balancer = self._balancer
            touched, refused = self._journal.absorb(
                ids, locs, is_task, times,
                observe=balancer.observe if balancer else None,
            )
            marks.update((fam, self._journal.end(fam)) for fam in touched)
            self._events_since_checkpoint += len(ids)
            cut = bool(
                self.checkpoint_every
                and self._events_since_checkpoint >= self.checkpoint_every
            )
            if cut:
                self._events_since_checkpoint = 0
            # the balancer decides at the chunk end where its window
            # fills, so a seeded stream splits at the same event
            moves = self._rebalance() if balancer and balancer.window_full else []
        for fam in sorted(touched):
            with self._send_locks[fam]:
                self._send(fam, ctx)
        if cut:
            # one cut per family, keyed by it: a cut waits only behind
            # its own family's cuts and migrations, never a delivery
            for fam in range(self.shard_map.n_shards):
                self._scheduler.submit(fam, self._job, self._cut, fam)
        for fam, dst in moves:
            self._scheduler.submit(fam, self._job, self._migrate, fam, dst)
        return refused

    def _rebalance(self) -> list[tuple[int, str]]:  # guarded-by: _state
        """Apply the balancer's verdict on the window that just closed.

        The caller holds ``_state``. A split re-lattices the cell at once:
        later events route to its sub-shards, which the next send to the
        family creates. A migration comes back as ``(family,
        destination)`` for the caller to schedule; the balancer sees it
        as done, so its next verdict does not depend on how far the job
        has got.
        """
        owners = [n for n in self._join_order if n in self._alive]
        placement = {**self.ownership, **self._moving}
        moves = []
        for action in self._balancer.decide(self.router, placement, owners):
            if action[0] == "split":
                split_nx = self._balancer.config.split_nx
                for key in self.router.split(action[1], split_nx):
                    self._specs[key] = self._spec_for(key)
                self.cell_splits += 1
            else:
                _, fam, dst = action
                self._moving[fam] = dst
                moves.append((fam, dst))
        return moves

    def result_of(self, marks: dict[int, int], task_ids) -> list[int | None]:
        """Block until a window is answered; its tasks' outcomes, in order.

        ``marks`` is what :meth:`ingest` returned for the window and
        ``task_ids`` are its task ids. One wait, until every family in
        ``marks`` is acknowledged up to its mark; then the outcomes are
        taken out of the table: each task's worker id, or None.
        """
        acked = self._acked

        def answered() -> bool:
            return all(acked[fam] >= mark for fam, mark in marks.items())

        with self._wake:
            if not self._wake.wait_for(
                lambda: answered() or self._failure is not None or self._closed,
                timeout=self.liveness_timeout,
            ):
                raise MeshError("timed out waiting for a window's outcomes")
            if not answered():
                self._check_failure_locked()
            results = self._results
            return [results.pop(tid) for tid in task_ids]

    def flush(self) -> None:
        """Deliver everything journaled so far and flush every cohort."""
        self.start()
        self._await(
            self._scheduler.submit(None, self._guard, self._flush_job),
            "flush barrier",
        )

    def report(self, wall_seconds: float = float("nan")) -> ServiceReport:
        """Flush every cohort, then merge every peer's shard metrics into
        one service report."""
        self.start()
        merged = self._await(
            self._scheduler.submit(None, self._guard, self._report_job),
            "report barrier",
        )
        return build_report(
            (
                {**merged[k], "snapshot": ShardSnapshot(**merged[k]["snapshot"])}
                for k in sorted(merged, key=key_order)
            ),
            wall_seconds=wall_seconds,
            sim_duration=self.now,
        )

    # ------------------------------------------------------------------ #
    # sending slices                                                      #
    # ------------------------------------------------------------------ #

    def _send(self, fam: int, ctx=None) -> _Slice:
        """Send ``fam``'s pending rows to its owner as one ``events`` op;
        the caller holds the family's send lock.

        In one step under the state lock it reads the owner, plans the
        shards the owner lacks (restored from their chains, or built from
        spec: after a failover, a migration or a split) and takes the
        rows, so a new owner gets its restore, and the replay from the
        checkpoint base, before any newer slice. The ops are written in
        that order and not waited for: :meth:`_acknowledge` handles the
        ``events`` reply on the peer's reader thread. A peer found dead
        is failed over and its rows are left to the replay. Raises
        :class:`MeshError` if the mesh has failed or closed.
        """
        with self._state:
            self._check_failure_locked()
            peer = self._peers[self.ownership[fam]]
            chains = self._checkpoints
            plan = [
                ("load", {"key": key, "chain": [link.text for link in chains[key]]})
                if key in chains
                else ("create", {"key": key, "spec": self._specs[key]})
                for key in self.router.family_keys(fam)
                if self._installed.get(key) != peer.name
            ]
            for _op, body in plan:
                self._installed[body["key"]] = peer.name
            keys, rows = self._journal.take(fam)
            stop = self._journal.sent(fam)
            epoch = self._epochs[fam]
        posted: list[tuple[str, Future]] = []
        try:
            with peer.config_lock:
                if not peer.configured:
                    body = {"batch_size": self.batch_size}
                    posted.append(("configure", peer.send(
                        "configure", body,
                        functools.partial(self._checked, peer.name, "configure"),
                    )))
                    peer.configured = True
            for op, body in plan:
                posted.append((op, peer.send(
                    op, body, functools.partial(self._checked, peer.name, op)
                )))
            if len(rows):
                body = {"keys": keys, "rows": rows}
                trace = None
                if ctx is not None:
                    # the dispatch span runs from this send to the reply:
                    # its context rides the op's JSON tail and the worker
                    # hands its execute span back in the reply's
                    span = ctx.child()
                    body["trace"] = span.to_dict()
                    # a span timestamp, never decision logic
                    trace = (ctx, span, time.time(), time.perf_counter())  # lint: ok RL103
                posted.append(("events", peer.send("events", body, functools.partial(
                    self._acknowledge, fam, epoch, stop - len(rows), rows,
                    peer.name, trace,
                ))))
        except PeerLost:
            self._peer_lost(peer.name)
        return _Slice(peer, keys, stop, epoch, posted)

    def _acknowledge(self, fam, epoch, start, rows, peer, trace, fut) -> None:
        """Handle the reply to one ``events`` slice, on the peer's reader.

        Records the outcome of each task row at or past the family's
        answered position (first write wins: a replayed row's outcome is
        dropped) and, unless the family was rewound since the slice was
        taken, advances its acknowledged cursor past the slice. Takes
        only the state lock, under which nothing is ever sent.
        """
        try:
            answer = fut.result()
            if answer is None:
                self._peer_lost(peer)  # the replay answers these rows
                return
            kind, reply, _ = answer
            if kind == "fail":
                raise _failed(peer, "events", reply)
            if kind != "events_reply":
                raise MeshError(
                    f"mesh worker {peer!r} answered an events op with a "
                    f"{kind!r}, not an events_reply"
                )
            tasks = rows["id"][rows["kind"] == 1]
            workers = reply.get("workers")
            if not isinstance(workers, list) or len(workers) != len(tasks):
                raise MeshError(
                    f"malformed events reply from {peer!r}: expected "
                    f"{len(tasks)} workers for its task rows"
                )
            if trace is not None:
                parent, span, start_wall, start_perf = trace
                self.tracer.record(
                    "mesh.dispatch",
                    parent,
                    start_s=start_wall,
                    duration_s=time.perf_counter() - start_perf,
                    attrs={"family": fam, "peer": peer, "n_rows": len(rows)},
                    context=span,
                )
                spans = reply.get("spans")
                if isinstance(spans, list):
                    for record in spans:
                        self.tracer.adopt(record)
            stop = start + len(rows)
            with self._wake:
                answered = self._answered[fam]
                if stop > answered:
                    # rows before the answered position are a replay
                    seen = int(np.count_nonzero(rows["kind"][: max(answered - start, 0)]))
                    fresh = tasks[seen:].tolist()
                    results = self._results
                    for tid, wid in zip(fresh, workers[seen:]):
                        results[tid] = None if wid is None else int(wid)
                    self.tasks_answered += len(fresh)
                    self._answered[fam] = stop
                if self._epochs[fam] == epoch:
                    self._acked[fam] = max(self._acked[fam], stop)
                self._wake.notify_all()
        except Exception as exc:
            self._fail(exc)

    def _checked(self, peer: str, op: str, fut: Future) -> None:
        """Reply handler for an op nobody waits on (``configure``,
        ``create``, ``load``): a failed one fails the mesh, a lost peer
        is failed over."""
        answer = fut.result()
        if answer is None:
            self._peer_lost(peer)
        elif answer[0] == "fail":
            self._fail(_failed(peer, op, answer[1]))

    def _await_posted(self, sent: _Slice) -> None:
        """Wait for the answer to every op ``sent`` posted. A lost peer
        is failed over; the replay answers for its ops."""
        try:
            for op, fut in sent.posted:
                sent.peer.await_reply(fut, op)
        except PeerLost:
            self._peer_lost(sent.peer.name)

    def _replay(self, fam: int) -> None:
        """Restore ``fam`` on its new owner and replay its journal from
        the checkpoint base (a family job after a failover), then wait
        for the answers. Nothing is sent when another thread's send got
        there first."""
        with self._send_locks[fam]:
            sent = self._send(fam)
        self._await_posted(sent)

    # ------------------------------------------------------------------ #
    # barriers                                                            #
    # ------------------------------------------------------------------ #

    def _settle(self) -> None:
        """Send every family's pending rows (barrier prelude): the
        barrier's ops then queue behind them on every peer."""
        for fam in range(self.shard_map.n_shards):
            with self._send_locks[fam]:
                self._send(fam)

    def _flush_job(self) -> None:
        while True:
            self._settle()
            try:
                # post-settle every family owner is configured; a peer
                # still unconfigured owns nothing and has nothing to flush
                for peer in self._alive_peers():
                    if peer.configured:
                        peer.call("flush", {})
                return
            except PeerLost as lost:
                self._peer_lost(lost.peer)

    def _report_job(self) -> dict[str, dict]:
        while True:
            self._settle()
            try:
                # unconfigured peers own no families (see _flush_job)
                peers = [p for p in self._alive_peers() if p.configured]
                for peer in peers:
                    peer.call("flush", {})
                merged: dict[str, dict] = {}
                for peer in peers:
                    reply = peer.call("report", {})
                    rows = reply.get("report")
                    if not isinstance(rows, dict):
                        raise MeshError(
                            f"malformed report reply from {peer.name!r}"
                        )
                    merged.update(rows)
                return merged
            except PeerLost as lost:
                self._peer_lost(lost.peer)

    # ------------------------------------------------------------------ #
    # checkpoint cuts                                                     #
    # ------------------------------------------------------------------ #

    def _checkpoint_reqs(self, keys) -> dict[str, dict]:  # guarded-by: _state
        """Per-key snapshot request bodies for one cut attempt.

        The caller holds ``_state`` (ids are drawn from ``_ckpt_seq``).
        A key with a bounded chain gets a delta request against its tip;
        a key past ``rebase_every`` (or with no chain yet) gets a base.
        Each retry attempt draws *fresh* checkpoint ids — a worker that
        already answered the aborted attempt keeps its parent cursor, so
        re-asking the same parent with a new id is always answerable.
        """
        reqs: dict[str, dict] = {}
        for key in keys:
            self._ckpt_seq += 1
            chain = self._checkpoints.get(key)
            if chain and len(chain) <= self.rebase_every:
                reqs[key] = {
                    "mode": "delta",
                    "checkpoint": self._ckpt_seq,
                    "parent": chain[-1].checkpoint,
                }
            else:
                reqs[key] = {"mode": "base", "checkpoint": self._ckpt_seq}
        return reqs

    def _absorb_snapshot(self, key: str, link: _Link, size: float) -> None:  # guarded-by: _state
        """Chain one snapshot whose reply frame carried ``size`` payload
        bytes; the caller holds ``_state``.

        A delta appends to the chain (its parent must equal the tip — a
        mismatch means lineage diverged and restoring would be silently
        wrong, so fail loud); a base rebases the chain to itself. The
        worker may answer a delta request with a base (e.g. it lost the
        parent cursor); that is just an early rebase.
        """
        chain = self._checkpoints.get(key)
        if link.parent is not None:
            if not chain or chain[-1].checkpoint != link.parent:
                raise MeshError(
                    f"checkpoint lineage diverged for shard {key!r}"
                )
            chain.append(link)
            self._delta_bytes.record(size)
        else:
            if chain is not None:
                self.registry.counter("mesh.checkpoint.rebase_total")
            self._checkpoints[key] = [link]
            self._snapshot_bytes.record(size)

    @staticmethod
    def _snapshot(peer: MeshPeer, fut: Future, key: str, req: dict) -> tuple[_Link, float]:
        """One shard's snapshot reply as a chain link, its head checked
        against the request ``req``, and the reply frame's payload size
        in bytes, as the peer reader decoded it (nothing is parsed or
        encoded again to measure it).

        The head must name the shard, the checkpoint id the cut drew and
        the kind of its text; a delta must answer a delta request and
        chain onto the parent it named. Raises :class:`MeshError`
        otherwise.
        """
        _, reply, size = peer.await_reply(fut, "snapshot")
        kind, text = reply.get("kind"), reply.get("text")
        if (
            reply.get("key") != key
            or reply.get("checkpoint") != req["checkpoint"]
            or kind not in ("base", "delta")
            or type(text) is not str
        ):
            raise MeshError(
                f"malformed snapshot reply from {peer.name!r} for shard "
                f"{key!r}: expected the head and text of checkpoint "
                f"{req['checkpoint']!r}"
            )
        parent = None
        if kind == "delta":
            parent = req.get("parent")
            if parent is None or reply.get("parent") != parent:
                raise MeshError(
                    f"snapshot reply from {peer.name!r} for shard {key!r} "
                    f"chains onto {reply.get('parent')!r}, not the "
                    f"requested parent {parent!r}"
                )
        return _Link(req["checkpoint"], parent, text), float(size)

    def _cut(self, fam: int) -> str:
        """Checkpoint one family on its owner (a family job); the name of
        the peer the cut committed on.

        Under the family's send lock it sends what is pending (a replay
        after a failover), reads the send cursor and posts one snapshot
        op per shard, so the snapshots cover exactly the rows sent
        before them. It waits for the replies off the lock — slices sent
        meanwhile queue behind the snapshot ops — then chains them and
        truncates the journal at that position. A peer loss before the
        replies are in, or a failover of the family before the commit,
        commits nothing, and the cut runs again on the new owner, which
        first restores the previous chain and replays.
        """
        t0 = time.perf_counter()
        while True:
            with self._send_locks[fam]:
                sent = self._send(fam)
                with self._state:
                    reqs = self._checkpoint_reqs(sent.keys)
                try:
                    posted = [
                        (key, sent.peer.send("snapshot", {"key": key, **reqs[key]}))
                        for key in sent.keys
                    ]
                except PeerLost:
                    self._peer_lost(sent.peer.name)
                    continue
            try:
                snaps: dict[str, tuple[_Link, float]] = {}
                for key, fut in posted:
                    hook = self._test_mid_checkpoint
                    if hook is not None:
                        hook(key)
                    snaps[key] = self._snapshot(sent.peer, fut, key, reqs[key])
            except PeerLost:
                self._peer_lost(sent.peer.name)
                continue
            with self._state:
                if self._epochs[fam] != sent.epoch:
                    continue  # failed over since the snapshot ops
                for key in sent.keys:
                    self._absorb_snapshot(key, *snaps[key])
                dropped = self._journal.truncate(fam, sent.stop)
            # counts journal rows: one per event
            self.registry.counter("mesh.journal.compacted_ops", dropped)
            self._checkpoint_s.record(time.perf_counter() - t0)
            return sent.peer.name

    def _migrate(self, fam: int, dst: str) -> None:
        """Move one family to peer ``dst`` (a family job).

        A :meth:`_cut` on the current owner; then, under the family's
        send lock, an ownership flip with the cursors rewound as on
        failover, and the restore and replay on ``dst``; then a drop of
        the family's shards on the old owner, whose ops for the family
        all went out before the flip. A failover that moved the family
        first (or took ``dst``) wins: the move is dropped, and a cut that
        completed stands as an ordinary checkpoint.
        """
        try:
            with self._state:
                src = self.ownership[fam]
                if src == dst or dst not in self._alive:
                    return
            if self._cut(fam) != src:
                return
            with self._send_locks[fam]:
                with self._state:
                    if self.ownership[fam] != src or dst not in self._alive:
                        return
                    old = self._peers[src]
                    keys = [
                        key
                        for key in self.router.family_keys(fam)
                        if self._installed.get(key) == src
                    ]
                    for key in keys:
                        del self._installed[key]  # dropped on src below
                    self.ownership[fam] = dst
                    self.migrations += 1
                    self._rewind(fam)
                sent = self._send(fam)
        finally:
            with self._state:
                if self._moving.get(fam) == dst:
                    del self._moving[fam]
        try:
            for key in keys:
                old.call("drop", {"key": key})
        except PeerLost:
            self._peer_lost(src)
        self._await_posted(sent)

    # ------------------------------------------------------------------ #
    # failover                                                            #
    # ------------------------------------------------------------------ #

    def _rewind(self, fam: int) -> None:  # guarded-by: _state
        """Point ``fam`` at its checkpoint base for a new owner; the
        caller holds ``_state``. The send and acknowledged cursors go
        back to the base, and replies to slices taken before acknowledge
        nothing."""
        self._journal.rewind(fam)
        self._acked[fam] = self._journal.sent(fam)
        self._epochs[fam] += 1

    def _peer_lost(self, name: str) -> None:
        """Reassign a dead peer's families; idempotent per peer.

        Each family goes to the surviving peer with the fewest families
        (ties break by join order) and is rewound to its checkpoint base
        (:meth:`_rewind`); a replay job on the family's key restores it
        there and replays everything since. Losing every peer fails the
        mesh. Whoever sees a peer lost calls this, on any thread, with no
        coordinator lock held.
        """
        moved: list[int] = []
        hook = None
        with self._wake:
            peer = self._peers.get(name)
            if peer is not None:
                # under the *peer's* lock, not just _state: send() checks
                # dead under peer._lock and must not race this flip
                peer.mark_dead()
            if (
                name in self._alive
                and self._failure is None
                and not self._closed
            ):
                self._alive.discard(name)
                self.failovers += 1
                survivors = [n for n in self._join_order if n in self._alive]
                if not survivors:
                    self._fail(
                        MeshError("every mesh worker is gone; nothing to fail over to")
                    )
                else:
                    load = {s: 0 for s in survivors}
                    for owner in self.ownership.values():
                        if owner in load:
                            load[owner] += 1
                    rank = {n: i for i, n in enumerate(self._join_order)}
                    for fam in sorted(
                        f for f, o in self.ownership.items() if o == name
                    ):
                        dst = min(survivors, key=lambda s: (load[s], rank[s]))
                        load[dst] += 1
                        self.ownership[fam] = dst
                        self._rewind(fam)
                        moved.append(fam)
                    hook = self._test_on_failover
                self._wake.notify_all()
        if peer is not None:
            peer.abandon()
        if hook is not None:
            hook(name)
        try:
            for fam in moved:
                self._scheduler.submit(fam, self._job, self._replay, fam)
        except RuntimeError:
            pass  # closing: the scheduler takes no more work

    # ------------------------------------------------------------------ #
    # plumbing                                                            #
    # ------------------------------------------------------------------ #

    def _alive_peers(self) -> list[MeshPeer]:
        with self._state:
            return [self._peers[n] for n in self._join_order if n in self._alive]

    def _job(self, fn, *args) -> None:
        """Family-job wrapper: an error fails the coordinator."""
        try:
            fn(*args)
        except Exception as exc:
            self._fail(exc)

    def _guard(self, fn, *args):
        """Barrier wrapper: a failed barrier poisons the coordinator."""
        try:
            return fn(*args)
        except Exception as exc:
            self._fail(exc)
            raise

    def _fail(self, exc: BaseException) -> None:
        with self._wake:
            if self._failure is None and not self._closed:
                self._failure = exc
            self._wake.notify_all()

    def _check_failure(self) -> None:
        with self._state:
            self._check_failure_locked()

    def _check_failure_locked(self) -> None:
        if self._failure is not None:
            raise MeshError(f"the mesh has failed: {self._failure}") from self._failure
        if self._closed:
            raise MeshError("the mesh coordinator is closed")

    def _await(self, fut: Future, what: str):
        try:
            return fut.result(timeout=self.liveness_timeout)
        except FutureTimeout:
            raise MeshError(f"timed out waiting for {what}") from None

    # ------------------------------------------------------------------ #
    # telemetry                                                           #
    # ------------------------------------------------------------------ #

    def telemetry(self) -> dict:
        """Coordinator health as one JSON-ready dict.

        Per-peer dispatch depth (outstanding ops sampled at every send),
        checkpoint sizes (reply payload bytes: ``snapshot_bytes`` for
        bases, ``delta_bytes`` for deltas, one sample per shard cut) and
        cut wall-times (``checkpoint_seconds``, one per family cut) from
        the reservoirs, plus the scheduler's live per-family queue depths.
        """
        with self._state:
            peers = {}
            for name in self._join_order:
                peer = self._peers[name]
                peers[name] = {
                    "label": peer.label,
                    "alive": name in self._alive,
                    "families": sorted(
                        f for f, o in self.ownership.items() if o == name
                    ),
                    "calls": peer.calls,
                    "dispatch_depth": summarize_reservoir(peer.depth),
                }
            return {
                "address": list(self.address) if self.address else None,
                "failovers": self.failovers,
                "rejected_handshakes": self.rejected_handshakes,
                "peers": peers,
                "snapshot_bytes": summarize_reservoir(self._snapshot_bytes),
                "delta_bytes": summarize_reservoir(self._delta_bytes),
                "checkpoint_seconds": summarize_reservoir(self._checkpoint_s),
                "scheduler": {
                    "submitted": self._scheduler.submitted,
                    "barriers": self._scheduler.barriers,
                    "key_depths": {
                        str(k): v
                        for k, v in self._scheduler.key_depths().items()
                    },
                },
            }
