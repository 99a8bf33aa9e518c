"""The mesh coordinator: worker peers on sockets, dispatch on keys.

:class:`MeshCoordinator` is the repo's distributed coordinator. It keeps
the engine's event contract (``process``/``flush``/``report``) but its
workers are independent processes — possibly on other machines —
that dialed in over the gateway wire and hold shard families behind
:mod:`repro.mesh.protocol` ops.

How it works:

* **no single dispatch lock.** Event chunks are absorbed into the
  :class:`~repro.cluster.dispatch.FamilyJournal` and then delivered by
  per-family jobs on a :class:`~repro.runtime.PipelineScheduler` — the
  same keyed-FIFO/barrier core the gateway schedules requests on.
  Different families flow to their peers concurrently; only flush and
  report are global barriers. Per-family FIFO plus the journal's
  contiguous-segment delivery keeps per-shard op order exactly the
  serial order, which is what the bit-exactness guarantee needs;
* **per-family checkpoint cuts.** Every ``checkpoint_every`` events the
  coordinator schedules one *cut* per family, keyed by that family: it
  settles the family, snapshots its shards, chains the replies and
  truncates its journal. Families share nothing, so a cut stalls only
  its own family's queue and the rest of the mesh keeps serving;
* **submit-time high-water marks.** ``process()`` keeps appending to the
  journal while earlier jobs are still in flight, so every family job
  carries the journal position captured when it was submitted and never
  delivers past it — a later flush cannot have its cohort cut points
  dragged forward by ops that arrived after it was requested. Barrier
  jobs take their marks when they *execute* (the scheduler has already
  drained everything submitted before them, so execution-time marks are
  exactly the pre-barrier stream);
* **failover is reassignment, not respawn.** The coordinator does not
  own worker processes; when a connection dies mid-stream the dead
  peer's families are handed to the surviving peer with the lightest
  load, restored from their last checkpoint snapshots (JSON-pure, they
  cross the wire unchanged) and replayed from the journal — snapshot
  restore plus replay is bit-deterministic. Duplicate task results from
  the dead peer deduplicate (first write wins). A second death during
  recovery just repeats the handling on the next survivor; only losing
  *every* peer is fatal;
* **hot-shard balancing** (``balancer=``). A
  :class:`~repro.cluster.balancer.HotShardBalancer` counts routed tasks
  per family and decides at the chunk end where its window fills. A
  *split* re-lattices a hot cell on the spot (later events route to its
  sub-shards, created lazily by the next delivery; the parent drains its
  old pool). A *migration* is that family's cut plus an ownership flip
  and a drop of the shards on the old peer; the next delivery restores
  them on the new peer from the chain, exactly as failover does. Only
  that family's queue waits.

Telemetry rides the existing reservoir machinery
(:class:`~repro.service.metrics.SampleReservoir`): per-peer dispatch
depth sampled at every op send, checkpoint snapshot sizes in encoded
bytes, and checkpoint wall-times, all summarized by :meth:`telemetry`
together with the scheduler's live per-family queue depths.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout

from ..api.errors import ValidationFailed, map_exception
from ..api.messages import to_wire
from ..cluster.balancer import (
    BalancerConfig,
    ClusterRouter,
    HotShardBalancer,
    key_order,
)
from ..cluster.dispatch import FamilyJournal
from ..cluster.worker import shard_spec
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
from ..obs.registry import MetricsRegistry
from ..obs.trace import current_context
from ..runtime import PipelineScheduler
from ..service.events import RequestQueue, TaskArrival, WorkerArrival
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


class MeshPeer:
    """One connected worker: a socket, a reader thread, seq-matched calls.

    ``call`` is thread-safe and may be issued from several family jobs at
    once — ops pipeline over the one socket (the worker serves them FIFO)
    and the reader thread matches replies back by ``seq``. Death, however
    it manifests (EOF, reset, a frame that fails to parse), resolves
    every in-flight call to :class:`PeerLost`.
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
                for doc in decoder.feed(data):
                    if is_gateway_doc(doc):
                        return  # the worker said goodbye
                    kind, seq, body = parse_reply(doc)
                    with self._lock:
                        fut = self._pending.pop(seq, None)
                    if fut is not None and not fut.done():
                        fut.set_result((kind, body))
        except Exception:
            # a peer whose stream cannot be parsed is as gone as one
            # whose socket died — there is no resynchronizing a framed
            # stream whose length prefix lied
            return
        finally:
            self.abandon()

    def mark_dead(self) -> None:
        """Flip ``dead`` under the peer lock.

        New :meth:`call` attempts fail fast from here on; in-flight
        calls are untouched (that is :meth:`abandon`'s job).
        """
        with self._lock:
            self.dead = True

    def abandon(self) -> None:
        """Mark dead and fail every in-flight call with :class:`PeerLost`."""
        with self._lock:
            self.dead = True
            pending = list(self._pending.values())
            self._pending.clear()
        for fut in pending:
            if not fut.done():
                fut.set_result(None)  # None -> PeerLost at the call site

    # ------------------------------------------------------------------ #
    # calls                                                               #
    # ------------------------------------------------------------------ #

    def call(self, op: str, body: dict) -> dict:
        """Send one op, block for its reply; the reply body on success."""
        with self._lock:
            if self.dead:
                raise PeerLost(self.name)
            self._seq += 1
            seq = self._seq
            fut: Future = Future()
            self._pending[seq] = fut
            self.calls += 1
            self.outstanding += 1
            self.depth.record(float(self.outstanding))
        try:
            frame = encode_frame(op_doc(op, seq, body))
            try:
                with self._wlock:
                    self.sock.sendall(frame)
            except OSError:
                self.abandon()
                raise PeerLost(self.name) from None
            try:
                answer = fut.result(timeout=self.liveness_timeout)
            except FutureTimeout:
                # alive but wedged: a dead peer would have EOFed the
                # reader; surface the stall instead of hanging forever
                raise MeshError(
                    f"mesh worker {self.name!r} stopped answering {op!r}"
                ) from None
            if answer is None:
                raise PeerLost(self.name)
            kind, reply = answer
            if kind == "fail":
                raise MeshError(
                    f"mesh worker {self.name!r} failed {op!r}: "
                    f"[{reply.get('code')}] {reply.get('message')}"
                )
            return reply
        finally:
            with self._lock:
                self._pending.pop(seq, None)
                self.outstanding -= 1

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


class MeshCoordinator:
    """Shard families on socket peers behind a pipelined dispatch core.

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
    dispatch_workers:
        Scheduler pool threads (``None`` = runtime default).
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
        dispatch_workers: int | None = None,
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
        #: family id -> peer name
        self.ownership: dict[int, str] = {}  # guarded-by: _state, _wake
        #: shard key -> the peer it is created or restored on
        self._installed: dict[str, str] = {}  # guarded-by: _state, _wake
        self._specs: dict[str, dict] = {}  # guarded-by: _state, _wake
        #: key -> [base doc, delta doc, ...] chain (see cluster.snapshot)
        self._checkpoints: dict[str, list[dict]] = {}  # guarded-by: _state, _wake
        self._ckpt_seq = 0  # guarded-by: _state, _wake
        self._results: dict[int, int | None] = {}  # guarded-by: _state, _wake
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

        self._scheduler = PipelineScheduler(
            max_workers=dispatch_workers, name="repro-mesh"
        )
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
        self._snapshot_bytes = self.registry.adopt_histogram(
            "mesh.checkpoint.snapshot_bytes", SampleReservoir()
        )
        self._checkpoint_s = self.registry.adopt_histogram(
            "mesh.checkpoint.seconds", SampleReservoir()
        )
        self._delta_bytes = self.registry.adopt_histogram(
            "mesh.checkpoint.delta_bytes", SampleReservoir()
        )
        self.registry.gauge_fn(
            "mesh.checkpoint.chain_len",
            lambda: max(
                (len(c) for c in self._checkpoints.values()), default=0
            ),
        )
        self.registry.gauge_fn(
            "runtime.scheduler.key_depth", self._scheduler.key_depths
        )

        # test hooks: called with the lost peer's name / with each key a
        # cut is about to snapshot, outside coordinator locks — failover
        # tests SIGKILL from here
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
        for fam in sorted(self.ownership):
            self._scheduler.submit(fam, self._family_job, self._deliver, fam, 0)
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
    def assignments(self) -> list[tuple[int, int]]:
        """All ``(task_id, worker_id)`` pairs decided so far, stream order."""
        with self._state:
            return [
                (tid, self._results[tid])
                for tid in self._journal.task_order
                if self._results.get(tid) is not None
            ]

    @property
    def now(self) -> float:
        """The simulation clock: the latest event the journal accepted."""
        with self._state:
            return self._journal.now

    @property
    def tasks_answered(self) -> int:
        with self._state:
            return sum(
                1 for tid in self._journal.task_order if tid in self._results
            )

    def process(self, events) -> None:
        """Absorb an event stream and fan it out to the peers.

        Returns as soon as everything is journaled and scheduled; results
        stream back through the peer readers (:meth:`result_of` blocks on
        one). Raises promptly if the mesh has already failed.
        """
        self.start()
        if isinstance(events, RequestQueue):
            events = iter(events)
        chunk: list = []
        for event in events:
            if not isinstance(event, (WorkerArrival, TaskArrival)):
                raise TypeError(f"not a service event: {event!r}")
            chunk.append(event)
            if len(chunk) >= self.chunk_size:
                self._dispatch(chunk)
                chunk = []
        if chunk:
            self._dispatch(chunk)

    def _dispatch(self, chunk: list) -> None:
        self._check_failure()
        # capture the caller's span (e.g. the gateway's scheduler.execute,
        # live on this thread) at submit time: the family jobs run later,
        # on scheduler threads, but must parent under the request that
        # journaled their ops
        ctx = current_context() if self.tracer is not None else None
        queued_perf = time.perf_counter() if ctx is not None else 0.0
        with self._state:
            balancer = self._balancer
            touched = self._journal.absorb(
                chunk, observe=balancer.observe if balancer else None
            )
            # submit-time high-water marks: a family job never delivers
            # ops journaled after it was scheduled
            marks = {fam: self._journal.end(fam) for fam in touched}
            self._events_since_checkpoint += len(chunk)
            cuts: dict[int, int] = {}
            if (
                self.checkpoint_every
                and self._events_since_checkpoint >= self.checkpoint_every
            ):
                # one cut per family, keyed by it: a cut waits only
                # behind its own family's deliveries
                self._events_since_checkpoint = 0
                cuts = self._journal.ends()
            # the balancer decides at the chunk end where its window
            # fills, so a seeded stream splits at the same event
            moves = self._rebalance() if balancer and balancer.window_full else []
        for fam in sorted(touched):
            self._scheduler.submit(
                fam, self._family_job, self._deliver, fam, marks[fam],
                ctx, queued_perf,
            )
        for fam in sorted(cuts):
            self._scheduler.submit(fam, self._family_job, self._cut, fam, cuts[fam])
        for fam, dst, upto in moves:
            self._scheduler.submit(fam, self._survive, self._migrate, fam, dst, upto)

    def _rebalance(self) -> list[tuple[int, str, int]]:  # guarded-by: _state
        """Apply the balancer's verdict on the window that just closed.

        The caller holds ``_state``. A split re-lattices the cell at once:
        later events route to its sub-shards, which the next delivery to
        the family creates. A migration comes back as ``(family,
        destination, journal mark)`` for the caller to schedule; the
        balancer sees it as done, so its next verdict does not depend on
        how far the job has got.
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
                moves.append((fam, dst, self._journal.end(fam)))
        return moves

    def result_of(self, task_id: int) -> int | None:
        """Block until ``task_id`` has an outcome; the worker id or None."""
        task_id = int(task_id)
        with self._wake:
            self._wake.wait_for(
                lambda: task_id in self._results or self._failure is not None,
                timeout=self.liveness_timeout,
            )
            if task_id in self._results:
                return self._results[task_id]
            self._check_failure_locked()
        raise MeshError(f"timed out waiting for the result of task {task_id}")

    def flush(self) -> None:
        """Deliver everything journaled so far and flush every cohort."""
        self.start()
        self._await(
            self._scheduler.submit(None, self._guard, self._flush_job),
            "flush barrier",
        )

    def report(
        self, wall_seconds: float = float("nan"), *, flush: bool = True
    ) -> ServiceReport:
        """Merge every peer's shard metrics into one service report."""
        self.start()
        merged = self._await(
            self._scheduler.submit(None, self._guard, self._report_job, flush),
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
    # dispatch jobs                                                       #
    # ------------------------------------------------------------------ #

    def _family_job(self, step, fam: int, *args) -> None:
        """Run ``step(fam, owner, *args)`` on the family's owner; after a
        failover cuts it short, run it again on the new owner."""
        while True:
            with self._state:
                if self._failure is not None or self._closed:
                    return
                peer = self._peers[self.ownership[fam]]
            if self._survive(step, fam, peer, *args):
                return

    def _survive(self, fn, *args) -> bool:
        """Run one family-keyed step; False if a peer loss cut it short.

        A lost peer is failed over before returning, so the caller may
        retry on the family's new owner. Any other error (or losing the
        last peer) poisons the coordinator.
        """
        try:
            fn(*args)
        except PeerLost as lost:
            try:
                self._handle_peer_loss(lost.peer)
                return False
            except Exception as exc:
                self._fail(exc)
        except Exception as exc:
            self._fail(exc)
        return True

    def _deliver(
        self,
        fam: int,
        peer: MeshPeer,
        upto: int,
        ctx=None,
        queued_perf: float = 0.0,
    ) -> None:
        if peer.dead:
            raise PeerLost(peer.name)
        self._ensure_configured(peer)
        self._ensure_installed(fam, peer)
        with self._state:
            ops = self._journal.take(fam, upto)
        if not ops:
            return
        body = {"ops": ops}
        if self.tracer is not None and ctx is not None:
            # the dispatch span crosses the socket: its context rides the
            # events body (trace-unaware workers ignore the key) and the
            # worker hands its execute span back in the reply
            attrs = {"family": fam, "peer": peer.name, "n_ops": len(ops)}
            if queued_perf:
                attrs["queue_wait_s"] = time.perf_counter() - queued_perf
            with self.tracer.span(
                "mesh.dispatch", parent=ctx, attrs=attrs
            ) as span:
                body["trace"] = span.context.to_dict()
                reply = peer.call("events", body)
        else:
            reply = peer.call("events", body)
        if self.tracer is not None:
            spans = reply.get("spans")
            if isinstance(spans, list):
                for record in spans:
                    self.tracer.adopt(record)
        results = reply.get("results")
        if not isinstance(results, list):
            raise MeshError(f"malformed events reply from {peer.name!r}")
        with self._wake:
            for row in results:
                tid, wid = int(row[0]), row[1]
                # first write wins: replayed duplicates deduplicate
                self._results.setdefault(tid, None if wid is None else int(wid))
            self._wake.notify_all()

    def _ensure_configured(self, peer: MeshPeer) -> None:
        with peer.config_lock:
            if peer.configured:
                return
            peer.call("configure", {"batch_size": self.batch_size})
            peer.configured = True

    def _ensure_installed(self, fam: int, peer: MeshPeer) -> None:
        """Create or restore the family's shards that ``peer`` lacks.

        That is every shard after a failover or a migration (restored
        from its chain, or built from spec if it has none) and the new
        sub-shards after a split.
        """
        with self._state:
            plan = [
                ("load", {"key": key, "snapshots": list(self._checkpoints[key])})
                if key in self._checkpoints
                else ("create", {"key": key, "spec": self._specs[key]})
                for key in self.router.family_keys(fam)
                if self._installed.get(key) != peer.name
            ]
        for op, body in plan:
            peer.call(op, body)
        with self._state:
            if self.ownership[fam] == peer.name and not peer.dead:
                for _op, body in plan:
                    self._installed[body["key"]] = peer.name

    # ------------------------------------------------------------------ #
    # barriers                                                            #
    # ------------------------------------------------------------------ #

    def _settle(self, marks: dict[int, int]) -> None:
        """Deliver every family's journal up to its mark (barrier prelude)."""
        for fam in sorted(marks):
            with self._state:
                peer = self._peers[self.ownership[fam]]
            self._deliver(fam, peer, marks[fam])

    def _flush_job(self) -> None:
        with self._state:
            marks = self._journal.ends()
        while True:
            self._check_failure()
            try:
                self._settle(marks)
                # post-settle every family owner is configured; a peer
                # still unconfigured owns nothing and has nothing to flush
                for peer in self._alive_peers():
                    if peer.configured:
                        peer.call("flush", {})
                return
            except PeerLost as lost:
                self._handle_peer_loss(lost.peer)

    def _report_job(self, flush: bool) -> dict[str, dict]:
        with self._state:
            marks = self._journal.ends()
        while True:
            self._check_failure()
            try:
                self._settle(marks)
                # unconfigured peers own no families (see _flush_job)
                peers = [p for p in self._alive_peers() if p.configured]
                if flush:
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
                self._handle_peer_loss(lost.peer)

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
                    "parent": chain[-1]["checkpoint"],
                }
            else:
                reqs[key] = {"mode": "base", "checkpoint": self._ckpt_seq}
        return reqs

    def _absorb_snapshot(self, key: str, doc: dict, size: float) -> None:  # guarded-by: _state
        """Chain one snapshot reply of ``size`` bytes (its compact JSON
        length); the caller holds ``_state``.

        A delta appends to the chain (its parent must equal the tip — a
        mismatch means lineage diverged and restoring would be silently
        wrong, so fail loud); a base rebases the chain to itself. The
        worker may answer a delta request with a base (e.g. it lost the
        parent cursor); that is just an early rebase.
        """
        chain = self._checkpoints.get(key)
        if doc.get("kind") == "delta":
            if not chain or chain[-1].get("checkpoint") != doc.get("parent"):
                raise MeshError(
                    f"checkpoint lineage diverged for shard {key!r}"
                )
            chain.append(doc)
            self._delta_bytes.record(size)
        else:
            if chain is not None:
                self.registry.counter("mesh.checkpoint.rebase_total")
            self._checkpoints[key] = [doc]
            self._snapshot_bytes.record(size)

    def _snapshot(self, peer: MeshPeer, key: str, req: dict) -> tuple[dict, float]:
        """One shard's snapshot and its compact JSON length, measured
        here so that :meth:`_absorb_snapshot` holds ``_state`` only to
        chain it."""
        reply = peer.call("snapshot", {"key": key, **req})
        snap = reply.get("snapshot")
        if not isinstance(snap, dict):
            raise MeshError(f"malformed snapshot reply from {peer.name!r}")
        return snap, float(len(json.dumps(snap, separators=(",", ":"))))

    def _cut(self, fam: int, peer: MeshPeer, upto: int) -> None:
        """Checkpoint one family on its owner ``peer`` (a family step).

        Delivers the family's journal up to ``upto``, snapshots its
        shards, chains the replies and truncates the journal at the send
        cursor. A peer loss before the last snapshot commits nothing:
        :meth:`_family_job` fails over and runs the cut again on the new
        owner, which first restores the previous chain and replays.
        """
        t0 = time.perf_counter()
        with self._state:
            # captured before delivery, which installs at least these: a
            # split made while the cut runs must not add a shard its
            # owner has not created yet
            keys = self.router.family_keys(fam)
        self._deliver(fam, peer, upto)
        with self._state:
            reqs = self._checkpoint_reqs(keys)
            # the snapshots hold every op sent, which runs past upto when
            # a barrier on another thread delivered first
            cut = self._journal.sent(fam)
        snaps: dict[str, tuple[dict, float]] = {}
        for key in keys:
            hook = self._test_mid_checkpoint
            if hook is not None:
                hook(key)
            snaps[key] = self._snapshot(peer, key, reqs[key])
        with self._state:
            for key in keys:
                self._absorb_snapshot(key, *snaps[key])
            dropped = self._journal.truncate(fam, cut)
        self.registry.counter("mesh.journal.compacted_ops", dropped)
        self._checkpoint_s.record(time.perf_counter() - t0)

    def _migrate(self, fam: int, dst: str, upto: int) -> None:
        """Move one family to peer ``dst`` (a job keyed by the family).

        A :meth:`_cut` on the current owner, then an ownership flip and a
        drop of the family's shards there; the next delivery installs
        them on ``dst`` from the cut's chains, exactly as failover does.
        A failover that moved the family first (or took ``dst``) wins:
        the move is dropped, and a cut that completed stands as an
        ordinary checkpoint.
        """
        try:
            with self._state:
                src = self.ownership[fam]
                if self._failure is not None or self._closed:
                    return
                if src == dst or dst not in self._alive:
                    return
                peer = self._peers[src]
            self._cut(fam, peer, upto)
            with self._state:
                if self.ownership[fam] != src or dst not in self._alive:
                    return
                keys = [
                    key
                    for key in self.router.family_keys(fam)
                    if self._installed.get(key) == src
                ]
                for key in keys:
                    del self._installed[key]  # dropped on src below
                self.ownership[fam] = dst
                self.migrations += 1
        finally:
            with self._state:
                if self._moving.get(fam) == dst:
                    del self._moving[fam]
        for key in keys:
            peer.call("drop", {"key": key})

    # ------------------------------------------------------------------ #
    # failover                                                            #
    # ------------------------------------------------------------------ #

    def _handle_peer_loss(self, name: str) -> None:
        """Reassign a dead peer's families; idempotent per peer.

        Each family goes to the surviving peer with the fewest families
        (ties break by join order) and has its journal cursor rewound:
        the next delivery reinstalls its shards there from their last
        checkpoint and replays everything since. Raises
        :class:`MeshError` when no peer survives.
        """
        hook = None
        with self._state:
            peer = self._peers.get(name)
            if peer is not None:
                # under the *peer's* lock, not just _state: call() checks
                # dead under peer._lock and must not race this flip
                peer.mark_dead()
            if name in self._alive:
                self._alive.discard(name)
                self.failovers += 1
                survivors = [n for n in self._join_order if n in self._alive]
                if not survivors:
                    raise MeshError(
                        "every mesh worker is gone; nothing to fail over to"
                    )
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
                    self._journal.rewind(fam)
                hook = self._test_on_failover
            elif not self._alive:
                raise MeshError(
                    "every mesh worker is gone; nothing to fail over to"
                )
            self._wake.notify_all()
        if peer is not None:
            peer.abandon()
        if hook is not None:
            hook(name)

    # ------------------------------------------------------------------ #
    # plumbing                                                            #
    # ------------------------------------------------------------------ #

    def _alive_peers(self) -> list[MeshPeer]:
        with self._state:
            return [self._peers[n] for n in self._join_order if n in self._alive]

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
            raise MeshError("the mesh has failed") from self._failure
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
        checkpoint snapshot sizes and wall-times from the reservoirs,
        plus the scheduler's live per-family queue depths.
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
