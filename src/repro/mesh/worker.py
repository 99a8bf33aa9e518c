"""Mesh worker: a :class:`~repro.cluster.worker.ShardHost` on a socket.

One worker process dials the coordinator, introduces itself with a
gateway ``hello`` whose feature list carries ``role:mesh-worker`` (plus
``family:<id>`` advertisements when it already holds shard state), and
then serves :mod:`repro.mesh.protocol` ops over the same length-prefixed
frames the gateway uses: a JSON hello and welcome, then bin1 both ways.
The serving core is a :class:`~repro.cluster.worker.ShardHost`, the same
shard container the single-process engine drives — one cohort rule and
one apply path is what keeps mesh assignments bit-identical to the
engine's.

The loop is single-threaded and strictly FIFO over the socket: ops are
applied in arrival order and replies carry the op's ``seq`` back. That
FIFO is a correctness lever, not a simplification — a ``snapshot`` or
``flush`` op queued behind ``events`` ops observes all of them, so the
coordinator's cut and barrier ordering holds on the worker without any
worker-side locking.

Failure discipline: any exception while serving an op answers a
structured ``fail`` document (stable api error codes) and then the
process exits — a broken worker is indistinguishable from a dead one on
purpose, so the coordinator has exactly one recovery path (snapshot
restore + journal replay onto a surviving peer).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import socket
import sys
import time

from ..api.errors import map_exception
from ..cluster.worker import ShardHost
from ..gateway.protocol import (
    MESH_WORKER_ROLE,
    FrameDecoder,
    encode_frame,
    family_features,
    goodbye_doc,
    handshake_frame,
    hello_doc,
    is_gateway_doc,
    parse_welcome,
    role_feature,
)
from ..obs.trace import parse_trace_context, span_record
from .protocol import fail_doc, parse_op, reply_doc

__all__ = [
    "connect_worker",
    "run_worker",
    "serve_connection",
    "spawn_cli_worker",
    "spawn_local_worker",
]


def _recv_frames(sock: socket.socket, decoder: FrameDecoder) -> list[dict]:
    """Block until at least one complete frame arrives; [] means EOF."""
    while True:
        data = sock.recv(65536)
        if not data:
            decoder.check_eof()
            return []
        frames = decoder.feed(data)
        if frames:
            return frames


def connect_worker(
    address: tuple[str, int],
    *,
    name: str = "mesh-worker",
    families=(),
    connect_window_s: float = 10.0,
) -> tuple[socket.socket, FrameDecoder, list[dict]]:
    """Dial the coordinator and complete the role handshake.

    Retries the TCP connect inside ``connect_window_s`` (a CLI worker
    often races the coordinator's ``listen()``), then sends the hello and
    insists the welcome grants the mesh-worker role — a plain gateway
    would answer a feature-less welcome, and serving assignment requests
    as if they were shard ops helps nobody.

    Returns the socket, its decoder and any ops that arrived glued to
    the welcome. The decoder sniffs each frame, so the JSON welcome and
    the bin1 ops behind it read through one buffer.
    """
    deadline = time.monotonic() + connect_window_s
    while True:
        try:
            sock = socket.create_connection(address, timeout=connect_window_s)
            # ops are request/response frames; Nagle + delayed ACK would
            # add ~40ms to every partial-segment tail (see gateway.remote)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            break
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)
    try:
        features = (role_feature(MESH_WORKER_ROLE), *family_features(families))
        sock.sendall(
            handshake_frame(
                hello_doc(client=f"repro.mesh.worker/{name}", features=features)
            )
        )
        decoder = FrameDecoder()
        frames = _recv_frames(sock, decoder)
        if not frames:
            raise ConnectionError("coordinator closed during handshake")
        first = frames[0]
        if not is_gateway_doc(first):
            raise ConnectionError(f"coordinator rejected the hello: {first!r}")
        _, _, _, granted = parse_welcome(first)
        if role_feature(MESH_WORKER_ROLE) not in granted:
            raise ConnectionError(
                f"peer at {address!r} did not grant the mesh-worker role "
                "(is it a plain gateway?)"
            )
    except BaseException:
        sock.close()
        raise
    sock.settimeout(None)
    # ops may already ride glued to the welcome — hand them to the loop
    return sock, decoder, frames[1:]


def serve_connection(
    sock: socket.socket,
    decoder: FrameDecoder,
    *,
    pending: list | None = None,
) -> None:
    """The op loop: apply coordinator ops to a local ShardHost until the
    coordinator says goodbye or the connection dies.

    ``pending`` carries frames that arrived glued to the welcome. The
    host is built on the first ``configure`` op; ops before it fail.
    """
    host: ShardHost | None = None
    queue = list(pending or ())
    while True:
        if not queue:
            queue = _recv_frames(sock, decoder)
            if not queue:
                return  # coordinator went away; nothing left to serve
        doc = queue.pop(0)
        if is_gateway_doc(doc):
            return  # goodbye (any lifecycle frame ends the service loop)
        seq = -1
        try:
            op, seq, body = parse_op(doc)
            if op == "crash":
                # test hook: die like a SIGKILLed container — no goodbye
                os._exit(17)
            if op == "configure":
                size = int(body["batch_size"])
                if host is not None and host.batch_size != size:
                    raise ValueError(
                        f"host already configured with batch_size="
                        f"{host.batch_size}, refusing {size}"
                    )
                if host is None:
                    host = ShardHost(size)
                out: dict = {}
            elif op == "ping":
                out = {}
            elif host is None:
                raise RuntimeError(f"op {op!r} before configure")
            elif op == "create":
                host.create(str(body["key"]), body["spec"])
                out = {"key": body["key"]}
            elif op == "load":
                host.load(str(body["key"]), body["snapshots"])
                out = {"key": body["key"]}
            elif op == "drop":
                host.drop(str(body["key"]))
                out = {"key": body["key"]}
            elif op == "events":
                # tracing: a valid context on the op gets the execution
                # timed and the span handed back in the reply (the
                # coordinator's tracer adopts it — the worker has no
                # sink of its own); malformed/absent contexts cost
                # nothing and change nothing
                ctx = parse_trace_context(body.get("trace"))
                if ctx is not None:
                    # span *timestamp*, never decision logic: wall time
                    # labels the trace record and nothing replays it
                    start_wall = time.time()  # lint: ok RL103
                    start_perf = time.perf_counter()
                results = host.apply(body["ops"])
                out = {"results": [list(row) for row in results]}
                if ctx is not None:
                    out["spans"] = [
                        span_record(
                            "worker.execute",
                            ctx,
                            start_s=start_wall,
                            duration_s=time.perf_counter() - start_perf,
                            attrs={"n_ops": len(body["ops"])},
                            service="mesh-worker",
                        )
                    ]
            elif op == "snapshot":
                out = {
                    "key": body["key"],
                    "snapshot": host.snapshot(
                        str(body["key"]),
                        mode=str(body.get("mode", "base")),
                        checkpoint=body.get("checkpoint"),
                        parent=body.get("parent"),
                    ),
                }
            elif op == "flush":
                host.flush()
                out = {}
            elif op == "report":
                out = {
                    "report": {
                        key: {**row, "snapshot": dataclasses.asdict(row["snapshot"])}
                        for key, row in host.report().items()
                    }
                }
            else:  # pragma: no cover - parse_op already rejects unknown ops
                raise ValueError(f"unhandled mesh op {op!r}")
            # encoded inside the try: a reply over the frame ceiling
            # answers ``fail`` like any other failed op
            frame = encode_frame(reply_doc(seq, out))
        except Exception as exc:
            info = map_exception(exc).info()
            try:
                sock.sendall(
                    encode_frame(
                        fail_doc(seq, info.code, info.message, info.detail)
                    )
                )
            except OSError:
                pass
            return
        sock.sendall(frame)


def run_worker(
    address: tuple[str, int],
    *,
    name: str = "mesh-worker",
    families=(),
    connect_window_s: float = 10.0,
) -> None:
    """Entry point of one mesh worker process: dial, handshake, serve."""
    sock, decoder, pending = connect_worker(
        address,
        name=name,
        families=families,
        connect_window_s=connect_window_s,
    )
    try:
        serve_connection(sock, decoder, pending=pending)
        try:
            sock.sendall(encode_frame(goodbye_doc("worker done")))
        except OSError:
            pass
    finally:
        sock.close()


# --------------------------------------------------------------------- #
# spawn helpers                                                          #
# --------------------------------------------------------------------- #


def _worker_entry(host: str, port: int, name: str) -> None:
    run_worker((host, port), name=name)


def spawn_local_worker(address: tuple[str, int], *, name: str = "mesh-worker"):
    """Fork a worker subprocess in-repo (tests, MeshBackend default).

    Fork keeps startup cheap and inherits ``sys.path``; spawn is the
    fallback where fork does not exist. Returns the started
    ``multiprocessing.Process`` (daemonic, SIGKILL-able via ``.pid``).
    """
    method = (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )
    ctx = multiprocessing.get_context(method)
    proc = ctx.Process(
        target=_worker_entry,
        args=(address[0], int(address[1]), name),
        name=f"repro-mesh-{name}",
        daemon=True,
    )
    proc.start()
    return proc


def spawn_cli_worker(address: tuple[str, int], *, name: str = "mesh-worker"):
    """Launch ``python -m repro.mesh --worker`` as a real OS process.

    This is the deployment shape — a standalone process that knows the
    coordinator only by address — used by the smoke gate and the example
    so the CLI path stays continuously exercised. Returns the
    ``subprocess.Popen``.
    """
    import subprocess

    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.mesh",
            "--worker",
            "--connect",
            f"{address[0]}:{int(address[1])}",
            "--name",
            name,
        ],
        env=env,
    )
