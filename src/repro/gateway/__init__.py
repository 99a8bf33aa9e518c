"""repro.gateway — the assignment service over a TCP socket.

The network layer the API package was built for: :mod:`repro.api`'s
schema-versioned wire form (``to_wire``/``from_wire``) in length-prefixed
frames over asyncio TCP, with any backend — in-process, sharded engine,
or worker mesh — behind it. Nothing backend changes; the conformance
suite proves a remote client gets bit-identical assignments to an
in-process one.

* **protocol** — sans-IO framing (4-byte big-endian length + payload,
  8 MiB ceiling), the ``hello``/``welcome``/``goodbye`` handshake (the
  hello and welcome travel as JSON) with api-version negotiation and
  feature bits (``"trace"`` = trace-context propagation), and stable
  error codes for every kind of damage (junk, truncation, oversize,
  version skew);
* **codec** — ``bin1``, the one payload codec after the welcome: stream
  windows (a sync register or submit's one row included) and their
  answers as fixed-width rows on every session (a window's trace
  context in its JSON tail), everything else (checkpoint snapshots
  included) as embedded JSON documents;
* **server** — :class:`GatewayServer`: per-connection sessions behind a
  handshake, every backend call a barrier on the
  :class:`~repro.runtime.PipelineScheduler`, so requests run in arrival
  order — bit-identical to serial replay by construction (a mesh window
  ends its hold once it is journaled, so the next request journals
  while its outcomes are in flight); each session's answers leave in
  the order its frames arrived; bounded in-flight work with TCP
  backpressure, optional token-bucket admission, structured errors over
  the wire, graceful drain that answers every accepted frame before
  goodbye; plus :func:`serve_gateway` to run one on a daemon thread
  from sync code;
* **remote** — :class:`RemoteBackend`: the gateway connection as a
  regular :class:`~repro.api.backends.Backend`, so an unmodified
  :class:`~repro.api.client.AssignmentClient` talks to a remote service
  — including pipelined stream windows (``client.stream(...,
  pipeline=N)``), each answer matched to the oldest window in flight.

Quick start::

    from repro.api import AssignmentClient, ServiceSpec
    from repro.gateway import GatewayConfig, RemoteBackend, serve_gateway
    from repro.geometry import Box

    spec = ServiceSpec(region=Box.square(200.0), shards=(2, 2), seed=0)
    with serve_gateway(GatewayConfig(spec=spec, backend="sharded")) as gw:
        with AssignmentClient(RemoteBackend(spec, address=gw.address)) as c:
            c.register_worker(0, (10.0, 20.0))
            worker = c.submit_task(0, (12.0, 21.0))

CLI::

    python -m repro.gateway --smoke             # remote-parity gate (CI)
    python -m repro.gateway --serve --port 7713 # real server, Ctrl-C to stop
"""

from .protocol import (
    GATEWAY_SCHEMA,
    GATEWAY_VERSION,
    MAX_FRAME_BYTES,
    MESH_WORKER_ROLE,
    FrameDecoder,
    advertised_families,
    encode_frame,
    decode_payload,
    family_features,
    goodbye_doc,
    handshake_frame,
    hello_doc,
    negotiate_version,
    parse_features,
    parse_hello,
    parse_welcome,
    peer_role,
    role_feature,
    welcome_doc,
)
from .remote import RemoteBackend
from .server import GatewayConfig, GatewayServer, Session, serve_gateway

__all__ = [
    "GATEWAY_SCHEMA",
    "GATEWAY_VERSION",
    "MAX_FRAME_BYTES",
    "MESH_WORKER_ROLE",
    "FrameDecoder",
    "GatewayConfig",
    "GatewayServer",
    "RemoteBackend",
    "Session",
    "advertised_families",
    "decode_payload",
    "encode_frame",
    "family_features",
    "goodbye_doc",
    "handshake_frame",
    "hello_doc",
    "negotiate_version",
    "parse_features",
    "parse_hello",
    "parse_welcome",
    "peer_role",
    "role_feature",
    "serve_gateway",
    "welcome_doc",
]
