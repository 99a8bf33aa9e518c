"""Remote-client demo: the assignment service across a real TCP socket.

Stands up a loopback :class:`repro.gateway.GatewayServer` (here over the
sharded engine; swap ``--backend mesh`` for worker processes), then
talks to it exactly the way an in-process caller would — the same
:class:`repro.api.AssignmentClient`, now handed a
:class:`repro.gateway.RemoteBackend` transport:

1. **Sync calls** — register a worker, submit a task, observe the
   structured error a duplicate registration earns *across the wire*;
2. **Pipelined streaming replay** — a full timed workload streamed
   through the framed wire protocol with several windows in flight
   (the gateway reads them ahead, runs them in arrival order and
   answers them in that order, so the client checks each answer
   against its oldest window in flight), with the final report fetched
   remotely;
3. **Parity** — the same stream replayed in-process and serially,
   asserting that neither the socket nor the pipelining changed
   *anything* about who got assigned to whom.

Usage::

    python examples/remote_client.py [--workers 400] [--tasks 200]
    python examples/remote_client.py --pipeline 8   # deeper window
"""

from __future__ import annotations

import argparse

from repro.api import (
    AssignmentClient,
    RequestRejected,
    ServiceSpec,
    TaskDecision,
    make_backend,
)
from repro.gateway import GatewayConfig, RemoteBackend, serve_gateway
from repro.service import LoadConfig, LoadGenerator


def replay(client: AssignmentClient, events, *, pipeline: int = 1) -> tuple[list, object]:
    decisions = [
        r
        for r in client.replay_events(events, pipeline=pipeline)
        if isinstance(r, TaskDecision)
    ]
    client.flush()
    return decisions, client.report()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=400)
    parser.add_argument("--tasks", type=int, default=200)
    parser.add_argument(
        "--backend", choices=("sharded", "mesh"), default="sharded"
    )
    parser.add_argument(
        "--pipeline",
        type=int,
        default=4,
        help="stream windows kept in flight on the remote replay",
    )
    args = parser.parse_args()

    config = LoadConfig(
        n_workers=args.workers, n_tasks=args.tasks, shards=(2, 2), grid_nx=8, seed=3
    )
    generator = LoadGenerator(config)
    region, events, _, _ = generator.build_events()
    spec: ServiceSpec = generator.service_spec(region)
    backend_kwargs = {"n_peers": 2} if args.backend == "mesh" else {}

    gateway = GatewayConfig(
        spec=spec, backend=args.backend, backend_kwargs=backend_kwargs
    )
    with serve_gateway(gateway) as server:
        host, port = server.address
        print(f"[1/3] gateway up on {host}:{port}, serving '{args.backend}'")
        with AssignmentClient(RemoteBackend(spec, address=server.address)) as client:
            print(
                f"  handshake: api v{client.backend.api_version}, "
                f"session #{client.backend.session}, "
                f"server backend {client.backend.server_backend!r}, "
                f"features {list(client.backend.server_features)}"
            )
            client.register_worker(10_000, (10.0, 10.0))
            try:
                client.register_worker(10_000, (10.0, 10.0))
            except RequestRejected as exc:
                print(f"  duplicate id over the wire -> code={exc.code!r} ({exc})")
            assigned = client.submit_task(10_000, (11.0, 11.0))
            print(f"  sync submit over the wire -> worker {assigned}")

    # a fresh gateway (and so a fresh backend) for the streamed replay
    print(
        f"[2/3] streaming {len(events)} timed events through the socket "
        f"with a pipelined window of {args.pipeline}"
    )
    with serve_gateway(
        GatewayConfig(spec=spec, backend=args.backend, backend_kwargs=backend_kwargs)
    ) as server:
        with AssignmentClient(RemoteBackend(spec, address=server.address)) as client:
            remote_decisions, remote_report = replay(
                client, events, pipeline=args.pipeline
            )
        print(
            f"  remote: assigned={remote_report.tasks_assigned}"
            f"/{len(remote_decisions)}  p95="
            f"{remote_report.latency_p95_ms:.2f}ms "
            f"(windows in flight: {args.pipeline})"
        )

        print("[3/3] replaying the same stream in-process for parity")
        with AssignmentClient(make_backend("sharded", spec)) as client:
            local_decisions, local_report = replay(client, events)
    remote_pairs = [(d.task_id, d.worker_id) for d in remote_decisions]
    local_pairs = [(d.task_id, d.worker_id) for d in local_decisions]
    assert remote_pairs == local_pairs, "remote deployment changed assignments!"
    assert remote_report.tasks_assigned == local_report.tasks_assigned
    print(
        f"  parity OK: {len(remote_pairs)} decisions bit-identical "
        "across the socket"
    )
    print("done")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
