"""Gateway smoke and serve CLI.

``--smoke`` is the CI gate for the network layer: it stands up a real
loopback gateway, replays one deterministic stream through a
:class:`~repro.gateway.RemoteBackend` *and* through the in-process
backends, and requires bit-identical assignments and reports — the
paper's guarantee, now enforced across a socket. The remote run keeps
four stream windows in flight, so the gate covers read-ahead and
in-order answering on a real socket. ``--serve`` runs a real server
until interrupted.

Examples::

    python -m repro.gateway --smoke
    python -m repro.gateway --smoke --backend mesh --procs 2 --json
    python -m repro.gateway --serve --port 7713 --shards 2 2
    python -m repro.gateway --serve --max-in-flight 8
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from ..api.backends import ServiceSpec
from ..api.conformance import build_conformance_stream, run_conformance
from ..geometry.box import Box
from .server import GatewayConfig, GatewayServer


def _spec(args, shards) -> ServiceSpec:
    return ServiceSpec(
        region=Box.square(200.0),
        shards=shards,
        grid_nx=args.grid,
        epsilon=args.epsilon,
        batch_size=args.batch_size,
        seed=args.seed,
    )


def _server_kwargs(args) -> dict:
    if args.backend == "mesh":
        return {
            "n_peers": max(1, args.procs),
            "chunk_size": 21,  # deliberately odd: chunk joints must not matter
            "checkpoint_every": 64,  # parity must survive checkpoint cuts
        }
    return {}


def _smoke(args) -> int:
    outcomes = []
    # an inprocess-served gateway only exists for the unsharded case
    cases = ((1, 1),) if args.backend == "inprocess" else ((1, 1), (2, 2))
    for shards in cases:
        spec = _spec(args, shards)
        stream = build_conformance_stream(
            spec.region, n_workers=args.workers, n_tasks=args.tasks, seed=args.seed + 7
        )
        result = run_conformance(
            spec,
            backend_kinds=("inprocess", "sharded", "remote"),
            requests=stream,
            # several windows in flight: the parity gate covers read-ahead
            # and in-order answering on a real socket
            pipeline=4,
            backend_kwargs={
                "remote": {
                    "backend": args.backend,
                    "backend_kwargs": _server_kwargs(args),
                }
            },
        )
        outcomes.append((shards, result))

    ok = all(result.ok for _, result in outcomes) and all(
        len(result.runs[0].assignments) > 0 for _, result in outcomes
    )
    if args.json:
        print(
            json.dumps(
                {
                    "ok": ok,
                    "server_backend": args.backend,
                    "cases": [
                        {
                            "shards": list(shards),
                            "backends": [run.name for run in result.runs],
                            "assignments": len(result.runs[0].assignments),
                            "unassigned": len(result.runs[0].unassigned),
                            "problems": result.problems,
                        }
                        for shards, result in outcomes
                    ],
                },
                indent=2,
            )
        )
    else:
        for shards, result in outcomes:
            print(
                f"[repro.gateway] shards={shards[0]}x{shards[1]} "
                f"over {args.backend}: {result.summary()}"
            )
    if not ok:
        print("[repro.gateway smoke] FAILED remote parity", file=sys.stderr)
        return 1
    print("[repro.gateway smoke] OK", file=sys.stderr)
    return 0


def _serve(args) -> int:
    config = GatewayConfig(
        spec=_spec(args, tuple(args.shards)),
        backend=args.backend,
        backend_kwargs=_server_kwargs(args),
        host=args.host,
        port=args.port,
        rate=args.rate,
        burst=args.burst,
        max_inflight=args.max_in_flight,
    )
    server = GatewayServer(config)

    async def run() -> None:
        await server.start()
        host, port = server.address
        print(
            f"[repro.gateway] serving {args.backend} backend on "
            f"{host}:{port} (Ctrl-C to drain and stop)",
            file=sys.stderr,
        )
        try:
            await asyncio.Event().wait()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("[repro.gateway] drained and stopped", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway",
        description=(
            "TCP gateway over the repro.api wire form: --smoke checks "
            "remote-vs-in-process parity, --serve runs a real server."
        ),
    )
    parser.add_argument("--smoke", action="store_true", help="CI parity gate")
    parser.add_argument(
        "--serve", action="store_true", help="run a server until interrupted"
    )
    parser.add_argument(
        "--backend",
        choices=("inprocess", "sharded", "mesh"),
        default="sharded",
        help="what the gateway serves (smoke forces (1,1) specs for inprocess)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--shards", type=int, nargs=2, default=(2, 2))
    parser.add_argument("--workers", type=int, default=80)
    parser.add_argument("--tasks", type=int, default=60)
    parser.add_argument(
        "--procs", type=int, default=2, help="mesh worker process count"
    )
    parser.add_argument("--grid", type=int, default=6)
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--rate", type=float, default=None, help="token-bucket admission rate"
    )
    parser.add_argument("--burst", type=int, default=256)
    parser.add_argument(
        "--max-in-flight",
        type=int,
        default=32,
        dest="max_in_flight",
        help="in-flight request cap (global and per connection)",
    )
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    if args.serve:
        return _serve(args)
    return _smoke(args)


if __name__ == "__main__":
    raise SystemExit(main())
