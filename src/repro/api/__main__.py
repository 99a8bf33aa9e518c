"""API-layer smoke: the cross-backend parity gate.

Runs one deterministic request stream through every backend behind the
versioned client API and checks that assignments and reports agree
bit-for-bit — first on the unsharded ``(1, 1)`` case (in-process
reference vs engine vs a remote client over a loopback gateway socket
vs a worker mesh over loopback sockets), then on a ``(2, 2)`` lattice
(engine vs remote vs mesh), and finally a
failover leg that SIGKILLs a mesh worker mid-stream and demands the
answers still match. Also exercises the full middleware chain
(validation, token bucket, latency metrics, error mapping) on the way.

Examples::

    python -m repro.api --smoke
    python -m repro.api --smoke --json
    python -m repro.api --smoke --pipeline 4   # windows in flight on the
                                               # remote run; parity must hold
    python -m repro.api --workers 200 --tasks 120
"""

from __future__ import annotations

import argparse
import json
import sys

from ..geometry.box import Box
from .backends import ServiceSpec
from .conformance import (
    build_conformance_stream,
    check_parity,
    run_conformance,
    run_mesh_failover,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.api",
        description=(
            "Run the backend conformance suite: one request stream, every "
            "backend, identical assignments."
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick parity gate across all backends for CI",
    )
    parser.add_argument("--workers", type=int, default=80)
    parser.add_argument("--tasks", type=int, default=60)
    parser.add_argument("--grid", type=int, default=6)
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--pipeline",
        type=int,
        default=1,
        metavar="N",
        help=(
            "stream windows kept in flight on the remote run (the gateway "
            "reads ahead and answers in arrival order; parity must still "
            "hold bit for bit)"
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the outcome as JSON"
    )
    args = parser.parse_args(argv)

    region = Box.square(200.0)
    backend_kwargs = {
        # the remote run serves the engine over a real loopback socket,
        # so the parity gate also covers the framed wire path
        "remote": {"backend": "sharded"},
        # the mesh run spawns worker processes that dial the coordinator
        # over loopback sockets, with a deliberately odd chunk size (chunk
        # joints must not matter) and checkpoint cuts mid-stream
        "mesh": {"n_peers": 2, "chunk_size": 21, "checkpoint_every": 64},
    }
    backend_kinds = ("inprocess", "sharded", "remote", "mesh")
    outcomes = []
    for shards in ((1, 1), (2, 2)):
        spec = ServiceSpec(
            region=region,
            shards=shards,
            grid_nx=args.grid,
            epsilon=args.epsilon,
            batch_size=args.batch_size,
            seed=args.seed,
        )
        stream = build_conformance_stream(
            region, n_workers=args.workers, n_tasks=args.tasks, seed=args.seed + 7
        )
        result = run_conformance(
            spec,
            backend_kinds,
            requests=stream,
            pipeline=max(1, args.pipeline),
            backend_kwargs=backend_kwargs,
        )
        outcomes.append((shards, result))

    # failover leg: kill a mesh worker mid-stream on the sharded case;
    # restore+replay must leave the answers bit-identical anyway
    failover_run, failovers = run_mesh_failover(
        spec, stream, n_peers=3, chunk_size=21, checkpoint_every=64
    )
    failover_problems = check_parity([outcomes[-1][1].runs[0], failover_run])
    if failovers < 1:
        failover_problems.append(
            "killed mesh worker was never detected (failovers == 0)"
        )

    ok = (
        all(result.ok for _, result in outcomes)
        and all(len(result.runs[0].assignments) > 0 for _, result in outcomes)
        and not failover_problems
    )
    if args.json:
        print(
            json.dumps(
                {
                    "ok": ok,
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
                    "mesh_failover": {
                        "failovers": failovers,
                        "problems": failover_problems,
                    },
                },
                indent=2,
            )
        )
    else:
        for shards, result in outcomes:
            print(f"[repro.api] shards={shards[0]}x{shards[1]}: {result.summary()}")
        verdict = "OK" if not failover_problems else "FAILED"
        print(
            f"[repro.api] mesh failover: {failovers} failover(s), "
            f"parity {verdict}"
        )
        for problem in failover_problems:
            print(f"  - {problem}")

    if args.smoke:
        if not ok:
            print("[repro.api smoke] FAILED backend parity", file=sys.stderr)
            return 1
        print("[repro.api smoke] OK", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
