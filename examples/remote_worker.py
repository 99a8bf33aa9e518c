"""Remote-worker demo: shard hosts dialing in over real sockets.

The inverse of ``remote_client.py``: there the *client* crossed a
socket to reach an in-process service; here the *workers* do. A
:class:`repro.mesh.MeshCoordinator` opens a loopback port, and real
``python -m repro.mesh --worker`` processes — the deployment shape, a
worker that knows its coordinator only by address — dial in, negotiate
the ``role:mesh-worker`` handshake, and receive shard families over the
gateway wire form:

1. **A mesh replay** — a timed workload streamed through the
   coordinator, dispatched per shard family to the socket-attached
   workers (no global dispatch lock; only flush/report barriers);
2. **A crash mid-stream** — one worker is SIGKILLed halfway through;
   the coordinator restores its families onto a survivor from the last
   checkpoint snapshots and replays the op journal;
3. **Parity** — the same stream replayed on the single-process sharded
   engine, asserting the sockets, the pipelined dispatch *and the
   crash* changed nothing about who got assigned to whom;
4. **A hot-cell split** — demand concentrated in one corner of one
   cell, replayed with the hot-shard balancer on: the coordinator
   splits the hot cell into a finer sub-lattice mid-stream while the
   parent shard keeps serving its pre-split worker pool.

Usage::

    python examples/remote_worker.py [--workers 400] [--tasks 200]
    python examples/remote_worker.py --peers 3 --no-kill
"""

from __future__ import annotations

import argparse

from repro.api import AssignmentClient, ServiceSpec, TaskDecision, make_backend
from repro.api.conformance import (
    BackendRun,
    build_conformance_stream,
    check_parity,
    run_backend,
)
from repro.cluster import BalancerConfig
from repro.geometry import Box
from repro.service import LoadConfig, LoadGenerator


def build_requests(args):
    config = LoadConfig(
        workload="gaussian",
        n_workers=args.workers,
        n_tasks=args.tasks,
        task_rate=60.0,
        shards=(2, 2),
        grid_nx=8,
        batch_size=32,
        seed=args.seed,
    )
    generator = LoadGenerator(config)
    plan = generator.build_events()
    spec = generator.service_spec(plan[0])
    from repro.api import requests_from_events

    return spec, list(requests_from_events(plan[1]))


def run_mesh(spec, requests, *, peers: int, kill: bool) -> tuple[BackendRun, int]:
    backend = make_backend(
        "mesh",
        spec,
        n_peers=peers,
        spawn="cli",  # real `python -m repro.mesh --worker` processes
        chunk_size=32,
        checkpoint_every=64,
    )
    pairs, misses = [], []
    with AssignmentClient(backend) as client:
        answered = 0
        for response in client.stream(requests, window=16):
            answered += 1
            if isinstance(response, TaskDecision):
                if response.worker_id is None:
                    misses.append(response.task_id)
                else:
                    pairs.append((response.task_id, response.worker_id))
            if kill and answered == len(requests) // 2:
                print(
                    f"  ... SIGKILLing worker 0 after {answered} answers; "
                    "failover takes over mid-stream"
                )
                backend.kill_worker(0)
        client.flush()
        report = client.report()
        failovers = backend.coordinator.failovers
        telemetry = backend.coordinator.telemetry()
    for name, peer in telemetry["peers"].items():
        state = "alive" if peer["alive"] else "dead"
        print(
            f"  peer {name} [{state}] families={peer['families']} "
            f"calls={peer['calls']}"
        )
    run = BackendRun(
        name="mesh",
        assignments=tuple(pairs),
        unassigned=tuple(misses),
        report=report,
    )
    return run, failovers


def hot_split(args) -> bool:
    """Stream demand concentrated in one cell through a balanced mesh."""
    spec = ServiceSpec(
        region=Box.square(200.0), shards=(2, 2), grid_nx=8, batch_size=32, seed=1
    )
    # every request lands in the bottom-left quarter of cell s0
    requests = build_conformance_stream(
        Box(0.0, 0.0, 50.0, 50.0), args.workers, args.tasks, seed=args.seed
    )
    backend = make_backend(
        "mesh",
        spec,
        n_peers=args.peers,
        spawn="cli",
        chunk_size=32,
        checkpoint_every=64,
        balancer=BalancerConfig(window=64, min_tasks=16, split_share=0.5),
    )
    run = run_backend(backend, requests, window=16)
    splits = backend.coordinator.cell_splits
    sub_shards = sorted(
        str(s.shard_id) for s in run.report.shards if "/" in str(s.shard_id)
    )
    answered = len(run.assignments) + len(run.unassigned)
    print(
        f"  cell splits={splits}  sub-shards={sub_shards}  "
        f"answered={answered}/{args.tasks}  assigned={len(run.assignments)}"
    )
    return splits >= 1 and answered == args.tasks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=400)
    parser.add_argument("--tasks", type=int, default=200)
    parser.add_argument("--peers", type=int, default=2)
    parser.add_argument(
        "--no-kill",
        action="store_true",
        help="skip the mid-stream SIGKILL (pure scaling demo)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    kill = not args.no_kill
    if kill and args.peers < 2:
        parser.error("the failover demo needs at least 2 peers")

    spec, requests = build_requests(args)
    print(
        f"== mesh replay: {args.peers} CLI worker(s) over loopback, "
        f"{len(requests)} requests =="
    )
    mesh, failovers = run_mesh(spec, requests, peers=args.peers, kill=kill)
    print(
        f"  {len(mesh.assignments)} assignments, "
        f"{len(mesh.unassigned)} unassigned, {failovers} failover(s)"
    )

    print("== single-process reference on the same stream ==")
    reference = run_backend(make_backend("sharded", spec), requests, window=16)

    problems = check_parity([reference, mesh])
    if problems:
        print("PARITY FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    crashed = " (including a worker crash)" if kill else ""
    print(f"PARITY OK: the socket hop{crashed} changed nothing")
    if kill and failovers < 1:
        print("FAILED: the kill was never detected")
        return 1

    print("== hot-cell split: all demand in one corner, balancer on ==")
    if not hot_split(args):
        print("FAILED: the hot cell never split, or a task went unanswered")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
