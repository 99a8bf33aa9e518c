"""Mesh CLI: run one worker, or the coordinator smoke gate.

``--worker`` is the deployment entry point — a standalone process that
knows its coordinator only by address::

    python -m repro.mesh --worker --connect 127.0.0.1:7700 --name w0

``--smoke`` is the CI gate: it stands up a coordinator plus two loopback
CLI workers (real ``python -m repro.mesh --worker`` processes, real
sockets), replays the conformance stream, and asserts bit-identical
assignments and reports against the single-process sharded engine,
then repeats the run with a worker SIGKILLed mid-stream and asserts the
failover changed nothing. A balancer leg streams demand concentrated in
one cell through a mesh with hot-shard balancing on: the cell must
split, and a SIGKILL after the split must not change one answer::

    python -m repro.mesh --smoke
"""

from __future__ import annotations

import argparse
import sys


def _parse_address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"--connect wants HOST:PORT, got {text!r}")
    return host, int(port)


def _run_smoke(args) -> int:
    from ..api import ServiceSpec, make_backend
    from ..api.conformance import (
        build_conformance_stream,
        check_parity,
        run_backend,
        run_mesh_failover,
    )
    from ..geometry import Box

    spec = ServiceSpec(
        region=Box.square(200.0),
        shards=(2, 2),
        grid_nx=10,
        epsilon=0.5,
        budget_capacity=2.0,
        batch_size=64,
        seed=args.seed,
    )
    requests = build_conformance_stream(
        spec.region, n_workers=60, n_tasks=45, seed=7
    )
    reference = run_backend(make_backend("sharded", spec), requests, window=16)

    mesh = run_backend(
        make_backend(
            "mesh",
            spec,
            n_peers=2,
            spawn="cli",
            chunk_size=17,
            checkpoint_every=48,
        ),
        requests,
        window=16,
    )
    problems = check_parity([reference, mesh])
    print(
        f"[repro.mesh smoke] parity sharded vs mesh(cli,2 peers): "
        f"{len(reference.assignments)} assignments, "
        f"{'OK' if not problems else 'FAILED'}",
        file=sys.stderr,
    )
    for problem in problems:
        print(f"  - {problem}", file=sys.stderr)

    trace_problems: list[str] = []
    if args.trace:
        trace_problems = _run_traced_leg(spec, requests, reference, args.trace)

    failed, failovers = run_mesh_failover(
        spec,
        requests,
        n_peers=2,
        spawn="cli",
        chunk_size=17,
        checkpoint_every=48,
        window=16,
    )
    fail_problems = check_parity([reference, failed])
    if failovers < 1:
        fail_problems.append("killed worker was never detected (failovers == 0)")
    print(
        f"[repro.mesh smoke] failover leg: {failovers} failover(s), "
        f"{'OK' if not fail_problems else 'FAILED'}",
        file=sys.stderr,
    )
    for problem in fail_problems:
        print(f"  - {problem}", file=sys.stderr)

    balance_problems = _run_balancer_leg(spec)

    delta_problems: list[str] = []
    if args.delta_failover:
        # delta-failover leg: checkpoint often enough that the kill
        # lands mid-chain — recovery must restore shards by composing a
        # base plus deltas (asserted via the chain telemetry), and the
        # answers must still be bit-identical to the serial engine
        stats: dict = {}
        delta_run, delta_failovers = run_mesh_failover(
            spec,
            requests,
            n_peers=2,
            spawn="cli",
            chunk_size=17,
            checkpoint_every=24,
            rebase_every=8,
            kill_after=(len(requests) * 3) // 4,
            window=16,
            stats=stats,
        )
        delta_problems = check_parity([reference, delta_run])
        if delta_failovers < 1:
            delta_problems.append(
                "killed worker was never detected (failovers == 0)"
            )
        if stats.get("delta_checkpoints", 0) < 1:
            delta_problems.append(
                "no delta checkpoint was ever taken — the leg never "
                f"exercised chain restore (stats: {stats})"
            )
        print(
            f"[repro.mesh smoke] delta-failover leg: "
            f"{delta_failovers} failover(s), "
            f"{stats.get('delta_checkpoints', 0)} delta / "
            f"{stats.get('base_checkpoints', 0)} base checkpoints, "
            f"max chain {stats.get('max_chain_len', 0)}, "
            f"{stats.get('compacted_ops', 0)} journal rows compacted, "
            f"{'OK' if not delta_problems else 'FAILED'}",
            file=sys.stderr,
        )
        for problem in delta_problems:
            print(f"  - {problem}", file=sys.stderr)

    if (
        problems
        or trace_problems
        or fail_problems
        or balance_problems
        or delta_problems
    ):
        print("[repro.mesh smoke] FAILED", file=sys.stderr)
        return 1
    print("[repro.mesh smoke] OK", file=sys.stderr)
    return 0


def _run_balancer_leg(spec) -> list[str]:
    """Balancer leg: a hot cell splits, and a SIGKILL changes nothing.

    Every request lands in one quarter of cell ``s0``, so the balancer
    splits that cell mid-stream. The split run is then repeated with a
    worker SIGKILLed two thirds of the way in; both runs must give the
    same answers and the same shard set.
    """
    from ..api.conformance import (
        build_conformance_stream,
        check_parity,
        run_mesh_failover,
    )
    from ..cluster.balancer import BalancerConfig
    from ..geometry import Box

    requests = build_conformance_stream(
        Box(0.0, 0.0, 50.0, 50.0), n_workers=300, n_tasks=200, seed=3
    )
    knobs = dict(
        n_peers=2,
        spawn="cli",
        chunk_size=64,
        checkpoint_every=96,
        window=64,
        balancer=BalancerConfig(window=128, min_tasks=32, split_share=0.5),
    )
    runs, splits, failovers = [], [], []
    for kill_after in (len(requests) + 1, (2 * len(requests)) // 3):
        stats: dict = {}
        run, lost = run_mesh_failover(
            spec, requests, kill_after=kill_after, stats=stats, **knobs
        )
        runs.append(run)
        splits.append(stats["cell_splits"])
        failovers.append(lost)
    problems = check_parity(runs)
    if min(splits) < 1:
        problems.append(f"the hot cell never split (cell_splits {splits})")
    if failovers[1] < 1:
        problems.append("killed worker was never detected (failovers == 0)")
    print(
        f"[repro.mesh smoke] balancer leg: cell splits {splits}, "
        f"failovers {failovers}, {len(runs[0].assignments)} assignments, "
        f"{'OK' if not problems else 'FAILED'}",
        file=sys.stderr,
    )
    for problem in problems:
        print(f"  - {problem}", file=sys.stderr)
    return problems


def _run_traced_leg(spec, requests, reference, trace_path: str) -> list[str]:
    """Traced leg: client → gateway → mesh with one shared tracer.

    Replays the same stream through a real loopback gateway over a mesh
    backend with tracing negotiated end to end, then asserts (a) the
    assignments are still bit-identical to the sharded reference and
    (b) the JSONL sink holds at least one complete cross-process trace
    — a ``client.request`` span that is an ancestor of a
    ``worker.execute`` span — and renders the file's summary.
    """
    from ..api import make_backend
    from ..api.conformance import check_parity, run_backend
    from ..gateway import GatewayConfig, GatewayServer, RemoteBackend, serve_gateway
    from ..obs import JsonlSink, Tracer, has_cross_process_trace, load_records
    from ..obs.summary import summarize

    problems: list[str] = []
    sink = JsonlSink(trace_path)
    tracer = Tracer(sink, service="mesh-smoke")
    try:
        backend = make_backend(
            "mesh",
            spec,
            n_peers=2,
            spawn="cli",
            chunk_size=17,
            checkpoint_every=48,
            tracer=tracer,
        )
        config = GatewayConfig(spec, backend="mesh", trace=True)
        server = GatewayServer(config, backend=backend, tracer=tracer)
        with serve_gateway(server=server):
            remote = RemoteBackend(spec, address=server.address)
            traced = run_backend(remote, requests, window=16, tracer=tracer)
        problems += check_parity([reference, traced])
    finally:
        tracer.flush()
        sink.close()

    spans = [r for r in load_records(trace_path) if r.get("type") == "span"]
    if not has_cross_process_trace(spans):
        problems.append(
            "trace file holds no complete client→worker trace "
            f"({len(spans)} spans in {trace_path})"
        )
    print(
        f"[repro.mesh smoke] traced leg: {len(spans)} spans -> {trace_path}, "
        f"{'OK' if not problems else 'FAILED'}",
        file=sys.stderr,
    )
    for problem in problems:
        print(f"  - {problem}", file=sys.stderr)
    if not problems:
        print(summarize(trace_path, slowest=1), file=sys.stderr)
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.mesh",
        description=(
            "Multi-host worker mesh: run one worker process against a "
            "coordinator, or the CI smoke gate."
        ),
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--worker",
        action="store_true",
        help="run one mesh worker process (requires --connect)",
    )
    mode.add_argument(
        "--smoke",
        action="store_true",
        help="coordinator + 2 loopback CLI workers, parity + failover gate",
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="coordinator address for --worker",
    )
    parser.add_argument(
        "--name", default="mesh-worker", help="worker name for --worker"
    )
    parser.add_argument(
        "--connect-window",
        type=float,
        default=10.0,
        help="seconds to keep retrying the initial TCP connect",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--delta-failover",
        action="store_true",
        help=(
            "with --smoke: add a SIGKILL-mid-chain leg with frequent "
            "checkpoints; recovery must compose base+delta chains and "
            "stay bit-identical"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help=(
            "with --smoke: add a traced leg (client → gateway → mesh with "
            "distributed tracing on), write spans to PATH (JSONL), and "
            "assert a complete cross-process trace landed"
        ),
    )
    args = parser.parse_args(argv)

    if args.worker:
        if not args.connect:
            parser.error("--worker requires --connect HOST:PORT")
        try:
            address = _parse_address(args.connect)
        except ValueError as exc:
            parser.error(str(exc))
        from .worker import run_worker

        run_worker(
            address,
            name=args.name,
            connect_window_s=args.connect_window,
        )
        return 0

    return _run_smoke(args)


if __name__ == "__main__":
    raise SystemExit(main())
