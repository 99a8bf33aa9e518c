"""Pipeline throughput: shard-aware scheduling vs the serial gateway.

The question this answers: with a worker mesh behind the TCP gateway,
does the :mod:`repro.runtime` pipelined execution core actually
buy remote throughput over the strictly serial dispatch loop it
replaced?

Setup — identical for both runs except the dispatch discipline:

* one gateway over a **mesh** backend (worker processes = one per
  shard family, capped by the box);
* one client connection per shard family, each replaying that family's
  substream of one fixed workload in stream windows (per-shard
  substreams keep every window on a single ordering key, so per-shard
  request order — and therefore every assignment — is identical to the
  serial full-stream replay);
* **serial** — the gateway is configured ``pipeline=False`` (one
  dispatch thread, every request a barrier; the PR-4 gateway) and
  clients stream with the classic one-window-in-flight discipline;
* **pipelined** — the gateway schedules per ordering key and the
  clients keep several windows in flight, so different shards' windows
  execute concurrently in different worker processes while frames for
  later windows are parsed and earlier responses encoded.

The emitted ``BENCH`` JSON records both throughputs, the speedup ratio
and ``cpu_count`` — the scaling headroom is bounded by cores: on a
1-core box the two disciplines mostly time-share and the ratio hovers
near 1; with >= 2 cores the pipelined gateway should clear 1.5x. Each
leg's row also carries the codec its sessions negotiated and frame-byte
totals (client counters summed over connections, plus the server's), so
transport cost per discipline is auditable from the JSON alone.

Run:  PYTHONPATH=src python benchmarks/bench_pipeline_throughput.py
Also collectable by pytest (parity gates on a scaled-down stream):
      PYTHONPATH=src python -m pytest benchmarks/bench_pipeline_throughput.py -q
"""

from __future__ import annotations

import os
import threading
import time

from repro.api import (
    AssignmentClient,
    TaskDecision,
    make_backend,
    requests_from_events,
)
from repro.gateway import GatewayConfig, RemoteBackend, serve_gateway
from repro.service import LoadConfig, LoadGenerator, ShardMap

try:  # package import under pytest, plain import as a script
    from ._common import emit_bench
except ImportError:
    from _common import emit_bench

WINDOW = 64
DEPTH = 4  # windows in flight per connection in the pipelined run
CONFIG = LoadConfig(
    workload="gaussian",
    n_workers=3000,
    n_tasks=1500,
    task_rate=300.0,
    shards=(2, 2),
    grid_nx=12,
    batch_size=64,
    seed=0,
)


def _plan(config: LoadConfig = CONFIG):
    generator = LoadGenerator(config)
    region, events, _, _ = generator.build_events()
    spec = generator.service_spec(region)
    # one substream per shard family, preserving per-family event order —
    # the partition that keeps every client window on one ordering key
    shard_map = ShardMap(spec.region, *spec.shards)
    substreams: dict[int, list] = {s: [] for s in range(shard_map.n_shards)}
    for event in events:
        substreams[int(shard_map.shard_of(event.location))].append(event)
    return spec, [substreams[s] for s in sorted(substreams)]


def _replay_connections(address, spec, substreams, *, depth: int) -> dict:
    """One client thread per substream; returns wall, throughput, pairs."""
    results: list = [None] * len(substreams)
    clients = [
        AssignmentClient(
            RemoteBackend(spec, address=address, pipeline=depth > 1)
        ).open()
        for _ in substreams
    ]
    start_line = threading.Barrier(len(substreams) + 1)

    def run_one(idx: int) -> None:
        client = clients[idx]
        requests = list(requests_from_events(substreams[idx]))
        start_line.wait()
        try:
            pairs = []
            for response in client.stream(requests, window=WINDOW, pipeline=depth):
                if isinstance(response, TaskDecision):
                    pairs.append((response.task_id, response.worker_id))
            results[idx] = pairs
        except BaseException as exc:  # surfaced after join, not swallowed
            results[idx] = exc

    threads = [
        threading.Thread(target=run_one, args=(i,), daemon=True)
        for i in range(len(substreams))
    ]
    for t in threads:
        t.start()
    start_line.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    failures = [r for r in results if isinstance(r, BaseException) or r is None]
    if failures:
        for client in clients:
            client.close()
        raise RuntimeError(f"replay connection failed: {failures[0]!r}")
    try:
        clients[0].flush()
        report = clients[0].report(wall_seconds=wall)
        # counter snapshot while the connections are drained but still
        # open (same discipline as bench_gateway_throughput): every
        # request is answered, no goodbye frames are in flight yet
        codec = clients[0].backend.codec
        bytes_sent = sum(c.backend.bytes_sent for c in clients)
        bytes_received = sum(c.backend.bytes_received for c in clients)
    finally:
        for client in clients:
            client.close()
    tasks = sum(len(r) for r in results)
    return {
        "wall_seconds": wall,
        "tasks": tasks,
        "assigned": report.tasks_assigned,
        "workers_registered": report.workers_registered,
        "throughput_tasks_per_s": tasks / wall if wall > 0 else 0.0,
        "codec": codec,
        "client_bytes_sent": bytes_sent,
        "client_bytes_received": bytes_received,
        "per_shard_pairs": results,
    }


def _run_gateway(spec, substreams, *, pipeline: bool, n_peers: int) -> dict:
    config = GatewayConfig(
        spec=spec,
        backend="mesh",
        backend_kwargs={"n_peers": n_peers, "chunk_size": WINDOW},
        pipeline=pipeline,
    )
    depth = DEPTH if pipeline else 1
    with serve_gateway(config) as server:
        row = _replay_connections(
            server.address, spec, substreams, depth=depth
        )
        stats = dict(server.stats)
    row["runtime"] = "pipelined" if pipeline else "serial"
    row["window"] = WINDOW
    row["depth"] = depth
    row["frames"] = stats["frames"]
    row["server_bytes_in"] = stats["bytes_in"]
    row["server_bytes_out"] = stats["bytes_out"]
    return row


def run_benchmark(config: LoadConfig = CONFIG) -> dict:
    spec, substreams = _plan(config)
    n_peers = max(2, min(len(substreams), os.cpu_count() or 1))
    serial = _run_gateway(spec, substreams, pipeline=False, n_peers=n_peers)
    pipelined = _run_gateway(spec, substreams, pipeline=True, n_peers=n_peers)
    parity = serial.pop("per_shard_pairs") == pipelined.pop("per_shard_pairs")
    ratio = (
        pipelined["throughput_tasks_per_s"] / serial["throughput_tasks_per_s"]
        if serial["throughput_tasks_per_s"] > 0
        else float("inf")
    )
    return {
        "benchmark": "pipeline_throughput",
        "cpu_count": os.cpu_count(),
        "workload": {
            "n_workers": config.n_workers,
            "n_tasks": config.n_tasks,
            "shards": f"{config.shards[0]}x{config.shards[1]}",
            "grid_nx": config.grid_nx,
            "window": WINDOW,
            "depth": DEPTH,
            "connections": len(substreams),
            "mesh_peers": n_peers,
        },
        "parity": parity,
        "serial": serial,
        "pipelined": pipelined,
        "pipeline_speedup_ratio": ratio,
    }


_SMALL = LoadConfig(
    workload="gaussian",
    n_workers=600,
    n_tasks=300,
    task_rate=100.0,
    shards=(2, 2),
    grid_nx=8,
    batch_size=32,
    seed=0,
)


def test_pipelined_replay_is_bit_identical_to_serial_gateway():
    """The benchmark's own parity gate: per-shard assignment streams are
    identical under both dispatch disciplines, and both match the
    in-process sharded engine."""
    spec, substreams = _plan(_SMALL)
    serial = _run_gateway(spec, substreams, pipeline=False, n_peers=2)
    pipelined = _run_gateway(spec, substreams, pipeline=True, n_peers=2)
    assert serial["per_shard_pairs"] == pipelined["per_shard_pairs"]
    assert serial["assigned"] == pipelined["assigned"] > 0
    assert serial["workers_registered"] == _SMALL.n_workers

    # cross-check one shard against the full-stream in-process replay:
    # partitioning by shard must not change any per-shard decision
    with AssignmentClient(make_backend("sharded", spec)) as client:
        reference = [
            r
            for stream in substreams
            for r in client.stream(
                list(requests_from_events(stream)), window=WINDOW
            )
            if isinstance(r, TaskDecision)
        ]
    ref_pairs = [(d.task_id, d.worker_id) for d in reference]
    flat = [p for shard in pipelined["per_shard_pairs"] for p in shard]
    assert flat == ref_pairs


def main() -> int:
    emit_bench(run_benchmark())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
