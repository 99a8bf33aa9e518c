"""Streaming service demo: a 4-shard fleet behind the versioned API.

The sharded engine partitions a 200x200 region into a 2x2 shard lattice;
each shard publishes its own HST and runs its own mechanism, budget ledger
and Algorithm-4 matcher. The demo drives it the way every caller now
does — through a :class:`repro.api.AssignmentClient` with the full
middleware chain installed: request validation, token-bucket admission
control, per-method latency metrics and structured error mapping. Half
the fleet registers before the run; the other half comes online
mid-traffic. Tasks arrive on an on/off bursty clock — the stress shape
real ride-hailing demand has — and are matched immediately.

Run:  python examples/streaming_service.py [--tasks N] [--workers N]
"""

import argparse

from repro.api import (
    AssignmentClient,
    ErrorMapper,
    LatencyMetrics,
    RequestValidator,
    TokenBucket,
    make_backend,
)
from repro.service import LoadConfig, LoadGenerator
from repro.service.metrics import percentile


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=3000)
    parser.add_argument("--tasks", type=int, default=800)
    parser.add_argument("--rate", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = LoadConfig(
        workload="gaussian",
        n_workers=args.workers,
        n_tasks=args.tasks,
        task_rate=args.rate,
        arrival="bursty",
        warm_fraction=0.5,
        shards=(2, 2),
        grid_nx=12,
        epsilon=0.5,
        budget_capacity=2.0,
        batch_size=256,
        seed=args.seed,
    )
    print(
        f"replaying {config.n_tasks} bursty tasks against "
        f"{config.n_workers} workers on a "
        f"{config.shards[0]}x{config.shards[1]} shard fleet "
        f"(eps = {config.epsilon} per report)\n"
    )
    generator = LoadGenerator(config)
    plan = generator.build_events()

    metrics = LatencyMetrics()
    admission = TokenBucket(rate=1e6, burst=args.workers + args.tasks)
    middleware = [RequestValidator(), admission, metrics, ErrorMapper()]
    backend = make_backend("sharded", generator.service_spec(plan[0]))
    with AssignmentClient(backend, middleware) as client:
        report = generator.replay(client, plan)

    print(report.format())
    print(
        f"\nburst stress: p95 latency {report.latency_p95_ms:.3f} ms vs "
        f"p50 {report.latency_p50_ms:.3f} ms at "
        f"{report.throughput_tasks_per_s:,.0f} tasks/s sustained"
    )
    print("\nAPI middleware telemetry (per method):")
    registry = metrics.registry
    calls = registry.counters(LatencyMetrics.CALLS, label="kind")
    failures = registry.counters(LatencyMetrics.FAILURES, label="kind")
    latencies = registry.histograms(LatencyMetrics.LATENCY, label="kind")
    for kind in sorted(calls):
        print(
            f"  {kind:<12} calls {calls[kind]:>6}  failures "
            f"{failures.get(kind, 0):>3}  "
            f"p95 {percentile(latencies[kind], 95) * 1e3:.3f} ms"
        )
    print(
        f"admission control: {admission.admitted} requests admitted, "
        f"{admission.rejected} rejected"
    )
    print(
        "every report crossed the trust boundary obfuscated; the per-shard "
        "ledgers above account for the epsilon each worker has spent"
    )


if __name__ == "__main__":
    main()
