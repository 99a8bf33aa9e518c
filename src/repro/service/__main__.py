"""Command-line load generator for the serving layer.

Replays a timed workload through the versioned client API
(:mod:`repro.api`) against the in-process backend, the sharded engine,
or a worker mesh of two forked peer processes.

Examples::

    python -m repro.service --smoke
    python -m repro.service --smoke --backend mesh
    python -m repro.service --workload taxi --shards 3 3 --workers 4000 \
        --tasks 2000 --rate 100 --arrival bursty
    python -m repro.service --backend inprocess --shards 1 1 --json
"""

from __future__ import annotations

import argparse
import json
import sys

from .loadgen import LoadConfig, LoadGenerator


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Replay a timed workload against the sharded assignment engine.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick sharded end-to-end run (2x2 shards, 600 tasks) for CI",
    )
    parser.add_argument(
        "--backend",
        choices=("sharded", "inprocess", "mesh"),
        default="sharded",
        help="assignment backend behind the API client (default sharded; "
        "inprocess needs --shards 1 1; mesh forks two worker processes)",
    )
    parser.add_argument(
        "--workload", choices=("gaussian", "taxi"), default="gaussian"
    )
    parser.add_argument("--workers", type=int, default=2000)
    parser.add_argument("--tasks", type=int, default=600)
    parser.add_argument(
        "--rate", type=float, default=50.0, help="tasks per simulated time unit"
    )
    parser.add_argument(
        "--arrival", choices=("poisson", "uniform", "bursty"), default="poisson"
    )
    parser.add_argument(
        "--shards",
        type=int,
        nargs=2,
        default=(2, 2),
        metavar=("NX", "NY"),
        help="shard lattice shape (default 2 2)",
    )
    parser.add_argument(
        "--grid", type=int, default=12, help="predefined-point lattice side per shard"
    )
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument(
        "--budget",
        type=float,
        default=2.0,
        help="per-worker cumulative epsilon cap",
    )
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument(
        "--warm",
        type=float,
        default=0.5,
        help="fraction of workers registered before traffic starts",
    )
    parser.add_argument("--taxi-day", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)

    try:
        config = LoadConfig(
            workload=args.workload,
            n_workers=args.workers,
            n_tasks=args.tasks,
            task_rate=args.rate,
            arrival=args.arrival,
            warm_fraction=args.warm,
            shards=tuple(args.shards),
            grid_nx=args.grid,
            epsilon=args.epsilon,
            budget_capacity=args.budget,
            batch_size=args.batch_size,
            taxi_day=args.taxi_day,
            seed=args.seed,
        )
        if args.backend == "inprocess" and tuple(args.shards) != (1, 1):
            raise ValueError(
                "the inprocess backend is single-tree; use --shards 1 1"
            )
    except ValueError as exc:
        parser.error(str(exc))
    report = LoadGenerator(config).run(backend=args.backend)

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        label = "smoke" if args.smoke else "run"
        print(
            f"[repro.service {label}] backend={args.backend} "
            f"workload={config.workload} "
            f"shards={config.shards[0]}x{config.shards[1]} "
            f"workers={config.n_workers} tasks={config.n_tasks} "
            f"arrival={config.arrival}",
            file=sys.stderr,
        )
        print(report.format())

    if args.smoke:
        ok = (
            len(report.shards) >= 2
            and report.tasks_total >= 500
            and report.tasks_assigned > 0
        )
        if not ok:
            print("[repro.service smoke] FAILED acceptance gates", file=sys.stderr)
            return 1
        print("[repro.service smoke] OK", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
