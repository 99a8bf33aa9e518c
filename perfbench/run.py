"""The repo's benchmark: one command, every workload, every layer timed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload engine-bulk --seed 1 --seconds 40 --trace 0

A run builds the workload's inputs from ``--seed``, computes the serial
in-process reference decisions, then repeats passes (fresh service
set-up, full stream replay, correctness check) until ``--seconds`` have
passed and at least three passes ran. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and prints the per-layer ledger. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _peak_rss_mb(passes) -> dict:
    """Peak RSS in MB of every process that serves a pass: this one (the
    reference replay runs in a process of its own and is left out), plus,
    for a gateway workload, the largest sum over passes of the gateway
    process and each of its mesh peers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    service = [
        (p.child["rss_kb"]["gateway"], p.child["rss_kb"]["peers"])
        for p in passes
        if p.child
    ]
    gateway, peers = max(service, key=lambda gp: gp[0] + sum(gp[1]), default=(0, []))
    peers = [kb / 1024.0 for kb in peers]
    return {
        "total": own + gateway / 1024.0 + sum(peers),
        "client": own,
        "gateway": gateway / 1024.0,
        "peers": peers,
    }


def _git_commit() -> str:
    """The checkout's commit, read without running git (or ``unknown``)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------- #
# metrics                                                                  #
# ---------------------------------------------------------------------- #


def end_to_end_metrics(passes, rss_mb: dict, attempted: int, failed: int) -> dict:
    """The end-to-end metrics. Every timing is a median over passes, so a
    slow stretch of the host moves at most the passes it overlapped."""

    def over_passes(values_of, q=None):
        return statistics.median(
            values_of(p) if q is None else _percentile(values_of(p), q) for p in passes
        )

    values = {
        "throughput_tasks_per_s": (over_passes(lambda p: p.throughput), "tasks/s"),
        "task_latency_p50_ms": (over_passes(lambda p: p.task_ms, 50), "ms"),
        "task_latency_p99_ms": (over_passes(lambda p: p.task_ms, 99), "ms"),
        "window_latency_p50_ms": (over_passes(lambda p: p.window_ms, 50), "ms"),
        "window_latency_p99_ms": (over_passes(lambda p: p.window_ms, 99), "ms"),
        "setup_s": (over_passes(lambda p: p.setup_s), "s"),
        "peak_rss_mb": (rss_mb["total"], "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer_metrics(plain, traced) -> tuple[dict, dict]:
    """Per-layer metrics of the traced passes, per pass, plus the merged
    ledger the table prints."""
    from perfbench.ledger import merge_exports

    n = len(traced)
    main = merge_exports(p.ledger for p in traced)
    child = merge_exports(
        (p.child or {}).get("ledger") or {"rows": {}, "samples": {}, "maxima": {}}
        for p in traced
    )
    merged = merge_exports([main, child])
    rows, samples, maxima = merged["rows"], merged["samples"], merged["maxima"]
    spans: dict = {}
    for p in traced:
        for name, (count, total) in ((p.child or {}).get("spans") or {}).items():
            row = spans.setdefault(name, [0, 0.0])
            row[0] += count
            row[1] += total

    def row(subject, key):
        return rows.get(subject, {}).get(key, 0.0) / n

    def pct(name, q):
        values = samples.get(name)
        return _percentile(values, q) if values else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    mesh = [(p.child or {}).get("mesh") for p in traced]
    mesh = [m for m in mesh if m]

    def registry(kind, name):
        values = (m["registry"][kind].get(name) for m in mesh)
        return [v for v in values if v is not None]

    def histogram(name, key):
        """``key`` of a registry histogram, median over passes that saw it."""
        seen = [h[key] for h in registry("histograms", name) if h["count"]]
        return statistics.median(seen) if seen else 0.0

    cohort_flushes = row("service.engine.cohort", "flushes")
    matched = row("matching.submit", "assigned")
    depth_p95 = [
        peer["dispatch_depth"]["p95"]
        for m in mesh
        for peer in m["telemetry"]["peers"].values()
        if peer["dispatch_depth"]["count"]
    ]
    accounted = sum(r.get("self_s", 0.0) for r in main["rows"].values())
    wall = sum(p.raw_wall_s for p in traced)
    plain_tput = statistics.median(p.throughput for p in plain)
    traced_tput = statistics.median(p.throughput for p in traced)
    client_bytes = [p.client_bytes for p in traced]

    values = {
        "api.client.calls": (row("api.client", "calls"), "count"),
        "api.client.self_s": (row("api.client", "self_s"), "s"),
        "api.middleware.self_s": (row("api.middleware", "self_s"), "s"),
        "api.backend.self_s": (row("api.backend", "self_s"), "s"),
        "service.sharding.route.calls": (row("service.sharding.route", "calls"), "count"),
        "service.sharding.route.busy_s": (row("service.sharding.route", "busy_s"), "s"),
        "geometry.grid.snap.calls": (row("geometry.grid.snap", "calls"), "count"),
        "geometry.grid.snap.busy_s": (row("geometry.grid.snap", "busy_s"), "s"),
        "service.engine.ingest.calls": (row("service.engine.ingest", "calls"), "count"),
        "service.engine.ingest.self_s": (row("service.engine.ingest", "self_s"), "s"),
        "service.engine.cohort.flushes": (cohort_flushes, "count"),
        "service.engine.cohort.mean_size": (
            ratio(row("service.engine.cohort", "points"), cohort_flushes),
            "workers",
        ),
        "service.shard.register_cohort.calls": (
            row("service.shard.register_cohort", "calls"),
            "count",
        ),
        "service.shard.register_cohort.busy_s": (
            row("service.shard.register_cohort", "busy_s"),
            "s",
        ),
        "service.shard.submit_task.calls": (row("service.shard.submit_task", "calls"), "count"),
        "service.shard.submit_task.busy_s": (row("service.shard.submit_task", "busy_s"), "s"),
        "privacy.mechanism.obfuscate.calls": (
            row("privacy.mechanism.obfuscate", "calls"),
            "count",
        ),
        "privacy.mechanism.obfuscate.points": (
            row("privacy.mechanism.obfuscate", "points"),
            "count",
        ),
        "privacy.mechanism.obfuscate.busy_s": (
            row("privacy.mechanism.obfuscate", "busy_s"),
            "s",
        ),
        "privacy.budget.spend.calls": (row("privacy.budget.spend", "calls"), "count"),
        "privacy.budget.spend.busy_s": (row("privacy.budget.spend", "busy_s"), "s"),
        "privacy.budget.spend.refused": (row("privacy.budget.spend", "refused"), "count"),
        "matching.submit.calls": (row("matching.submit", "calls"), "count"),
        "matching.submit.busy_s": (row("matching.submit", "busy_s"), "s"),
        "matching.assigned_ratio": (
            ratio(matched, row("matching.submit", "calls")),
            "ratio",
        ),
        "matching.level_mean": (ratio(row("matching.submit", "level_sum"), matched), "level"),
        "gateway.remote.send_busy_s": (row("gateway.remote.send", "busy_s"), "s"),
        "gateway.remote.recv_wait_s": (row("gateway.remote.recv", "wait_s"), "s"),
        "gateway.remote.frames": (row("gateway.remote.send", "calls"), "count"),
        "gateway.remote.bytes_sent": (sum(b[0] for b in client_bytes) / n, "bytes"),
        "gateway.remote.bytes_received": (sum(b[1] for b in client_bytes) / n, "bytes"),
    }
    for path in ("stream_rows", "generic", "packed"):
        subject = f"gateway.codec.{path}"
        values[f"{subject}.calls"] = (row(subject, "calls"), "count")
        values[f"{subject}.busy_s"] = (row(subject, "busy_s"), "s")
        values[f"{subject}.bytes"] = (row(subject, "bytes"), "bytes")
    values.update(
        {
            "gateway.server.dispatch.p50_ms": (pct("gateway.server.dispatch_ms", 50), "ms"),
            "gateway.server.dispatch.p99_ms": (pct("gateway.server.dispatch_ms", 99), "ms"),
            "runtime.scheduler.queue_wait_p50_ms": (
                pct("runtime.scheduler.queue_wait_ms", 50),
                "ms",
            ),
            "runtime.scheduler.queue_wait_p99_ms": (
                pct("runtime.scheduler.queue_wait_ms", 99),
                "ms",
            ),
            "runtime.scheduler.execute_busy_s": (
                row("runtime.scheduler.execute", "busy_s"),
                "s",
            ),
            "runtime.scheduler.key_depth_max": (
                maxima.get("runtime.scheduler.key_depth_max", 0.0),
                "count",
            ),
            "mesh.coordinator.dispatch_busy_s": (
                spans.get("mesh.dispatch", [0, 0.0])[1] / n,
                "s",
            ),
            "mesh.coordinator.result_wait_s": (
                row("mesh.coordinator.result_wait", "wait_s"),
                "s",
            ),
            "mesh.peer.dispatch_depth_p95": (max(depth_p95, default=0.0), "count"),
            "cluster.dispatch.journal.absorb_busy_s": (
                row("cluster.dispatch.journal.absorb", "busy_s"),
                "s",
            ),
            "cluster.dispatch.journal.compacted_ops": (
                sum(registry("counters", "mesh.journal.compacted_ops")) / n,
                "count",
            ),
            "mesh.checkpoint.count": (
                sum(h["count"] for h in registry("histograms", "mesh.checkpoint.seconds"))
                / n,
                "count",
            ),
            "mesh.checkpoint.seconds_p50": (histogram("mesh.checkpoint.seconds", "p50"), "s"),
            "mesh.checkpoint.delta_bytes": (
                histogram("mesh.checkpoint.delta_bytes", "mean"),
                "bytes",
            ),
            "mesh.checkpoint.chain_len": (
                max(registry("gauges", "mesh.checkpoint.chain_len"), default=0),
                "count",
            ),
            "mesh.checkpoint.rebase_total": (
                sum(registry("counters", "mesh.checkpoint.rebase_total")) / n,
                "count",
            ),
            "mesh.worker.execute.calls": (
                spans.get("worker.execute", [0, 0.0])[0] / n,
                "count",
            ),
            "mesh.worker.execute.busy_s": (
                spans.get("worker.execute", [0, 0.0])[1] / n,
                "s",
            ),
            "ledger.accounted_share": (ratio(accounted, wall), "ratio"),
            "ledger.tracing_overhead": (ratio(plain_tput, traced_tput), "ratio"),
        }
    )
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}
    return metrics, {"rows": rows, "spans": spans, "passes": n, "wall_s": wall / n}


def print_table(name: str, ledger: dict, metrics: dict) -> None:
    """The traced run's per-layer table, per traced pass."""
    n = ledger["passes"]
    print(f"per-layer ledger: {name}, per traced pass (mean of {n}), "
          f"serving wall {ledger['wall_s']:.3f} s")
    print(f"  {'layer.subject':<36} {'count':>9} {'busy s':>9} {'self s':>9} "
          f"{'wait s':>9} {'bytes':>11}")
    shown = ("calls", "busy_s", "self_s", "wait_s", "bytes")
    for subject in sorted(ledger["rows"]):
        r = ledger["rows"][subject]
        extra = " ".join(
            f"{k}={v / n:.0f}" for k, v in sorted(r.items()) if k not in shown
        )
        print(
            f"  {subject:<36} {r.get('calls', 0) / n:>9.0f} "
            f"{r.get('busy_s', 0) / n:>9.4f} {r.get('self_s', 0) / n:>9.4f} "
            f"{r.get('wait_s', 0) / n:>9.4f} {r.get('bytes', 0) / n:>11.0f}  {extra}"
        )
    for span, (count, total) in sorted(ledger["spans"].items()):
        print(f"  {'span ' + span:<36} {count / n:>9.0f} {total / n:>9.4f}")
    for key in ("ledger.accounted_share", "ledger.tracing_overhead"):
        print(f"  {key} = {metrics[key]['value']:.4f}")


def _settle_record(passes) -> dict | None:
    """Per untraced pass (median): the waits for an idle mesh a gateway
    stream ends its chunks with, and the mesh checkpoints those waits
    cover, both in raw seconds."""
    mesh = [p.child["mesh"] for p in passes if p.child and "mesh" in p.child]
    if not mesh:
        return None
    checkpoints = [
        m["registry"]["histograms"].get("mesh.checkpoint.seconds", {"count": 0, "mean": 0.0})
        for m in mesh
    ]
    return {
        "settles": statistics.median(len(p.settle_s) for p in passes),
        "settle_s": statistics.median(sum(p.settle_s) for p in passes),
        "checkpoints": statistics.median(c["count"] for c in checkpoints),
        "checkpoint_s": statistics.median(c["count"] * c["mean"] for c in checkpoints),
    }


# ---------------------------------------------------------------------- #
# the run                                                                  #
# ---------------------------------------------------------------------- #


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: prints the run record, returns the result object."""
    import numpy

    from perfbench.workloads import (
        GatewayChild,
        build_plan,
        check_pass,
        engine_pass,
        gateway_pass,
        mismatch_count,
        reference_apart,
    )

    plan = build_plan(workload, seed)
    reference = reference_apart(plan)
    # the inputs and the reference live for the whole run: keep the
    # collector from rescanning them inside every timed pass
    gc.collect()
    gc.freeze()
    child = None if workload.in_process else GatewayChild()
    plain, traced, problems = [], [], []
    attempted = 0
    failures = Counter()
    try:
        started = perf_counter()
        while True:
            done = perf_counter() - started >= seconds
            if trace:
                if done and len(plain) >= 2 and len(traced) >= 2:
                    break
                with_trace = len(traced) < len(plain)
            else:
                if done and len(plain) >= MIN_PASSES:
                    break
                with_trace = False
            gc.collect()
            if child is None:
                result = engine_pass(plan, with_trace)
            else:
                result = gateway_pass(plan, with_trace, child)
            (traced if with_trace else plain).append(result)
            attempted += result.attempted
            failures.update(result.errors)
            failures["mismatch"] += mismatch_count(reference, result.decisions)
            problems.extend(check_pass(plan, reference, result.decisions, result.report))
    finally:
        if child is not None:
            child.close()
    failed = sum(failures.values())
    rss_mb = _peak_rss_mb(plain + traced)
    if trace:
        metrics, ledger = per_layer_metrics(plain, traced)
        print_table(workload.name, ledger, metrics)
    else:
        metrics = end_to_end_metrics(plain, rss_mb, attempted, failed)
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "load_config": asdict(plan.config),
        "events": {
            "requests": len(plan.requests),
            "workers": plan.n_workers,
            "tasks": plan.n_tasks,
        },
        "window": workload.window,
        "pipeline_depth": workload.depth,
        "backend": workload.backend,
        "backend_kwargs": workload.backend_kwargs,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "host_scale": statistics.median(p.wall_s / p.raw_wall_s for p in plain),
        "unscaled_throughput_tasks_per_s": statistics.median(
            p.raw_throughput for p in plain
        ),
        "latency_samples_per_pass": {
            "task": statistics.median(len(p.task_ms) for p in plain),
            "window": statistics.median(len(p.window_ms) for p in plain),
        },
        "peak_rss_mb": rss_mb,
        "settle": _settle_record(plain),
        "error_rate": failed / attempted,
        "failures": dict(failures),
        "problems": problems[:20],
    }
    print("record: " + json.dumps(record, default=str))
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    result = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
