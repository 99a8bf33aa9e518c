"""The benchmark's own tests: small-scale runs, the parity gate, clean
untracing, the declared metric names and the no-sources failure.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import ledger as ledger_mod  # noqa: E402
from perfbench.run import run_workload  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    PROBE_REF_S,
    WORKLOADS,
    HostClock,
    build_plan,
    check_pass,
    mismatch_count,
    reference_decisions,
    stream_requests,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = 0.04


def _names(kind: str) -> set[str]:
    return {m["name"] for m in BENCHMARK[kind]}


def _patch_targets():
    """Every class and module a traced pass patches, in either process."""
    from repro.api.backends import BackendBase, MeshBackend
    from repro.api.client import AssignmentClient
    from repro.api.middleware import RequestValidator
    from repro.cluster.dispatch import FamilyJournal
    from repro.crowdsourcing.server import MatchingServer
    from repro.gateway import codec, remote, server
    from repro.gateway.server import GatewayServer
    from repro.geometry.grid import SnapIndex
    from repro.mesh.coordinator import MeshCoordinator
    from repro.privacy.budget import PrivacyBudgetLedger
    from repro.privacy.tree_mechanism import TreeMechanism
    from repro.service.engine import ShardedAssignmentEngine
    from repro.service.shard import ShardServer
    from repro.service.sharding import ShardMap

    return (
        BackendBase, MeshBackend, AssignmentClient, RequestValidator,
        FamilyJournal, MatchingServer, codec, remote, server, GatewayServer,
        SnapIndex, MeshCoordinator, PrivacyBudgetLedger, TreeMechanism,
        ShardedAssignmentEngine, ShardServer, ShardMap,
    )


def _snapshot():
    return {
        (owner, name): value
        for owner in _patch_targets()
        for name, value in vars(owner).items()
    }


def test_benchmark_json_declares_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["paths"] == ["perfbench"]
    assert "setup_s" in _names("end_to_end")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_small_and_prints_declared_metrics(name, capsys):
    result = run_workload(WORKLOADS[name].scaled(SMALL), seed=3, seconds=0, trace=False)
    assert result["correct"], capsys.readouterr().out
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    out = capsys.readouterr().out
    record = json.loads(out.split("record: ", 1)[1].splitlines()[0])
    rss = record["peak_rss_mb"]
    assert rss["total"] == result["metrics"]["peak_rss_mb"]["value"]
    if WORKLOADS[name].in_process:
        assert rss["peers"] == [] and record["settle"] is None
    else:
        # every serving process counts, and every stream chunk is settled
        assert len(rss["peers"]) == 2 and min(rss["peers"]) > 0 and rss["gateway"] > 0
        assert record["settle"]["settles"] >= 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_layers_and_restores_the_library(name, capsys):
    before = _snapshot()
    result = run_workload(WORKLOADS[name].scaled(SMALL), seed=4, seconds=0, trace=True)
    assert _snapshot() == before
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == _names("per_layer")
    assert metrics["ledger.accounted_share"]["value"] > 0.5
    if WORKLOADS[name].in_process:
        assert metrics["service.sharding.route.busy_s"]["value"] > 0
        assert metrics["matching.submit.calls"]["value"] > 0
    else:
        assert metrics["mesh.worker.execute.calls"]["value"] > 0
        assert metrics["gateway.codec.stream_rows.calls"]["value"] > 0
    assert "per-layer ledger" in capsys.readouterr().out


def test_gateway_layers_uninstall_completely():
    from repro.api import ServiceSpec
    from repro.gateway import GatewayConfig, serve_gateway
    from repro.geometry import Box

    spec = ServiceSpec(region=Box.square(100.0), shards=(2, 2), grid_nx=4)
    before = _snapshot()
    with serve_gateway(GatewayConfig(spec=spec)) as server:
        ledger = ledger_mod.Ledger()
        ledger_mod.install_gateway_layers(ledger, server)
        assert "submit" in vars(server._scheduler)
        ledger.uninstall()
        assert "submit" not in vars(server._scheduler)
    assert _snapshot() == before


def test_parity_gate_trips_on_a_perturbed_decision():
    plan = build_plan(WORKLOADS["engine-bulk"].scaled(SMALL), seed=5)
    reference = reference_decisions(plan)
    assert check_pass(plan, reference, list(reference), None) == ["no report"]
    task, worker = reference[0]
    perturbed = [(task, -1 if worker != -1 else 0)] + reference[1:]
    problems = check_pass(plan, reference, perturbed, None)
    assert any("differ" in p for p in problems)
    assert mismatch_count(reference, perturbed) == 1
    duplicated = reference[:-1] + [reference[0]]
    assert any("more than once" in p for p in check_pass(plan, reference, duplicated, None))


def test_a_structured_error_counts_the_unanswered_requests_as_failed():
    from repro.api import RequestRejected

    plan = build_plan(WORKLOADS["engine-bulk"].scaled(SMALL), seed=6)

    class RefusingClient:
        answered = 0

        def stream(self, requests, window, pipeline):
            for _ in requests:
                if self.answered == 10:
                    raise RequestRejected("refused")
                self.answered += 1
                yield None

    clock = HostClock()
    clock.probe()
    out = stream_requests(RefusingClient(), plan.requests, 8, 1, clock)
    assert out["errors"] == {RequestRejected.code: len(plan.requests) - 10}
    assert out["attempted"] == len(plan.requests)
    assert len(out["window_ms"]) == 1  # only the first window was answered


def test_host_clock_scales_stretches_and_skips_probe_time():
    clock = HostClock()
    ref = PROBE_REF_S
    # probes at [0, 1], [3, 4] and [6, 7]: a fast, then a half-speed host
    clock.marks = [(0.0, 1.0, ref), (3.0, 4.0, ref), (6.0, 7.0, 3 * ref)]
    assert clock.span(0.5, 6.5, scaled=False) == pytest.approx(4.0)
    assert clock.span(0.5, 6.5) == pytest.approx(2.0 + 2.0 * 0.5)
    assert clock.scaled_ms([1.5, 4.5], [2.5, 5.5]) == pytest.approx([1e3, 500.0])


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine-bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
