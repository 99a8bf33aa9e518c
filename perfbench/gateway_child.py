"""Gateway process for the socket workloads, driven over stdin/stdout.

Started once per benchmark run by ``perfbench/run.py``. Each pass sends
one JSON line per command and reads one JSON line back:

* ``{"op": "start", "spec": {...}, "backend": ..., "backend_kwargs": {...},
  "trace": bool}`` builds a fresh gateway (backend open, HST builds, mesh
  peer spawn and handshakes included) and answers its ``address``. With
  ``trace`` the layer wrappers go in *after* start, so forked mesh peers
  inherit none of them, and the mesh coordinator gets a tracer whose
  spans are totalled per name;
* ``{"op": "stop"}`` answers the server stats, the peak RSS of this
  process and of each mesh peer, the mesh coordinator's registry
  snapshot and telemetry, and (traced) the ledger and span
  totals, then drains the gateway and removes the wrappers;
* ``{"op": "settle"}`` answers once the backend is idle (every mesh job,
  checkpoint barriers included, has run);
* ``{"op": "exit"}`` ends the process.

Run directly only by the benchmark: ``python3 perfbench/gateway_child.py``.
"""

from __future__ import annotations

import contextlib
import json
import resource
import socket
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETTLE_TIMEOUT_S = 60.0
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.api.backends import ServiceSpec  # noqa: E402
from repro.gateway import GatewayConfig, serve_gateway  # noqa: E402
from repro.obs.trace import Tracer  # noqa: E402

from perfbench.ledger import Ledger, SpanTotals, install_gateway_layers  # noqa: E402


def peak_rss_kb(pid: int) -> int:
    """A live process's peak resident set (``VmHWM``), in KiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


class GatewayPass:
    """One gateway's lifetime: ``start`` to ``stop``."""

    def __init__(self, msg: dict) -> None:
        kwargs = dict(msg.get("backend_kwargs") or {})
        self.spans = SpanTotals() if msg.get("trace") else None
        if self.spans is not None and msg["backend"] == "mesh":
            kwargs["tracer"] = Tracer(self.spans, service="perfbench")
        config = GatewayConfig(
            spec=ServiceSpec.from_dict(msg["spec"]),
            backend=msg["backend"],
            backend_kwargs=kwargs,
        )
        self.stack = contextlib.ExitStack()
        self.ledger = None
        self.server = self.stack.enter_context(serve_gateway(config))
        if self.spans is not None:
            self.ledger = Ledger()
            self.stack.callback(self.ledger.uninstall)
            install_gateway_layers(self.ledger, self.server)

    def rss_kb(self) -> dict:
        """Peak RSS of this process and of every mesh peer still serving
        (each peer is read before teardown, since teardown reaps it)."""
        peers = getattr(self.server.backend, "workers", None) or []
        return {
            "gateway": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "peers": [peak_rss_kb(proc.pid) for proc in peers],
        }

    def settle(self) -> dict:
        """Wait until the mesh coordinator has run every job submitted to
        it: family deliveries (each waits for its peer's reply) and
        checkpoint barriers. Other backends finish a request's work
        before answering it, so there is nothing to wait for."""
        coordinator = getattr(self.server.backend, "coordinator", None)
        if coordinator is not None and not coordinator._scheduler.drain(
            timeout=SETTLE_TIMEOUT_S
        ):
            return {"error": f"mesh still busy after {SETTLE_TIMEOUT_S} s"}
        return {}

    def stop(self) -> dict:
        out = {"stats": dict(self.server.stats), "rss_kb": self.rss_kb()}
        coordinator = getattr(self.server.backend, "coordinator", None)
        if coordinator is not None:
            out["mesh"] = {
                "registry": coordinator.registry.snapshot(),
                "telemetry": coordinator.telemetry(),
            }
        if self.ledger is not None:
            self.ledger.uninstall()
            out["ledger"] = self.ledger.export()
            out["spans"] = self.spans.rows
        if coordinator is not None and coordinator._listener is not None:
            # MeshCoordinator.close() only closes its listener, which does
            # not wake the acceptor thread blocked in accept(); close then
            # waits out its 5 s join timeout. Shutting the listener down
            # wakes it. Teardown only: no pass times this.
            with contextlib.suppress(OSError):
                coordinator._listener.shutdown(socket.SHUT_RDWR)
        self.stack.close()
        return out


def main() -> int:
    replies = sys.stdout
    sys.stdout = sys.stderr  # library output must never corrupt the replies
    current: GatewayPass | None = None
    try:
        for line in sys.stdin:
            msg = json.loads(line)
            op = msg["op"]
            if op == "start":
                current = GatewayPass(msg)
                reply = {"address": list(current.server.address)}
            elif op == "settle":
                reply = current.settle()
            elif op == "stop":
                reply, current = current.stop(), None
            elif op == "exit":
                break
            else:
                reply = {"error": f"unknown op {op!r}"}
            replies.write(json.dumps(reply) + "\n")
            replies.flush()
    finally:
        if current is not None:
            current.stack.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
