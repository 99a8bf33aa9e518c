"""MetricsRegistry — one naming scheme for counters, gauges, histograms.

Every series is a ``name`` plus a set of ``label=value`` pairs and
flattens to ``name{label=value,...}`` (labels sorted) in snapshots —
the convention the README documents and ``repro.obs summarize``
groups by.  Naming follows ``layer.subject.metric``:

- ``api.requests.calls{kind=stream_window}`` — counter
- ``gateway.sessions.open`` — gauge
- ``mesh.peer.dispatch_depth{peer=w0}`` — histogram

Histograms are :class:`repro.service.metrics.SampleReservoir`s —
bounded retention, exact count/total/mean forever.  Components that
already own reservoirs (ShardMetrics, mesh peers) *adopt* them into a
registry with ``adopt_histogram`` rather than re-creating them, so
checkpoint bit-exactness (seeded reservoir state round-trips) is
untouched; the registry is a view over the same objects.

Gauges can be callables (``gauge_fn``) sampled at snapshot time — a
callable may return a scalar or a dict, and a dict expands to one
flat series per key (how the scheduler's per-key depth map surfaces
without copying it on every update).
"""

from __future__ import annotations

import threading
import zlib

from repro.service.metrics import (
    RESERVOIR_CAPACITY,
    SampleReservoir,
    summarize_reservoir,
)

__all__ = ["MetricsRegistry", "flat_name"]


def flat_name(name: str, labels: dict) -> str:
    """Flatten a (name, labels) series key to ``name{k=v,...}``."""

    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def _key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))


class MetricsRegistry:
    """Thread-safe registry of labeled counters, gauges and histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[tuple, float] = {}  # guarded-by: _lock
        self._gauges: dict[tuple, float] = {}  # guarded-by: _lock
        self._gauge_fns: dict[tuple, object] = {}  # guarded-by: _lock
        self._histograms: dict[tuple, SampleReservoir] = {}  # guarded-by: _lock

    # -- counters ----------------------------------------------------

    def counter(self, name: str, amount: float = 1, **labels) -> float:
        """Increment (and return) a counter series."""

        key = _key(name, labels)
        with self._lock:
            value = self._counters.get(key, 0) + amount
            self._counters[key] = value
        return value

    def counter_value(self, name: str, **labels) -> float:
        with self._lock:
            return self._counters.get(_key(name, labels), 0)

    def counters(self, name: str, *, label: str) -> dict:
        """All series of ``name`` keyed by one label's value."""

        out = {}
        with self._lock:
            for (series, labels), value in self._counters.items():
                if series == name:
                    out[dict(labels).get(label)] = value
        return out

    # -- gauges ------------------------------------------------------

    def set_gauge(self, name: str, value: float, **labels) -> None:
        with self._lock:
            self._gauges[_key(name, labels)] = value

    def gauge_fn(self, name: str, fn, **labels) -> None:
        """Register a callable sampled at snapshot time.

        ``fn`` may return a scalar or a dict; a dict expands to one
        flat gauge per key under ``name{<label>=<key>}``.
        """

        with self._lock:
            self._gauge_fns[_key(name, labels)] = fn

    # -- histograms --------------------------------------------------

    def histogram(
        self, name: str, value: float, *, capacity: int | None = None, **labels
    ) -> None:
        self.get_histogram(name, capacity=capacity, **labels).record(value)

    def get_histogram(
        self, name: str, *, capacity: int | None = None, **labels
    ) -> SampleReservoir:
        """Get or create the reservoir behind a histogram series.

        Seeded from the flat series name so independently-built
        registries sample identically for the same series.
        """

        key = _key(name, labels)
        with self._lock:
            res = self._histograms.get(key)
            if res is None:
                res = SampleReservoir(
                    capacity=capacity or RESERVOIR_CAPACITY,
                    seed=zlib.crc32(flat_name(name, labels).encode()),
                )
                self._histograms[key] = res
            return res

    def adopt_histogram(
        self, name: str, reservoir: SampleReservoir, **labels
    ) -> SampleReservoir:
        """Register an externally-owned reservoir under a series name.

        The owner keeps recording into it directly (checkpoint state,
        seeding and equality semantics unchanged); the registry only
        gains a view for snapshots.
        """

        with self._lock:
            self._histograms[_key(name, labels)] = reservoir
        return reservoir

    def histograms(self, name: str, *, label: str) -> dict:
        """All reservoirs of ``name`` keyed by one label's value."""

        out = {}
        with self._lock:
            for (series, labels), res in self._histograms.items():
                if series == name:
                    out[dict(labels).get(label)] = res
        return out

    # -- snapshot ----------------------------------------------------

    def snapshot(self) -> dict:
        """Flat point-in-time view: ``{"counters", "gauges", "histograms"}``."""

        with self._lock:
            counters = {
                flat_name(name, dict(labels)): value
                for (name, labels), value in self._counters.items()
            }
            gauges = {
                flat_name(name, dict(labels)): value
                for (name, labels), value in self._gauges.items()
            }
            fns = list(self._gauge_fns.items())
            histograms = {
                flat_name(name, dict(labels)): summarize_reservoir(res)
                for (name, labels), res in self._histograms.items()
            }
        for (name, labels), fn in fns:
            try:
                value = fn()
            except Exception:
                continue
            if isinstance(value, dict):
                for key, sub in value.items():
                    merged = dict(labels)
                    merged.setdefault("key", str(key))
                    gauges[flat_name(name, merged)] = sub
            else:
                gauges[flat_name(name, dict(labels))] = value
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def to_record(self) -> dict:
        """Snapshot wrapped as a JSONL metrics record (sink line)."""

        return {"type": "metrics", **self.snapshot()}
