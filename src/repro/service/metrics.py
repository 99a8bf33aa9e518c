"""Serving telemetry: per-shard counters, latency quantiles, budget audit.

Each :class:`~repro.service.shard.ShardServer` owns a mutable
:class:`ShardMetrics` recorder; at the end of a run the engine freezes the
recorders into :class:`ShardSnapshot` rows and one aggregate
:class:`ServiceReport`. Aggregate latency quantiles are computed from the
pooled raw samples, not from per-shard quantiles (quantiles don't average).

Latencies are *measured wall-clock* seconds around the matching hot path —
the quantity an SLO would track — while throughput is reported both
against wall time (tasks/sec the Python engine sustains) and against the
simulated clock (the offered rate the run replayed).
"""

from __future__ import annotations

import base64
import math
import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RESERVOIR_CAPACITY",
    "SampleReservoir",
    "ShardMetrics",
    "ShardSnapshot",
    "ServiceReport",
    "build_report",
    "pack_floats",
    "percentile",
    "summarize_reservoir",
    "unpack_floats",
]

#: Default per-series sample cap. Below this many recordings a reservoir
#: holds every sample (quantiles are exact); beyond it, a uniform sample.
RESERVOIR_CAPACITY = 4096


def pack_floats(values) -> str:
    """A float column as a checkpoint carries it: base64 of its
    little-endian float64 bytes (exact, with no decimal formatting)."""
    raw = np.asarray(values, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def unpack_floats(text) -> np.ndarray:
    """The float64 column :func:`pack_floats` wrote (read-only).

    ``ValueError`` for anything else: a value that is not a string, text
    that is not base64, or bytes that are not whole float64s.
    """
    if not isinstance(text, str):
        raise ValueError(
            f"a float column is a base64 string, not {type(text).__name__}"
        )
    raw = base64.b64decode(text, validate=True)
    if len(raw) % 8:
        raise ValueError(f"a float column of {len(raw)} bytes is not whole float64s")
    return np.frombuffer(raw, dtype="<f8")


class SampleReservoir:
    """Bounded uniform sample of a float stream (Vitter's Algorithm R).

    Telemetry series used to grow one float per task for the whole stream,
    which made shard checkpoints (and coordinator reply payloads) scale
    with stream length. A reservoir caps retention at ``capacity`` samples
    while keeping every sample until the cap is hit — so short runs lose
    nothing — and keeps *exact* ``count``/``total`` aggregates forever, so
    means never degrade to estimates.

    Replacement draws come from an internal splitmix64 counter rather than
    a shared RNG: the state is one integer, trivially serialized, and a
    restored reservoir replays the same replacement decisions — the
    property the mesh's bit-exact snapshot/replay guarantee needs.

    Delta checkpoints lean on the write pattern: below capacity the value
    list is append-only, and past capacity the only mutations are rare
    in-place victim replacements (probability ``capacity/count`` each).
    Replacements bump a generation counter per slot, so a delta export is
    the appended suffix plus the handful of overwritten slots — the
    append-only hot path pays nothing for the bookkeeping.
    """

    __slots__ = ("capacity", "count", "total", "values", "_state", "_gen", "_mutseq")

    _MASK = (1 << 64) - 1

    def __init__(self, capacity: int = RESERVOIR_CAPACITY, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.count = 0
        self.total = 0.0
        self.values: list[float] = []
        self._state = int(seed) & self._MASK
        self._gen: dict[int, int] = {}  # slot -> mutation seq of last overwrite
        self._mutseq = 0

    def _next_rand(self) -> int:
        # splitmix64: full-period, one-int state, good enough for sampling
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def record(self, value: float) -> None:
        """Add one sample; evicts a uniform victim once at capacity."""
        value = float(value)
        self.count += 1
        self.total += value
        if len(self.values) < self.capacity:
            self.values.append(value)
            return
        slot = self._next_rand() % self.count
        if slot < self.capacity:
            self.values[slot] = value
            self._mutseq += 1
            self._gen[slot] = self._mutseq

    def extend(self, values) -> None:
        for value in values:
            self.record(value)

    @property
    def mean(self) -> float:
        """Exact mean of *all* recorded samples, retained or not."""
        return self.total / self.count if self.count else float("nan")

    # sequence protocol: aggregators treat a reservoir like the raw list
    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, index):
        return self.values[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampleReservoir):
            return NotImplemented
        return (
            self.capacity == other.capacity
            and self.count == other.count
            and self.total == other.total
            and self.values == other.values
            and self._state == other._state
        )

    def __repr__(self) -> str:
        return (
            f"SampleReservoir(capacity={self.capacity}, count={self.count}, "
            f"held={len(self.values)})"
        )

    def to_dict(self) -> dict:
        """JSON-ready state (part of a shard's checkpoint snapshot); the
        held samples travel as one :func:`pack_floats` column."""
        return {
            "capacity": self.capacity,
            "count": self.count,
            "total": float(self.total),
            "values": pack_floats(self.values),
            "state": self._state,
        }

    def cursor(self) -> dict:
        """Pure-value checkpoint cursor: enough to export a delta later.

        ``len`` is the clean prefix length (everything before it was
        already captured by the parent checkpoint unless overwritten) and
        ``mut`` is the mutation sequence at cursor time — slots whose
        generation exceeds it were overwritten inside the delta window.
        """
        return {"len": len(self.values), "mut": self._mutseq}

    def export_delta(self, cursor: dict) -> dict:
        """Changes since ``cursor`` (non-destructive; absolute aggregates).

        ``appended`` carries the value suffix past the cursor's clean
        length; ``set_slots`` and ``set_values`` carry the overwrites of
        slots the parent already held, in slot order. Together with the
        parent's values they reproduce the current samples bit-for-bit.
        Both value columns are :func:`pack_floats` text.
        """
        clean_len = int(cursor["len"])
        clean_mut = int(cursor["mut"])
        slots = [
            slot
            for slot, gen in sorted(self._gen.items())
            if gen > clean_mut and slot < clean_len
        ]
        return {
            "count": self.count,
            "total": float(self.total),
            "state": self._state,
            "appended": pack_floats(self.values[clean_len:]),
            "set_slots": slots,
            "set_values": pack_floats([self.values[slot] for slot in slots]),
        }

    @staticmethod
    def compose_dict(base: dict, delta: dict) -> dict:
        """Fold an :meth:`export_delta` payload into a :meth:`to_dict`
        payload, returning the child checkpoint's :meth:`to_dict` form.

        ``ValueError`` for a delta the fold cannot apply: a damaged value
        column, an overwrite outside the held samples, or more samples
        than the capacity or the count allows.
        """
        values = np.concatenate(
            [unpack_floats(base["values"]), unpack_floats(delta["appended"])]
        )
        slots = [int(s) for s in delta["set_slots"]]
        set_values = unpack_floats(delta["set_values"])
        if len(slots) != len(set_values):
            raise ValueError(
                f"{len(slots)} reservoir overwrite slots for "
                f"{len(set_values)} values"
            )
        for slot, value in zip(slots, set_values):
            if not 0 <= slot < len(values):
                raise ValueError(
                    f"reservoir overwrite of slot {slot} outside the "
                    f"{len(values)} held samples"
                )
            values[slot] = value
        count = int(delta["count"])
        if len(values) > base["capacity"] or len(values) > count:
            raise ValueError("reservoir delta holds more samples than allowed")
        return {
            "capacity": base["capacity"],
            "count": count,
            "total": float(delta["total"]),
            "values": pack_floats(values),
            "state": int(delta["state"]),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SampleReservoir":
        """Rebuild from :meth:`to_dict` output."""
        missing = {"capacity", "count", "total", "values", "state"} - set(payload)
        if missing:
            raise ValueError(f"reservoir payload missing fields: {sorted(missing)}")
        res = cls(capacity=int(payload["capacity"]))
        res.count = int(payload["count"])
        res.total = float(payload["total"])
        res.values = unpack_floats(payload["values"]).tolist()
        res._state = int(payload["state"]) & cls._MASK
        if len(res.values) > res.capacity or len(res.values) > res.count:
            raise ValueError("reservoir payload holds more samples than allowed")
        return res


def percentile(samples, q: float) -> float:
    """``q``-th percentile of ``samples``; NaN when there are none.

    The quantile helper every aggregator in the serving stack shares
    (engine report, mesh report). Quantiles must always be computed
    from pooled raw samples — per-shard quantiles don't average.
    """
    if not len(samples):
        return float("nan")
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def summarize_reservoir(res) -> dict:
    """Standard stats block for one reservoir-backed series.

    The shape telemetry endpoints agree on (mesh coordinator peers,
    MetricsRegistry histogram snapshots): exact ``count``/``mean`` plus
    quantiles over the retained sample.
    """
    return {
        "count": res.count,
        "mean": res.mean,
        "p50": percentile(res, 50),
        "p95": percentile(res, 95),
    }


@dataclass
class ShardMetrics:
    """Mutable per-shard recorder filled while the shard serves traffic.

    ``shard_id`` is the shard's routing key: ``"s<i>"`` for lattice cell
    ``i``, or a sub-shard key such as ``"s3/1"`` after a hot-cell split.

    Raw latency samples live in a bounded :class:`SampleReservoir`
    series (seeded from the shard id, so a reseeded rerun keeps the same
    retained sample set), which caps checkpoint size and reply payloads
    on unbounded streams: quantiles need samples. Reported distances are
    only ever averaged, so they are kept as one exact float total, with
    one distance per assigned task. Counters and means stay exact
    regardless of stream length.
    """

    shard_id: str
    workers_registered: int = 0
    cohorts_flushed: int = 0
    tasks_assigned: int = 0
    tasks_unassigned: int = 0
    latencies_s: SampleReservoir = None
    reported_distance_total: float = 0.0

    def __post_init__(self) -> None:
        if self.latencies_s is None:
            self.latencies_s = SampleReservoir(
                seed=zlib.crc32(f"lat:{self.shard_id}".encode())
            )

    def record_cohort(self, size: int) -> None:
        self.workers_registered += size
        self.cohorts_flushed += 1

    def record_assignment(self, latency_s: float, reported_distance: float) -> None:
        self.tasks_assigned += 1
        self.latencies_s.record(latency_s)
        self.reported_distance_total += float(reported_distance)

    def record_unassigned(self, latency_s: float) -> None:
        self.tasks_unassigned += 1
        self.latencies_s.record(latency_s)

    def to_dict(self) -> dict:
        """JSON-ready raw state (part of a shard's checkpoint snapshot)."""
        return {
            "shard_id": self.shard_id,
            "workers_registered": self.workers_registered,
            "cohorts_flushed": self.cohorts_flushed,
            "tasks_assigned": self.tasks_assigned,
            "tasks_unassigned": self.tasks_unassigned,
            "latencies_s": self.latencies_s.to_dict(),
            "reported_distance_total": float(self.reported_distance_total),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardMetrics":
        """Rebuild a recorder exported by :meth:`to_dict`."""
        missing = {
            "shard_id",
            "workers_registered",
            "cohorts_flushed",
            "tasks_assigned",
            "tasks_unassigned",
            "latencies_s",
            "reported_distance_total",
        } - set(payload)
        if missing:
            raise ValueError(f"metrics payload missing fields: {sorted(missing)}")
        return cls(
            shard_id=payload["shard_id"],
            workers_registered=int(payload["workers_registered"]),
            cohorts_flushed=int(payload["cohorts_flushed"]),
            tasks_assigned=int(payload["tasks_assigned"]),
            tasks_unassigned=int(payload["tasks_unassigned"]),
            latencies_s=SampleReservoir.from_dict(payload["latencies_s"]),
            reported_distance_total=float(payload["reported_distance_total"]),
        )

    def cursor(self) -> dict:
        """Pure-value checkpoint cursor for delta export."""
        return {"latencies_s": self.latencies_s.cursor()}

    def export_delta(self, cursor: dict) -> dict:
        """Changes since ``cursor``. Counters and the distance total are
        tiny, so they travel as absolute values; only the latency
        reservoir gets a true delta."""
        return {
            "workers_registered": self.workers_registered,
            "cohorts_flushed": self.cohorts_flushed,
            "tasks_assigned": self.tasks_assigned,
            "tasks_unassigned": self.tasks_unassigned,
            "latencies_s": self.latencies_s.export_delta(cursor["latencies_s"]),
            "reported_distance_total": float(self.reported_distance_total),
        }

    @staticmethod
    def compose_dict(base: dict, delta: dict) -> dict:
        """Fold an :meth:`export_delta` payload into a :meth:`to_dict`
        payload, returning the child checkpoint's :meth:`to_dict` form."""
        return {
            "shard_id": base["shard_id"],
            "workers_registered": int(delta["workers_registered"]),
            "cohorts_flushed": int(delta["cohorts_flushed"]),
            "tasks_assigned": int(delta["tasks_assigned"]),
            "tasks_unassigned": int(delta["tasks_unassigned"]),
            "latencies_s": SampleReservoir.compose_dict(
                base["latencies_s"], delta["latencies_s"]
            ),
            "reported_distance_total": float(delta["reported_distance_total"]),
        }

    def snapshot(self, *, epsilon: float, ledger) -> "ShardSnapshot":
        """Freeze the recorder, folding in the shard's budget ledger."""
        return ShardSnapshot(
            shard_id=self.shard_id,
            epsilon=epsilon,
            workers_registered=self.workers_registered,
            cohorts_flushed=self.cohorts_flushed,
            tasks_assigned=self.tasks_assigned,
            tasks_unassigned=self.tasks_unassigned,
            latency_p50_ms=percentile(self.latencies_s, 50) * 1e3,
            latency_p95_ms=percentile(self.latencies_s, 95) * 1e3,
            mean_reported_distance=(
                self.reported_distance_total / self.tasks_assigned
                if self.tasks_assigned
                else float("nan")
            ),
            budget_capacity=ledger.capacity,
            budget_min_remaining=ledger.min_remaining(),
            budget_mean_remaining=ledger.mean_remaining(),
        )


@dataclass(frozen=True)
class ShardSnapshot:
    """One shard's final counters and audit numbers."""

    shard_id: str
    epsilon: float
    workers_registered: int
    cohorts_flushed: int
    tasks_assigned: int
    tasks_unassigned: int
    latency_p50_ms: float
    latency_p95_ms: float
    mean_reported_distance: float
    budget_capacity: float
    budget_min_remaining: float
    budget_mean_remaining: float

    @property
    def tasks_seen(self) -> int:
        return self.tasks_assigned + self.tasks_unassigned


@dataclass(frozen=True)
class ServiceReport:
    """Aggregate outcome of one service run.

    ``mean_true_distance`` is filled by the load generator, which — unlike
    the server — knows the true coordinates; it stays NaN for runs driven
    by obfuscated input only.
    """

    shards: tuple[ShardSnapshot, ...]
    wall_seconds: float
    sim_duration: float
    latency_p50_ms: float
    latency_p95_ms: float
    mean_reported_distance: float
    mean_true_distance: float = float("nan")

    @property
    def tasks_total(self) -> int:
        return sum(s.tasks_seen for s in self.shards)

    @property
    def tasks_assigned(self) -> int:
        return sum(s.tasks_assigned for s in self.shards)

    @property
    def tasks_unassigned(self) -> int:
        return sum(s.tasks_unassigned for s in self.shards)

    @property
    def workers_registered(self) -> int:
        return sum(s.workers_registered for s in self.shards)

    @property
    def throughput_tasks_per_s(self) -> float:
        """Tasks matched per wall-clock second (the engine's real speed)."""
        if self.wall_seconds <= 0:
            return float("nan")
        return self.tasks_total / self.wall_seconds

    @property
    def offered_rate(self) -> float:
        """Tasks per simulated time unit the replayed stream offered."""
        if self.sim_duration <= 0:
            return float("nan")
        return self.tasks_total / self.sim_duration

    def to_dict(self) -> dict:
        """JSON-ready form (benchmarks and the CLI's ``--json``)."""
        return {
            "tasks_total": self.tasks_total,
            "tasks_assigned": self.tasks_assigned,
            "tasks_unassigned": self.tasks_unassigned,
            "workers_registered": self.workers_registered,
            "wall_seconds": self.wall_seconds,
            "sim_duration": self.sim_duration,
            "throughput_tasks_per_s": self.throughput_tasks_per_s,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p95_ms": self.latency_p95_ms,
            "mean_reported_distance": self.mean_reported_distance,
            "mean_true_distance": self.mean_true_distance,
            "shards": [
                {
                    "shard_id": s.shard_id,
                    "epsilon": s.epsilon,
                    "workers": s.workers_registered,
                    "cohorts": s.cohorts_flushed,
                    "assigned": s.tasks_assigned,
                    "unassigned": s.tasks_unassigned,
                    "latency_p50_ms": s.latency_p50_ms,
                    "latency_p95_ms": s.latency_p95_ms,
                    "mean_reported_distance": s.mean_reported_distance,
                    "budget_capacity": s.budget_capacity,
                    "budget_min_remaining": s.budget_min_remaining,
                    "budget_mean_remaining": s.budget_mean_remaining,
                }
                for s in self.shards
            ],
        }

    def format(self) -> str:
        """Human-readable multi-line summary (the CLI's default output)."""
        lines = [
            f"tasks          {self.tasks_total} "
            f"({self.tasks_assigned} assigned, {self.tasks_unassigned} unassigned)",
            f"workers        {self.workers_registered} across {len(self.shards)} shards",
            f"throughput     {self.throughput_tasks_per_s:,.0f} tasks/s "
            f"(wall {self.wall_seconds:.3f}s, offered rate "
            f"{self.offered_rate:.1f} tasks/sim-time)",
            f"latency        p50 {self.latency_p50_ms:.3f} ms, "
            f"p95 {self.latency_p95_ms:.3f} ms",
            f"assignment distance  reported {self.mean_reported_distance:.2f}"
            + (
                ""
                if math.isnan(self.mean_true_distance)
                else f", true {self.mean_true_distance:.2f}"
            ),
            "per-shard:",
        ]
        header = (
            "  shard  workers  assigned  unassigned  p50ms   p95ms   "
            "dist    eps-left(min/mean)"
        )
        lines.append(header)
        for s in self.shards:
            lines.append(
                f"  {s.shard_id:>5}  {s.workers_registered:>7}  "
                f"{s.tasks_assigned:>8}  {s.tasks_unassigned:>10}  "
                f"{s.latency_p50_ms:>5.2f}  {s.latency_p95_ms:>6.2f}  "
                f"{s.mean_reported_distance:>6.2f}  "
                f"{s.budget_min_remaining:.2f}/{s.budget_mean_remaining:.2f} "
                f"of {s.budget_capacity:.2f}"
            )
        return "\n".join(lines)


def build_report(
    rows, *, wall_seconds: float = float("nan"), sim_duration: float = 0.0
) -> ServiceReport:
    """Assemble a :class:`ServiceReport` from per-shard report rows.

    The one aggregation path of every backend (the in-process reference,
    the engine and the mesh coordinator), so all report identical
    quantile semantics. Each row is a
    :meth:`~repro.service.shard.ShardServer.report_row`: latency
    quantiles come from the pooled raw samples, and the mean reported
    distance from the exact totals and counts.
    """
    rows = list(rows)
    total = sum(row["distance_total"] for row in rows)
    count = sum(row["distance_count"] for row in rows)
    latencies = [v for row in rows for v in row["latencies_s"]]
    return ServiceReport(
        shards=tuple(row["snapshot"] for row in rows),
        wall_seconds=wall_seconds,
        sim_duration=sim_duration,
        latency_p50_ms=percentile(latencies, 50) * 1e3,
        latency_p95_ms=percentile(latencies, 95) * 1e3,
        mean_reported_distance=float(total) / count if count else float("nan"),
    )
