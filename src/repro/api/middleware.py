"""Composable middleware between the client facade and any backend.

A middleware is any callable ``(request, call_next) -> response``;
:func:`build_stack` folds an ordered list of them around a backend
handler, outermost first — the same onion model as WSGI/ASGI stacks, so
a future network frontend can reuse the exact chain server-side.

Provided middleware:

* :class:`RequestValidator` — structural checks (ids, finite
  coordinates and times, stream seqs) before anything reaches a
  backend, so malformed input fails fast with ``invalid-request``; a
  :class:`~repro.api.messages.StreamWindow` is checked in one vectorized
  pass over its columns;
* :class:`TokenBucket` — admission control: a classic token bucket,
  windows charged per row, with an injectable clock so tests (and
  simulations) drive it deterministically;
* :class:`LatencyMetrics` — per-method call counts, structured-failure
  counts and latency samples (a bounded
  :class:`~repro.service.metrics.SampleReservoir` per method), recorded
  on a :class:`~repro.obs.registry.MetricsRegistry`;
* :class:`ErrorMapper` — catches raw backend exceptions and re-raises
  them as structured :class:`~repro.api.errors.ApiError`\\ s (see
  :func:`~repro.api.errors.map_exception`).

Every middleware here is **thread-safe**: the gateway runs its chain on
the :class:`~repro.runtime.PipelineScheduler`'s pool, where a released
mesh window still finishes while the next request runs, and a client
may share one chain between threads. The stateful ones (bucket level,
latency reservoirs) therefore guard their mutable state with a lock,
keeping their count/total invariants exact under any interleaving. The
handlers they wrap are *not* serialized — only the bookkeeping is — so
the chain adds no head-of-line blocking.
"""

from __future__ import annotations

import math
import threading
import time

import numpy as np

from ..obs.registry import MetricsRegistry
from .errors import AdmissionRejected, RequestRejected, ValidationFailed, map_exception
from .messages import Request, StreamWindow

__all__ = [
    "build_stack",
    "RequestValidator",
    "TokenBucket",
    "LatencyMetrics",
    "ErrorMapper",
]


#: The largest id any backend serves: ids travel as int64 on the wire
#: (stream rows, mesh journal rows), so every backend refuses a larger
#: one. A window's seq is held to the same range.
_ID_MAX = 2**63 - 1


def build_stack(handler, middleware):
    """Fold ``middleware`` (outermost first) around a backend handler."""
    for layer in reversed(list(middleware)):
        handler = _wrap(layer, handler)
    return handler


def _wrap(layer, call_next):
    def handler(request):
        return layer(request, call_next)

    return handler


class RequestValidator:
    """Reject structurally invalid requests before they reach a backend.

    A :class:`~repro.api.messages.StreamWindow` is checked in one
    vectorized pass over its columns; only when that pass finds damage
    are its rows checked one by one, so the first bad row fails with the
    message its field gets in a sync call of that verb (a window of one
    row).
    """

    def __call__(self, request, call_next):
        self.validate(request)
        return call_next(request)

    def validate(self, request) -> None:
        if not isinstance(request, Request):
            raise ValidationFailed(f"not an API request: {request!r}")
        if isinstance(request, StreamWindow):
            self._check_id("stream seq", request.seq)
            if not self._window_ok(request):
                self._check_rows(request)
        # Flush/GetReport carry nothing checkable beyond their type

    @staticmethod
    def _window_ok(window: StreamWindow) -> bool:
        """Every row passes, by whole-column checks (no per-row calls)."""
        ids, times = window.ids, window.times
        if not ids:
            return True
        try:
            return (
                set(map(type, window.is_task)) == {bool}
                and set(map(type, ids)) == {int}
                and min(ids) >= 0
                and max(ids) <= _ID_MAX
                and bool(np.isfinite(window.xy).all())
                and set(map(type, times)) <= {float, int}
                and min(times) >= 0
                and math.isfinite(sum(times))
            )
        except (TypeError, ValueError, OverflowError):
            return False

    def _check_rows(self, window: StreamWindow) -> None:
        """Raise the failure of the first bad row, if any."""
        for task, ident, location, at in zip(
            window.is_task, window.ids, window.xy.tolist(), window.times
        ):
            if type(task) is not bool:
                raise ValidationFailed(
                    f"stream window row kinds must be bools, got {task!r}"
                )
            self._check_id("task_id" if task else "worker_id", ident)
            self._check_point(tuple(location))
            self._check_time(at)

    @staticmethod
    def _check_id(name: str, value) -> None:
        if (
            not isinstance(value, int)
            or isinstance(value, bool)
            or not 0 <= value <= _ID_MAX
        ):
            raise ValidationFailed(
                f"{name} must be a non-negative int64, got {value!r}"
            )

    @staticmethod
    def _check_point(location) -> None:
        x, y = location
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValidationFailed(f"location must be finite, got {location!r}")

    @staticmethod
    def _check_time(value) -> None:
        try:
            ok = math.isfinite(value) and value >= 0
        except (TypeError, OverflowError):
            ok = False  # not a real number, or an int no float can hold
        if not ok:
            raise ValidationFailed(f"event time must be finite and >= 0, got {value!r}")


class TokenBucket:
    """Token-bucket admission control.

    ``rate`` tokens refill per second up to ``burst``; a stream window
    costs one token per row (flushes and report fetches ride free, they
    relieve pressure rather than add it). When the bucket runs dry the
    request fails with a retryable ``rate-limited`` error carrying the
    earliest useful retry delay; one costing more than ``burst`` never
    fits, so it fails at once, uncharged, as a non-retryable ``rejected``.
    """

    def __init__(self, rate: float, burst: int, clock=time.monotonic) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = int(burst)
        self._clock = clock
        self._tokens = float(burst)  # guarded-by: _lock
        self._last = float(clock())  # guarded-by: _lock
        self._lock = threading.Lock()
        self.admitted = 0  # guarded-by: _lock
        self.rejected = 0  # guarded-by: _lock

    @staticmethod
    def cost_of(request) -> int:
        return len(request) if isinstance(request, StreamWindow) else 0

    def _refill(self) -> None:  # guarded-by: _lock
        now = float(self._clock())
        self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now

    def __call__(self, request, call_next):
        cost = self.cost_of(request)
        if cost:
            # refill-check-charge must be one atomic step: two pipelined
            # requests racing it could both spend the same tokens and
            # break the admitted+rejected == offered-cost invariant
            with self._lock:
                if cost > self.burst:
                    self.rejected += cost
                    raise RequestRejected(
                        f"admission control: request costs {cost} tokens, more "
                        f"than the bucket's burst of {self.burst} can ever hold"
                    )
                self._refill()
                if self._tokens < cost:
                    self.rejected += cost
                    missing = cost - self._tokens
                    raise AdmissionRejected(
                        f"admission control: request costs {cost} tokens, "
                        f"{self._tokens:.2f} available",
                        retry_after_s=missing / self.rate,
                    )
                self._tokens -= cost
                self.admitted += cost
        return call_next(request)


class LatencyMetrics:
    """Per-method latency and outcome telemetry around the backend call.

    Records into a :class:`~repro.obs.registry.MetricsRegistry` —
    series ``api.requests.calls``/``.failures`` (counters) and
    ``api.requests.latency_s`` (reservoir histograms), labeled by
    request ``kind`` (a stream window is one ``stream_window`` call,
    whatever its row count, a sync register or submit's one row too).
    Read them there, e.g.
    ``registry.counters(LatencyMetrics.CALLS, label="kind")``. Pass a
    shared ``registry`` to co-locate these with a server's other series;
    by default each instance owns one.
    """

    CALLS = "api.requests.calls"
    FAILURES = "api.requests.failures"
    LATENCY = "api.requests.latency_s"

    def __init__(
        self, capacity: int = 1024, *, registry: MetricsRegistry | None = None
    ) -> None:
        self.capacity = int(capacity)
        self.registry = registry if registry is not None else MetricsRegistry()

    def __call__(self, request, call_next):
        kind = type(request).kind
        start = time.perf_counter()
        try:
            response = call_next(request)
        except Exception:
            self.registry.counter(self.FAILURES, kind=kind)
            raise
        finally:
            # the timed call runs unlocked; the registry serializes only
            # the bookkeeping (counter upsert + reservoir state update)
            elapsed = time.perf_counter() - start
            self.registry.counter(self.CALLS, kind=kind)
            self.registry.histogram(
                self.LATENCY, elapsed, capacity=self.capacity, kind=kind
            )
        return response


class ErrorMapper:
    """Translate raw backend exceptions into structured API errors."""

    def __call__(self, request, call_next):
        try:
            return call_next(request)
        except Exception as exc:
            raise map_exception(exc) from exc
