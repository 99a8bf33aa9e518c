"""The keyed pipelined scheduler: the one execution core.

:class:`PipelineScheduler` executes submitted requests on a bounded
thread pool under one ordering rule, chosen so that pipelined execution
is *bit-identical to serial execution by construction*:

* every job carries an **ordering key**. Jobs with **different keys**
  may run concurrently; jobs with the **same key** run FIFO, one at a
  time, in submission order;
* a job with key ``None`` is a **global barrier**: it runs only after
  every previously submitted job has finished, runs alone, and every
  job submitted after it waits for it;
* a running job may end its ordering hold early with
  :func:`release_order`: from then on, jobs that waited for it (same
  key, or everything after a barrier) may start while it finishes. It
  still counts as in flight until it returns, and its result still
  reaches its handle. A job that never releases keeps the two rules
  above exactly.

Two layers use it. The gateway submits every request as a barrier
(``None``), so a backend runs requests one at a time in arrival order.
The mesh backend releases a stream window's hold once the window is
journaled: its journal order is fixed by then, so the next request may
run while this window waits for its outcomes. The mesh coordinator is
the one user of keys: it runs each shard family's checkpoint cuts,
migrations and failover replays as jobs keyed by the family (its
deliveries are not jobs: the journaling thread sends them), so a cut
never stalls the other families, and its flush and report are barriers
that keep their observe-everything semantics.

Ordering is tracked with dependency chaining, not queue polling: each
key remembers its tail job, a barrier collects every live tail, and a
job is handed to the executor the moment its dependencies finish — a
failed dependency still releases its dependents (keys order requests,
they do not couple their outcomes). The scheduler never ties up a pool
thread on a job that cannot run yet, so ``max_workers=1`` degrades to
exactly the strict serial dispatch loop it replaced.

The chain itself rides *internal* gate futures that only the scheduler
resolves; the future a caller receives is a separate result handle.
Cancelling that handle (``asyncio.wrap_future`` does so when its task
is cancelled) therefore only abandons the *result* — the job still
executes exactly once in its slot, the ordering chain never skips, and
a barrier can never start while an abandoned predecessor is running.
Accepted work always runs: the same discipline the gateway applies to
a request whose client vanished before reading the reply.
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor

__all__ = ["PipelineScheduler", "default_worker_count", "release_order"]

#: the running job's early-release hook, per pool thread
_running = threading.local()


def default_worker_count() -> int:
    """Pool size when the caller does not choose: enough threads that a
    few families' checkpoint cuts, or a gateway's running request plus
    the released mesh windows awaiting outcomes, can overlap (mesh-served
    jobs spend their time waiting on worker processes, so this may
    exceed the local core count without oversubscribing anything)."""
    return min(8, max(4, os.cpu_count() or 1))


def release_order() -> None:
    """End the calling job's ordering hold before the job returns.

    Jobs chained behind the caller (the next job under its key, or
    everything after a barrier) may start from here on, while the
    caller keeps running. Call it once everything later jobs must see
    is in place. The job still counts as in flight
    (:meth:`PipelineScheduler.drain`, ``shutdown`` and ``key_depths``
    wait for it or count it), and its result or exception still reaches
    its handle. A job that fails before it releases ends its hold the
    usual way, when it returns.

    Outside a scheduler job, and on a second call, it does nothing.
    Resolving the hold runs dependents' hand-off to the pool on the
    calling thread, so call it with no lock held that a job may take.
    """
    release = getattr(_running, "release", None)
    if release is not None:
        _running.release = None
        release()


class PipelineScheduler:
    """Keyed-FIFO / barrier scheduler over a bounded thread pool.

    Parameters
    ----------
    max_workers:
        Pool threads. ``None`` picks :func:`default_worker_count`; ``1``
        reproduces a strict serial dispatch loop (one thread, and the
        ordering rule is vacuous).
    name:
        Thread-name prefix (debugging/profiling).
    """

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        name: str = "repro-runtime",
    ) -> None:
        if max_workers is None:
            max_workers = default_worker_count()
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix=name
        )
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._tails: dict[object, Future] = {}  # guarded-by: _lock, _idle
        self._barrier: Future | None = None  # guarded-by: _lock, _idle
        self._in_flight = 0  # guarded-by: _lock, _idle
        self._shutdown = False  # guarded-by: _lock, _idle
        self._depths: dict[object, int] = {}  # guarded-by: _lock, _idle
        self.submitted = 0  # guarded-by: _lock, _idle
        self.barriers = 0  # guarded-by: _lock, _idle

    # ------------------------------------------------------------------ #
    # submission                                                          #
    # ------------------------------------------------------------------ #

    def submit(self, key, fn, /, *args, **kwargs) -> Future:
        """Schedule ``fn(*args, **kwargs)`` under ``key``'s ordering.

        Returns a :class:`~concurrent.futures.Future` resolving to the
        call's result (or exception). Cancelling it abandons the result
        only — the job still executes in order (see module docstring).
        ``key=None`` is a global barrier.
        """
        done: Future = Future()  # the caller's result handle
        gate: Future = Future()  # internal chain marker; scheduler-owned
        with self._lock:
            if self._shutdown:
                raise RuntimeError("scheduler has been shut down")
            self._in_flight += 1
            self.submitted += 1
            self._depths[key] = self._depths.get(key, 0) + 1
            if key is None:
                self.barriers += 1
                deps = list(self._tails.values())
                if self._barrier is not None:
                    deps.append(self._barrier)
                # everything after the barrier chains on the barrier
                self._tails.clear()
                self._barrier = gate
            else:
                prev = self._tails.get(key, self._barrier)
                deps = [] if prev is None else [prev]
                self._tails[key] = gate
        self._when_ready(deps, done, gate, fn, args, kwargs, key)
        return done

    def _when_ready(self, deps, done, gate, fn, args, kwargs, key) -> None:
        """Hand the job to the pool once every dependency has finished.

        ``deps`` are internal gates: they resolve exactly when their
        job's execution (never merely its result handle) is over, and
        they order execution without propagating failure — a dep whose
        job raised still counts as finished.
        """
        if not deps:
            self._executor.submit(self._run, done, gate, fn, args, kwargs, key)
            return
        state = {"remaining": len(deps)}
        state_lock = threading.Lock()

        def dep_finished(_fut) -> None:
            with state_lock:
                state["remaining"] -= 1
                ready = state["remaining"] == 0
            if ready:
                self._executor.submit(self._run, done, gate, fn, args, kwargs, key)

        for dep in deps:
            # fires immediately if the dep already finished
            dep.add_done_callback(dep_finished)

    def _run(self, done: Future, gate: Future, fn, args, kwargs, key=None) -> None:
        _running.release = lambda: gate.set_result(None)
        try:
            result = fn(*args, **kwargs)
            exc = None
        except BaseException as caught:
            result, exc = None, caught
        finally:
            _running.release = None
        # deliver the result unless the caller abandoned it (a cancelled
        # handle is already resolved; setting it would InvalidStateError)
        if not done.cancelled():
            with contextlib.suppress(InvalidStateError):
                if exc is not None:
                    done.set_exception(exc)
                else:
                    done.set_result(result)
        # unless the job released it early, the gate resolves only here
        # — dependents (and barriers) can never start while this
        # execution is live, cancelled or not; they were counted into
        # in_flight at their submit(), so drain() cannot conclude idle
        # while a chain is being handed to the pool. Only this thread
        # resolves the gate, so the check cannot race the release.
        if not gate.done():
            gate.set_result(None)
        with self._idle:
            self._in_flight -= 1
            depth = self._depths.get(key, 0) - 1
            if depth > 0:
                self._depths[key] = depth
            else:
                self._depths.pop(key, None)
            # retire this chain's tail once it has fully drained —
            # otherwise a long stream of one-shot keys (e.g. mesh shard
            # families that only ever see one cohort) grows _tails
            # without bound. Chaining on a resolved gate is a no-op, so
            # dropping the reference is safe; a later submit under the
            # same key simply starts a fresh chain.
            if self._tails.get(key) is gate:
                del self._tails[key]
            if self._barrier is gate:
                self._barrier = None
            if self._in_flight == 0:
                self._idle.notify_all()

    # ------------------------------------------------------------------ #
    # lifecycle                                                           #
    # ------------------------------------------------------------------ #

    @property
    def in_flight(self) -> int:
        """Jobs submitted and not yet finished (queued or running)."""
        with self._lock:
            return self._in_flight

    def key_depths(self) -> dict:
        """Unfinished jobs per ordering key (barriers under ``None``).

        A live gauge of where the backlog sits — the mesh coordinator
        reads it to report per-family dispatch depth. Keys with no
        pending work are absent.
        """
        with self._lock:
            return dict(self._depths)

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted job has finished.

        Returns ``False`` on timeout (work still pending), ``True`` once
        idle. New submissions during the wait extend it.
        """
        with self._idle:
            return self._idle.wait_for(lambda: self._in_flight == 0, timeout)

    def shutdown(self, wait: bool = True) -> None:
        """Refuse new work; optionally wait for in-flight jobs."""
        with self._lock:
            self._shutdown = True
        if wait:
            self.drain()
        self._executor.shutdown(wait=wait)

    def __enter__(self) -> "PipelineScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(wait=True)
