"""Shared plumbing for the ``BENCH``-line benchmarks.

The checkpoint delta bench emits one machine-readable line per run:
``BENCH {json}``. This module is the single implementation of that
emission plus the best-of-N timing helper, so every ``BENCH``-line
benchmark reports identically shaped output.

Quantiles: ``repro.service.metrics`` is the single quantile
implementation in this repo — benchmarks that report latency
percentiles import ``percentile``/``summarize_reservoir`` from here
rather than rolling their own, so a BENCH line and a telemetry
snapshot can never disagree on interpolation.
"""

from __future__ import annotations

import json
import time

from repro.service.metrics import (  # noqa: F401  (re-exports)
    percentile,
    summarize_reservoir,
)

DEFAULT_REPEATS = 3


def best_of(fn, repeats: int = DEFAULT_REPEATS) -> float:
    """Best wall-clock seconds of ``repeats`` calls to ``fn``.

    Best-of (not mean) is the standard micro-benchmark estimator: system
    noise only ever adds time.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def emit_bench(payload: dict) -> None:
    """Print the one-line machine-readable benchmark record."""
    print("BENCH " + json.dumps(payload))
