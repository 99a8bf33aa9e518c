"""Small shared utilities: RNG handling, timing and memory probes.

Everything in this repository that consumes randomness accepts a ``seed``
argument which may be ``None`` (fresh entropy), an ``int`` (reproducible),
or an already-constructed :class:`numpy.random.Generator` (shared stream).
:func:`ensure_rng` normalizes all three cases.

**The "keyed" seeding convention.** Distributed pieces of one logical
service must not derive their randomness from placement, spawn order or
shard count — otherwise two deployments of the same spec diverge.
:func:`keyed_shard_seed` is the repo-wide convention: a shard's RNG seed
is a pure function of ``(root seed, routing key)`` and nothing else. The
mesh coordinator, the sharded engine, the API's in-process backend
and any gateway-served deployment all call it with the same keys
(``"s0"``, ``"s3"``, split sub-shards ``"s3/1"``, ...),
which is what makes cross-backend — and cross-*process*, over a socket —
assignment parity possible. Its exact outputs are part of the
compatibility surface (snapshots and journals recorded by one version
must replay identically on the next), so they are pinned by a
regression test; changing the derivation is a breaking change to every
stored snapshot and must come with a version bump.
"""

from __future__ import annotations

import time
import tracemalloc
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ensure_rng",
    "keyed_shard_seed",
    "spawn_rng",
    "Stopwatch",
    "measure_peak_memory",
]


def ensure_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` draws fresh OS entropy, an ``int`` seeds deterministically and
    an existing generator is passed through unchanged (so callers can share
    one stream across components).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def keyed_shard_seed(seed: int, key: str) -> int:
    """Deterministic per-shard seed derived from a root seed and a routing
    key (``"s3"``, ``"s3/1"``, ...).

    The one seeding convention every assignment backend shares: the
    mesh coordinator derives worker-process shard specs with it, the
    sharded engine seeds every shard with it, and the API layer's
    in-process backend seeds its single region tree with
    ``keyed_shard_seed(seed, "s0")``. Because the seed depends only on
    ``(root seed, key)`` — not placement, shard count or build order —
    any two backends given the same root seed grow bit-identical shard
    streams, which is what the backend conformance suite asserts.
    """
    entropy = np.random.SeedSequence([int(seed), zlib.crc32(key.encode())])
    return int(entropy.generate_state(1)[0])


def spawn_rng(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    Used by experiment sweeps so each repetition gets a statistically
    independent but reproducible stream.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


@dataclass
class Stopwatch:
    """Accumulating wall-clock timer.

    The paper reports "the total time an algorithm takes from receiving a
    task to the completion of the assignment"; pipelines wrap exactly that
    region in :meth:`timed` so setup (HST construction, workload synthesis)
    is excluded, matching the paper's metric.
    """

    elapsed: float = 0.0
    _laps: list[float] = field(default_factory=list)

    @contextmanager
    def timed(self):
        start = time.perf_counter()
        try:
            yield self
        finally:
            lap = time.perf_counter() - start
            self.elapsed += lap
            self._laps.append(lap)

    @property
    def laps(self) -> list[float]:
        return list(self._laps)

    def reset(self) -> None:
        self.elapsed = 0.0
        self._laps.clear()


@contextmanager
def measure_peak_memory(result: dict):
    """Record peak traced allocation (MiB) into ``result['peak_mib']``.

    This is the Python analogue of the paper's resident-memory column: it
    captures the extra heap the algorithm under test allocates (HST, tries,
    KD-trees, matchings), not the interpreter baseline.
    """
    tracemalloc.start()
    try:
        yield result
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        result["peak_mib"] = peak / (1024 * 1024)
