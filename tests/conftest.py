"""Shared fixtures: the paper's worked example tree and small random trees."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Box, uniform_grid
from repro.hst import HST, build_hst

#: The point set of the paper's Example 1 (Fig. 2).
EXAMPLE1_POINTS = [(1.0, 1.0), (2.0, 3.0), (5.0, 3.0), (4.0, 4.0)]


@pytest.fixture(scope="session")
def example1_tree() -> HST:
    """The deterministic Example 1 HST: beta = 1/2, identity permutation."""
    return build_hst(EXAMPLE1_POINTS, beta=0.5, permutation=[0, 1, 2, 3])


@pytest.fixture(scope="session")
def small_grid_tree() -> HST:
    """A 6x6-grid tree over a 100x100 region (36 real leaves)."""
    return build_hst(uniform_grid(Box.square(100.0), 6), seed=7)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_point_set(
    n: int, seed: int, side: float = 64.0
) -> np.ndarray:
    """``n`` distinct random lattice points in a ``side x side`` square.

    Lattice coordinates guarantee distinctness and a minimum distance of 1,
    so no metric rescaling kicks in unless a test wants it.
    """
    rng = np.random.default_rng(seed)
    cells = int(side)
    chosen = rng.choice(cells * cells, size=n, replace=False)
    xs, ys = np.divmod(chosen, cells)
    return np.column_stack([xs, ys]).astype(np.float64)


def random_tree(n: int = 12, seed: int = 0) -> HST:
    """A small random HST for property-style tests."""
    return build_hst(random_point_set(n, seed), seed=seed + 1)


def _set_slot(slot: int):
    def damage(doc: dict) -> None:
        doc["delta"]["metrics"]["latencies_s"]["set"].append([slot, 1.0])

    return damage


#: Damage inside a delta document's body, which only the fold reaches,
#: by id: each edits a parsed delta in place, and each must be refused as
#: ``snapshot-bad-format`` rather than raise a bare error or restore
#: silently (a negative reservoir slot would overwrite the last sample).
DAMAGED_DELTAS = {
    "consumed-missing": lambda doc: doc["delta"]["server"].pop("consumed"),
    "reservoir-slot-past-end": _set_slot(99999),
    "reservoir-slot-negative": _set_slot(-1),
    "body-a-list": lambda doc: doc.update(delta=[]),
    "junk-ledger-suffix": lambda doc: doc["delta"].update(ledger="junk"),
}
