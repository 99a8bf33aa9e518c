"""Shared fixtures: the paper's worked example tree and small random trees."""

from __future__ import annotations

import base64

import numpy as np
import pytest

from repro.geometry import Box, uniform_grid
from repro.hst import HST, build_hst
from repro.service.metrics import RESERVOIR_CAPACITY, pack_floats, unpack_floats

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


def _latencies(doc: dict) -> dict:
    """The latency reservoir section of a base or delta document."""
    body = doc["state"] if doc["kind"] == "base" else doc["delta"]
    return body["metrics"]["latencies_s"]


def _samples(value):
    """Damage: the reservoir's sample column (a base's ``values``, a
    delta's ``appended``) replaced by ``value(reservoir section)``."""

    def damage(doc: dict) -> None:
        res = _latencies(doc)
        res["values" if "values" in res else "appended"] = value(res)

    return damage


def _past_capacity(res: dict) -> str:
    res["count"] = 2 * RESERVOIR_CAPACITY
    return pack_floats(np.zeros(RESERVOIR_CAPACITY + 1))


def _set_slot(slot: int):
    def damage(doc: dict) -> None:
        res = _latencies(doc)
        res["set_slots"].append(slot)
        res["set_values"] = pack_floats([*unpack_floats(res["set_values"]), 1.0])

    return damage


def _pending(**columns):
    """Damage: a document's pending buffer with ``columns`` replaced."""
    return lambda doc: doc["pending"].update(columns)


#: Damage to a float column of any document, base or delta: each must be
#: refused as ``snapshot-bad-format``.
DAMAGED_FLOAT_COLUMNS = {
    "samples-not-base64": _samples(lambda res: "not base64!"),
    "samples-not-whole-float64s": _samples(
        lambda res: base64.b64encode(bytes(12)).decode("ascii")
    ),
    "samples-a-list": _samples(lambda res: [0.5]),
    "samples-past-the-count": _samples(
        lambda res: pack_floats(np.zeros(res["count"] + 1))
    ),
    "samples-past-the-capacity": _samples(_past_capacity),
}

#: Damage to the pending buffer of any document, base or delta: each
#: used to escape restore as a bare error or restore silently.
DAMAGED_PENDING = {
    "pending-ids-missing": lambda doc: doc["pending"].pop("worker_ids"),
    "pending-null-ids": _pending(worker_ids=None),
    "pending-unequal-columns": _pending(
        worker_ids=[5, 6], locations=pack_floats([1.0, 2.0])
    ),
    "pending-location-one-number": _pending(
        worker_ids=[5], locations=pack_floats([1.0])
    ),
    "pending-location-not-finite": _pending(
        worker_ids=[5], locations=pack_floats([np.nan, 1.0])
    ),
}

#: Damage inside a base document, by id: each edits a parsed base in
#: place, and each must be refused as ``snapshot-bad-format`` rather
#: than raise a bare error or restore silently.
DAMAGED_BASES = {**DAMAGED_FLOAT_COLUMNS, **DAMAGED_PENDING}

#: Damage inside a delta document's body (which only the fold reaches)
#: or its pending buffer, by id: each edits a parsed delta in place, and
#: each must be refused as ``snapshot-bad-format`` rather than raise a
#: bare error or restore silently (a negative reservoir slot would
#: overwrite the last sample).
DAMAGED_DELTAS = {
    "consumed-missing": lambda doc: doc["delta"]["server"].pop("consumed"),
    "reservoir-slot-past-end": _set_slot(99999),
    "reservoir-slot-negative": _set_slot(-1),
    "body-a-list": lambda doc: doc.update(delta=[]),
    "overwrites-a-list": lambda doc: _latencies(doc).update(set_values=[1.0]),
    **DAMAGED_FLOAT_COLUMNS,
    **DAMAGED_PENDING,
}
