"""The complete c-ary HST produced by Algorithm 1.

:class:`HST` couples three things:

* the predefined point set (its real leaves, one per point);
* the *implicit* complete c-ary tree of depth ``D`` — a leaf is a
  length-``D`` child-index path, fake leaves included
  (see :mod:`repro.hst.paths`);
* the bookkeeping needed by the privacy mechanism and the matcher:
  point-to-path and path-to-point maps, the per-point **leaf index**
  column (a path read as base-``c`` digits, one int per leaf — the form
  every report takes past the mechanism), tree distances, and the real
  branching structure (for introspection and tests).

Tuple paths stay the paper's notation (Algorithms 2-3, the audits);
:meth:`HST.leaf_of_path` and :meth:`HST.path_of_leaf` convert between the
two. A tree is only publishable when its leaf indices fit an int64
(``c**D < 2**63``).

Distances come in two unit systems. *Tree units* are the paper's
``2**(i+1)`` edge lengths on the (possibly rescaled) metric; the privacy
budget ``epsilon`` applies to tree units. :meth:`tree_distance_metric`
converts back to the caller's coordinate units using the recorded
``metric_scale``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..geometry.grid import SnapIndex
from . import paths as pathlib
from .paths import Path

__all__ = ["HST"]


@dataclass(frozen=True)
class HST:
    """A complete c-ary HST over a predefined point set.

    Attributes
    ----------
    points:
        ``(N, 2)`` predefined points; row ``i`` is real leaf ``i``.
    depth:
        ``D``, the number of levels below the root (root at level ``D``,
        leaves at level 0).
    branching:
        ``c``, the arity after completion with fake nodes.
    paths:
        ``(N, D)`` int array; row ``i`` is the root-to-leaf child-index path
        of real leaf ``i``.
    metric_scale:
        Factor by which the input metric was multiplied before construction
        (1.0 unless the minimum inter-point distance was below 1).
    beta, permutation:
        The random draws of Algorithm 1, kept for reproducibility.
    """

    points: np.ndarray
    depth: int
    branching: int
    paths: np.ndarray
    metric_scale: float
    beta: float
    permutation: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.branching < 1:
            raise ValueError(f"branching must be >= 1, got {self.branching}")
        if self.paths.shape != (len(self.points), self.depth):
            raise ValueError(
                f"paths shape {self.paths.shape} inconsistent with "
                f"{len(self.points)} points of depth {self.depth}"
            )
        if self.paths.size and (
            self.paths.min() < 0 or self.paths.max() >= self.branching
        ):
            raise ValueError("path entries outside [0, branching)")
        if self.branching**self.depth >= 2**63:
            raise ValueError(
                f"a depth-{self.depth} tree of branching {self.branching} "
                f"has {self.branching}**{self.depth} leaves; leaf indices "
                "need c**D < 2**63"
            )

    # ------------------------------------------------------------------ #
    # basic shape                                                         #
    # ------------------------------------------------------------------ #

    @property
    def n_points(self) -> int:
        """Number of real leaves (the paper's ``N``)."""
        return len(self.points)

    @property
    def num_leaves(self) -> int:
        """Number of leaves of the *complete* tree, fake ones included."""
        return self.branching**self.depth

    @property
    def max_tree_distance(self) -> int:
        """Distance between two leaves whose LCA is the root."""
        return pathlib.tree_distance_for_level(self.depth)

    # ------------------------------------------------------------------ #
    # leaves and paths                                                    #
    # ------------------------------------------------------------------ #

    def path_of(self, point_index: int) -> Path:
        """Leaf path of real leaf ``point_index``."""
        if not 0 <= point_index < self.n_points:
            raise IndexError(f"point index {point_index} out of range")
        return tuple(int(v) for v in self.paths[point_index])

    @cached_property
    def _path_to_point(self) -> dict[Path, int]:
        return {self.path_of(i): i for i in range(self.n_points)}

    def point_of(self, path: Path) -> int | None:
        """Real-leaf index for ``path``, or ``None`` if the leaf is fake."""
        return self._path_to_point.get(tuple(int(v) for v in path))

    def is_real_leaf(self, path: Path) -> bool:
        """Whether ``path`` denotes one of the predefined points."""
        return self.point_of(path) is not None

    def validate_path(self, path: Path) -> Path:
        """Validate a leaf path against this tree's depth and branching."""
        return pathlib.validate_path(path, self.depth, self.branching)

    @cached_property
    def leaf_index(self) -> np.ndarray:
        """``(N,)`` int64 column: row ``i`` is ``paths[i]`` read as
        base-``c`` digits, the leaf index of real leaf ``i``."""
        weights = self.branching ** np.arange(
            self.depth - 1, -1, -1, dtype=np.int64
        )
        column = self.paths.astype(np.int64) @ weights
        column.flags.writeable = False
        return column

    def leaf_of_path(self, path: Path) -> int:
        """Leaf index of a (validated) leaf path."""
        return pathlib.path_to_leaf(self.validate_path(path), self.branching)

    def path_of_leaf(self, leaf: int) -> Path:
        """Leaf path of a leaf index in ``[0, c**D)``."""
        leaf = int(leaf)
        if not 0 <= leaf < self.num_leaves:
            raise ValueError(f"leaf {leaf} outside [0, {self.num_leaves})")
        return pathlib.leaf_to_path(leaf, self.depth, self.branching)

    # ------------------------------------------------------------------ #
    # distances                                                           #
    # ------------------------------------------------------------------ #

    def lca_level(self, a: Path, b: Path) -> int:
        """Level of the least common ancestor of two leaves."""
        return pathlib.lca_level(tuple(a), tuple(b))

    def tree_distance(self, a: Path, b: Path) -> int:
        """Distance between two leaves in tree units."""
        return pathlib.tree_distance(tuple(a), tuple(b))

    def tree_distance_metric(self, a: Path, b: Path) -> float:
        """Tree distance converted to the caller's coordinate units."""
        return self.tree_distance(a, b) / self.metric_scale

    def tree_distance_points(self, i: int, j: int) -> int:
        """Tree distance between real leaves ``i`` and ``j`` in tree units."""
        return self.tree_distance(self.path_of(i), self.path_of(j))

    # ------------------------------------------------------------------ #
    # real structure introspection                                        #
    # ------------------------------------------------------------------ #

    @cached_property
    def real_children(self) -> dict[Path, int]:
        """Real child count per real internal node (keyed by path prefix).

        The root is the empty prefix ``()``. Fake nodes never appear: they
        have, by definition, no real descendants.
        """
        counts: dict[Path, set[int]] = {}
        for row in self.paths:
            prefix: tuple[int, ...] = ()
            for v in row:
                counts.setdefault(prefix, set()).add(int(v))
                prefix = prefix + (int(v),)
        return {k: len(v) for k, v in counts.items()}

    @property
    def real_node_count(self) -> int:
        """Number of real nodes, internal nodes plus real leaves."""
        return len(self.real_children) + self.n_points

    # ------------------------------------------------------------------ #
    # snapping                                                            #
    # ------------------------------------------------------------------ #

    @cached_property
    def snap_index(self) -> SnapIndex:
        """Nearest-predefined-point index over this tree's leaves."""
        return SnapIndex(self.points)

    def leaf_for_location(self, location) -> Path:
        """Snap a coordinate to its nearest predefined point's leaf path."""
        return self.path_of(self.snap_index.snap(location))

    def leaves_for_locations(self, locations) -> np.ndarray:
        """Snap coordinates to their nearest predefined points' leaf
        indices (int64; :meth:`leaf_for_location` gives one leaf path)."""
        return self.leaf_index[self.snap_index.snap_many(locations)]
