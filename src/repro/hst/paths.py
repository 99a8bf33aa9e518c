"""Leaf-path algebra for complete c-ary HSTs.

A complete c-ary HST of depth ``D`` has ``c**D`` leaves, but materializing
them is exponential (the paper pads the real tree with *fake* nodes to make
it complete). We therefore represent a leaf purely by its **path**: a
length-``D`` tuple of child indices in ``[0, c)`` read from the root down.
Real leaves carry the paths produced by Algorithm 1; fake leaves are all
remaining tuples. Every quantity the paper needs — LCA level, tree
distance, sibling-set membership — is a pure function of paths, so fake
leaves cost O(D) instead of O(c**D).

Level/index conventions (matching the paper): the root sits at level ``D``
and leaves at level 0; ``path[j]`` is the child index taken at depth ``j``,
i.e. the step from level ``D-j`` down to level ``D-j-1``. An edge entering
level ``i`` from its parent has length ``2**(i+1)``, so two leaves whose LCA
is at level ``l`` are at tree distance ``2**(l+2) - 4`` (which is 0 for
``l = 0``, i.e. identical leaves).

Past the mechanism a leaf travels as one integer, its **leaf index**: the
path read as base-``c`` digits, most significant first
(:func:`path_to_leaf`, :func:`leaf_to_path`). The ancestor at level ``l``
of leaf ``z`` is then ``z // c**l`` and the child taken below it is
``(z // c**(l-1)) % c``, so the whole path algebra above has an integer
twin that the serving path uses.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

Path = tuple[int, ...]

__all__ = [
    "Path",
    "validate_path",
    "common_prefix_length",
    "lca_level",
    "edge_length",
    "tree_distance_for_level",
    "tree_distance",
    "sibling_set_size",
    "enumerate_leaves",
    "sibling_leaves",
    "path_to_leaf",
    "leaf_to_path",
]


def validate_path(path: Path, depth: int, branching: int) -> Path:
    """Check that ``path`` is a well-formed leaf path and return it as a tuple.

    Raises ``ValueError`` on wrong length or out-of-range child indices.
    """
    p = tuple(int(v) for v in path)
    if len(p) != depth:
        raise ValueError(f"path length {len(p)} does not match tree depth {depth}")
    for j, v in enumerate(p):
        if not 0 <= v < branching:
            raise ValueError(
                f"child index {v} at depth {j} outside [0, {branching})"
            )
    return p


def common_prefix_length(a: Path, b: Path) -> int:
    """Number of leading positions on which the two paths agree."""
    if len(a) != len(b):
        raise ValueError(f"paths of different depth: {len(a)} vs {len(b)}")
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def lca_level(a: Path, b: Path) -> int:
    """Level of the least common ancestor of two leaves (0 when ``a == b``)."""
    return len(a) - common_prefix_length(a, b)


def edge_length(level: int) -> int:
    """Length of the edge from a node at ``level`` to its parent: ``2**(level+1)``."""
    if level < 0:
        raise ValueError(f"level must be non-negative, got {level}")
    return 2 ** (level + 1)


def tree_distance_for_level(level: int) -> int:
    """Tree distance between two leaves whose LCA is at ``level``.

    ``sum_{i=0}^{level-1} 2*2**(i+1) = 2**(level+2) - 4``; evaluates to 0 at
    level 0 (identical leaves), matching the paper's Sec. III-C formula.
    """
    if level < 0:
        raise ValueError(f"level must be non-negative, got {level}")
    return 2 ** (level + 2) - 4


def tree_distance(a: Path, b: Path) -> int:
    """Tree distance between two leaves, in tree units."""
    return tree_distance_for_level(lca_level(a, b))


def sibling_set_size(level: int, branching: int) -> int:
    """``|L_i(x)|``: number of leaves whose LCA with ``x`` is at ``level``.

    Equals 1 at level 0 (x itself) and ``(c-1) * c**(level-1)`` above, for a
    complete c-ary tree.
    """
    if level < 0:
        raise ValueError(f"level must be non-negative, got {level}")
    if level == 0:
        return 1
    return (branching - 1) * branching ** (level - 1)


def enumerate_leaves(depth: int, branching: int) -> Iterator[Path]:
    """Yield every leaf path of the complete tree, in lexicographic order.

    Exponential (``c**D`` leaves); intended for small trees in tests and for
    the paper's Algorithm 2 reference implementation.
    """
    yield from product(range(branching), repeat=depth)


def sibling_leaves(x: Path, level: int, branching: int) -> Iterator[Path]:
    """Yield every leaf of ``L_level(x)`` (LCA with ``x`` exactly at ``level``).

    Exponential in ``level``; intended for tests and Algorithm 2.
    """
    depth = len(x)
    if not 0 <= level <= depth:
        raise ValueError(f"level {level} outside [0, {depth}]")
    if level == 0:
        yield tuple(x)
        return
    split = depth - level
    prefix = tuple(x[:split])
    for first in range(branching):
        if first == x[split]:
            continue
        for rest in product(range(branching), repeat=level - 1):
            yield prefix + (first,) + rest


def path_to_leaf(path: Path, branching: int) -> int:
    """Leaf index of ``path``: its child indices read as base-``c`` digits.

    No range check; :meth:`repro.hst.tree.HST.leaf_of_path` is the
    validating form.
    """
    leaf = 0
    for v in path:
        leaf = leaf * branching + int(v)
    return leaf


def leaf_to_path(leaf: int, depth: int, branching: int) -> Path:
    """Inverse of :func:`path_to_leaf` for a tree of the given shape."""
    digits = []
    for _ in range(depth):
        leaf, v = divmod(leaf, branching)
        digits.append(v)
    return tuple(reversed(digits))
