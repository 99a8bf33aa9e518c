"""Hierarchically Well-Separated Trees (paper Sec. III-B)."""

from .build import build_hst
from .paths import (
    Path,
    common_prefix_length,
    edge_length,
    enumerate_leaves,
    lca_level,
    leaf_to_path,
    path_to_leaf,
    sibling_leaves,
    sibling_set_size,
    tree_distance,
    tree_distance_for_level,
    validate_path,
)
from .serialize import hst_from_dict, hst_from_json, hst_to_dict, hst_to_json
from .tree import HST
from .visualize import render_tree

__all__ = [
    "HST",
    "Path",
    "build_hst",
    "common_prefix_length",
    "edge_length",
    "enumerate_leaves",
    "lca_level",
    "leaf_to_path",
    "path_to_leaf",
    "sibling_leaves",
    "sibling_set_size",
    "tree_distance",
    "tree_distance_for_level",
    "hst_from_dict",
    "hst_from_json",
    "hst_to_dict",
    "hst_to_json",
    "render_tree",
    "validate_path",
]
