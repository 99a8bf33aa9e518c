"""Publication format for HSTs.

Step 1 of the paper's workflow is *publication*: the server must ship the
predefined point set and the tree structure to every client, and the paper
explicitly constructs a complete tree "to simplify the information about
the HST that needs to be communicated". This module is that wire format: a
compact JSON document with the points, the per-point leaf paths, and the
construction parameters — everything a client needs to snap, obfuscate and
verify, and everything an auditor needs to re-run the construction.

Round-trip guarantee: ``hst_from_dict(hst_to_dict(tree))`` reproduces a
tree that is operationally identical (same paths, distances, snapping).
"""

from __future__ import annotations

import json

import numpy as np

from .tree import HST

__all__ = ["hst_to_dict", "hst_from_dict", "hst_to_json", "hst_from_json"]

_FORMAT = "repro-hst"
_VERSION = 1


def hst_to_dict(tree: HST) -> dict:
    """Serialize a tree to a JSON-compatible dict."""
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "depth": tree.depth,
        "branching": tree.branching,
        "metric_scale": tree.metric_scale,
        "beta": tree.beta,
        "permutation": tree.permutation.tolist(),
        "points": tree.points.tolist(),
        "paths": tree.paths.tolist(),
    }


def hst_from_dict(payload: dict, *, validate: bool = True) -> HST:
    """Reconstruct a published tree; validates structure and ranges.

    ``validate=False`` skips the O(N) leaf-uniqueness re-check for trusted
    payloads — the mesh failover path restores shard snapshots this
    process wrote itself and cannot afford the re-validation per restore.
    Structure/range checks in ``HST.__post_init__`` always run.
    """
    if not isinstance(payload, dict):
        raise ValueError("payload must be a dict")
    if payload.get("format") != _FORMAT:
        raise ValueError(f"not a {_FORMAT} document: {payload.get('format')!r}")
    version = payload.get("version")
    if version != _VERSION:
        raise ValueError(f"unsupported version {version!r} (expected {_VERSION})")
    missing = {
        "depth",
        "branching",
        "metric_scale",
        "beta",
        "permutation",
        "points",
        "paths",
    } - set(payload)
    if missing:
        raise ValueError(f"missing fields: {sorted(missing)}")
    tree = HST(
        points=np.asarray(payload["points"], dtype=np.float64),
        depth=int(payload["depth"]),
        branching=int(payload["branching"]),
        paths=np.asarray(payload["paths"], dtype=np.int32),
        metric_scale=float(payload["metric_scale"]),
        beta=float(payload["beta"]),
        permutation=np.asarray(payload["permutation"], dtype=np.intp),
    )
    # HST.__post_init__ validates shapes/ranges; additionally confirm the
    # leaves are one-per-point, which the constructor cannot know.
    if validate and len(
        {tree.path_of(i) for i in range(tree.n_points)}
    ) != tree.n_points:
        raise ValueError("paths are not unique per point")
    return tree


def hst_to_json(tree: HST, indent: int | None = None) -> str:
    """Serialize a tree to a JSON string."""
    return json.dumps(hst_to_dict(tree), indent=indent)


def hst_from_json(text: str) -> HST:
    """Reconstruct a published tree from its JSON string."""
    return hst_from_dict(json.loads(text))
