"""The mesh op protocol: coordinator↔worker documents, sans-IO.

A mesh connection starts as any gateway connection does — the worker
sends a :func:`~repro.gateway.protocol.hello_doc` whose feature list
carries ``role:mesh-worker`` (and, for a rejoining host, its
``family:<id>`` advertisements), the coordinator answers a ``welcome``
granting the role. Everything after the handshake is this schema:
``repro.mesh`` v1 documents inside the same length-prefixed bin1 frames
the gateway speaks after its welcome
(:func:`~repro.gateway.protocol.encode_frame` /
:class:`~repro.gateway.protocol.FrameDecoder`), so the mesh reuses the
gateway's framing, handshake and error taxonomy wholesale instead of
inventing a second wire layer.

Coordinator → worker *ops* drive a
:class:`~repro.cluster.worker.ShardHost`, with every payload JSON-pure —
shard snapshots already are (:mod:`repro.cluster.snapshot`), which is
what lets checkpoints cross host boundaries unchanged:

=============  ==========================  ===============================
op             body                        reply body
=============  ==========================  ===============================
``configure``  ``batch_size``              ``{}``
``create``     ``key``, ``spec``           ``{"key": ...}``
``load``       ``key``, ``snapshots``      ``{"key": ...}``
               (a base+delta chain)
``drop``       ``key``                     ``{"key": ...}``
``events``     ``keys``, ``key``, ``ids``, ``{"workers": [wid, ...]}``
               ``xy``, ``is_task``
``snapshot``   ``key`` [, ``mode``,        ``{"key": ..., "snapshot": ...}``
               ``checkpoint``,
               ``parent``]
``flush``      —                           ``{}``
``report``     —                           ``{"report": {key: row}}``
=============  ==========================  ===============================

An ``events`` body carries a delivery's journal rows as columns
(:func:`events_body`): ``keys`` is the frame's table of shard keys,
``key`` one index into it per row, and ``ids``, ``xy`` (``[x, y]``
pairs) and ``is_task`` the rows' ids, locations and kinds. The reply's
``workers`` holds one entry per task row, in row order: the assigned
worker id or ``null``. The worker checks the columns
(:func:`event_columns`), because they come from another process.

The ``snapshot`` extras are the delta-checkpoint protocol: ``mode``
``"delta"`` asks for only the cells changed since ``parent`` (the
worker falls back to a base document when it no longer has that
cursor), and ``checkpoint`` is the id the produced document carries so
later deltas can chain onto it. Old coordinators that omit the extras
get plain base snapshots; old workers that ignore them answer bases the
coordinator absorbs as rebases — the fields are additive, not a wire
version bump.

Every op carries a ``seq`` the worker echoes in its reply, so a
coordinator may keep several ops in flight per peer (different shard
families pipeline over one socket) and still match answers. Failures
come back as a ``fail`` document bearing the api error taxonomy's
stable codes. Malformed documents raise
:class:`~repro.api.errors.ValidationFailed` — never a raw ``KeyError``.
"""

from __future__ import annotations

from ..api.errors import UnsupportedVersion, ValidationFailed

__all__ = [
    "MESH_SCHEMA",
    "MESH_VERSION",
    "OP_KINDS",
    "event_columns",
    "events_body",
    "op_doc",
    "reply_doc",
    "fail_doc",
    "parse_op",
    "parse_reply",
]

MESH_SCHEMA = "repro.mesh"
MESH_VERSION = 1

#: Ops a worker serves: the v1 vocabulary, each one sent by the coordinator.
OP_KINDS = (
    "configure",
    "create",
    "load",
    "drop",
    "events",
    "snapshot",
    "flush",
    "report",
)

_REPLY_KINDS = ("reply", "fail")


def op_doc(op: str, seq: int, body: dict | None = None) -> dict:
    """One coordinator→worker op document."""
    if op not in OP_KINDS:
        raise ValueError(f"unknown mesh op {op!r}")
    return {
        "schema": MESH_SCHEMA,
        "version": MESH_VERSION,
        "kind": op,
        "seq": int(seq),
        "body": dict(body or {}),
    }


def reply_doc(seq: int, body: dict | None = None) -> dict:
    """A worker's success answer to the op carrying ``seq``."""
    return {
        "schema": MESH_SCHEMA,
        "version": MESH_VERSION,
        "kind": "reply",
        "seq": int(seq),
        "body": dict(body or {}),
    }


def fail_doc(seq: int, code: str, message: str, detail: str = "") -> dict:
    """A worker's failure answer: the api error taxonomy, mesh-framed."""
    return {
        "schema": MESH_SCHEMA,
        "version": MESH_VERSION,
        "kind": "fail",
        "seq": int(seq),
        "body": {
            "code": str(code),
            "message": str(message),
            "detail": str(detail),
        },
    }


def _check_envelope(doc, kinds) -> tuple[str, int, dict]:
    if not isinstance(doc, dict):
        raise ValidationFailed(
            f"mesh document must be an object, got {type(doc).__name__}"
        )
    schema = doc.get("schema")
    if schema != MESH_SCHEMA:
        raise UnsupportedVersion(
            f"foreign mesh schema {schema!r} (this peer speaks {MESH_SCHEMA!r})"
        )
    version = doc.get("version")
    if not isinstance(version, int) or version < 1 or version > MESH_VERSION:
        raise UnsupportedVersion(
            f"mesh protocol version {version!r} outside supported "
            f"range 1..{MESH_VERSION}"
        )
    kind = doc.get("kind")
    if kind not in kinds:
        raise ValidationFailed(f"unexpected mesh document kind {kind!r}")
    seq = doc.get("seq")
    if not isinstance(seq, int) or seq < 0:
        raise ValidationFailed(f"mesh seq must be a non-negative int, got {seq!r}")
    body = doc.get("body")
    if not isinstance(body, dict):
        raise ValidationFailed("mesh document body must be an object")
    return kind, seq, body


def parse_op(doc) -> tuple[str, int, dict]:
    """Validate one op document; returns ``(op, seq, body)``."""
    return _check_envelope(doc, OP_KINDS)


def parse_reply(doc) -> tuple[str, int, dict]:
    """Validate one reply document; returns ``(kind, seq, body)`` where
    ``kind`` is ``"reply"`` or ``"fail"``."""
    return _check_envelope(doc, _REPLY_KINDS)


def events_body(rows) -> dict:
    """The ``events`` op body for (at least one) journal rows ``(key,
    id, [x, y], is_task)``: the rows transposed into columns, keys as
    indices into a per-frame table."""
    keys, ids, xy, is_task = zip(*rows)
    table: dict[str, int] = {}
    index = [table.setdefault(key, len(table)) for key in keys]
    return {
        "keys": list(table),
        "key": index,
        "ids": list(ids),
        "xy": list(xy),
        "is_task": list(is_task),
    }


def event_columns(body: dict) -> tuple[list, list, list, list]:
    """Check an ``events`` body; returns ``(keys, ids, xy, is_task)``
    with one shard key per row.

    Raises ``ValueError`` for columns that are not lists or differ in
    length, a key index outside the table, a kind that is not a bool or
    an id that is not an int — a silent ``zip`` would drop rows instead.
    """
    table, index, ids, xy, is_task = (
        body.get(name) for name in ("keys", "key", "ids", "xy", "is_task")
    )
    if not all(type(col) is list for col in (table, index, ids, xy, is_task)):
        raise ValueError("events columns must be lists")
    if not len(index) == len(ids) == len(xy) == len(is_task):
        raise ValueError(
            f"events columns differ in length: key {len(index)}, ids "
            f"{len(ids)}, xy {len(xy)}, is_task {len(is_task)}"
        )
    if not set(map(type, index)) <= {int} or (
        index and not 0 <= min(index) <= max(index) < len(table)
    ):
        raise ValueError(
            f"events key indices must index the {len(table)}-key table"
        )
    if not set(map(type, is_task)) <= {bool}:
        raise ValueError("events kinds must be bools")
    if not set(map(type, ids)) <= {int}:
        raise ValueError("events ids must be ints")
    return [table[i] for i in index], ids, xy, is_task
