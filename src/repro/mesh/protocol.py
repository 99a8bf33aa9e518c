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
:class:`~repro.cluster.worker.ShardHost`. Every op but ``events`` has a
JSON-pure body and rides bin1's generic layout:

=============  ==========================  ===============================
op             body                        reply
=============  ==========================  ===============================
``configure``  ``batch_size``              ``{}``
``create``     ``key``, ``spec``           ``{"key": ...}``
``load``       ``key``, ``chain`` (the     ``{"key": ...}``
               base+delta chain's texts)
``drop``       ``key``                     ``{"key": ...}``
``events``     ``keys``, ``rows``          an ``events_reply`` document:
               [, ``trace``]               ``{"workers": [wid, ...]}``
                                           [, ``spans``]
``snapshot``   ``key`` [, ``mode``,        the head ``{"key", "kind",
               ``checkpoint``,             "checkpoint", "parent"}``
               ``parent``]                 and ``"text"``
``flush``      —                           ``{}``
``report``     —                           ``{"report": {key: row}}``
=============  ==========================  ===============================

A checkpoint crosses the wire as text. The worker that takes a
snapshot makes the document into its JSON text once
(:func:`~repro.cluster.snapshot.snapshot_text`) and answers it beside a
head: the shard ``key``, the document's ``kind`` (``"base"`` or
``"delta"``), its ``checkpoint`` id and, for a delta, the ``parent`` it
chains onto. The coordinator checks the head against its request and
its chain tip and keeps the text without parsing it; a ``load`` sends a
shard's chain of texts back unchanged, and the restoring worker parses
each one (:func:`~repro.cluster.snapshot.parse_snapshot`). A text that
does not parse, or carries another snapshot version, answers ``fail``
with its :class:`~repro.cluster.snapshot.SnapshotError` code.

An ``events`` body is a delivery's journal rows as they sit in the
coordinator's :class:`~repro.cluster.dispatch.FamilyJournal`: ``keys``
is the family's table of shard keys and ``rows`` a structured array of
:data:`~repro.cluster.dispatch.EVENT_ROW_DTYPE` rows (key index, kind,
id, x, y). Its answer is an ``events_reply`` document
(:func:`events_reply_doc`) whose ``workers`` holds one entry per task
row, in row order: the assigned worker id or ``null``. Both ride
fixed-width row layouts of their own
(:data:`~repro.gateway.protocol.MESH_EVENTS_TAG`,
:data:`~repro.gateway.protocol.MESH_EVENTS_REPLY_TAG`), traced or not:
the op's ``trace`` context and the reply's ``spans`` ride a JSON tail.
The bin1 decoder checks the frame's shape; the worker checks the rows
(:func:`event_columns`), because they come from another process.

The ``snapshot`` extras are the delta-checkpoint protocol: ``mode``
``"delta"`` asks for only the cells changed since ``parent`` (the
worker falls back to a base document when it no longer has that
cursor), and ``checkpoint`` is the id the produced document carries so
later deltas can chain onto it. A request without the extras gets a
base snapshot with no checkpoint id; the coordinator always sends them,
and refuses a head that names another checkpoint id, or a delta it did
not ask for.

Every op carries a ``seq`` the worker echoes in its reply, so a
coordinator may keep several ops in flight per peer (different shard
families pipeline over one socket) and still match answers. Failures
come back as a ``fail`` document bearing the api error taxonomy's
stable codes (a chain that will not restore, its snapshot code).
Malformed documents raise
:class:`~repro.api.errors.ValidationFailed` — never a raw ``KeyError``.
"""

from __future__ import annotations

import numpy as np

from ..api.errors import UnsupportedVersion, ValidationFailed
from ..cluster.dispatch import EVENT_ROW_DTYPE

__all__ = [
    "MESH_SCHEMA",
    "MESH_VERSION",
    "OP_KINDS",
    "event_columns",
    "events_reply_doc",
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

_REPLY_KINDS = ("reply", "events_reply", "fail")


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


def events_reply_doc(seq: int, body: dict | None = None) -> dict:
    """A worker's success answer to the ``events`` op carrying ``seq``:
    ``workers``, one per task row (plus ``spans`` when traced)."""
    return {
        "schema": MESH_SCHEMA,
        "version": MESH_VERSION,
        "kind": "events_reply",
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
    ``kind`` is ``"reply"``, ``"events_reply"`` or ``"fail"``."""
    return _check_envelope(doc, _REPLY_KINDS)


def event_columns(body: dict) -> tuple[list, list, list, list]:
    """Check an ``events`` body's rows; returns ``(keys, ids, xy,
    is_task)`` with one shard key, int id, ``[x, y]`` float pair and
    bool per row — the columns :meth:`~repro.cluster.worker.ShardHost
    .ingest` takes, exactly as a JSON decode of them would read.

    Raises ``ValueError`` for a body without its key table and rows, a
    row kind other than 0 (worker) or 1 (task), or a key index outside
    the table.
    """
    table, rows = body.get("keys"), body.get("rows")
    if type(table) is not list or not (
        type(rows) is np.ndarray and rows.dtype == EVENT_ROW_DTYPE
    ):
        raise ValueError("events body must carry a key table and event rows")
    kinds, index = rows["kind"], rows["key"]
    if len(rows) and kinds.max() > 1:
        raise ValueError(
            f"events row kinds must be 0 or 1, got {int(kinds.max())}"
        )
    if len(rows) and index.max() >= len(table):
        raise ValueError(
            f"events key indices must index the {len(table)}-key table, "
            f"got {int(index.max())}"
        )
    xy = np.empty((len(rows), 2), dtype=np.float64)
    xy[:, 0] = rows["x"]
    xy[:, 1] = rows["y"]
    return (
        [table[k] for k in index.tolist()],
        rows["id"].tolist(),
        xy.tolist(),
        (kinds == 1).tolist(),
    )
