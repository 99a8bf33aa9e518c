"""The ``bin1`` binary payload codec: every frame after the handshake.

The ``hello``/``welcome`` pair travels as JSON text; from the welcome
on, every frame in either direction is bin1. Framing (u32-BE length
prefix), the document shapes and the error taxonomy are those of the
handshake; only the payload encoding differs:

```
payload := magic u8 (0xB1) | layout-version u8 (0x01) | tag u8 | body
```

bin1 keeps one layout per job:

* :data:`~repro.gateway.protocol.GENERIC_TAG` — the whole document as
  embedded JSON. It is *total* (any dict json can carry, bin1 carries)
  and decodes to exactly the document a JSON round trip produces, so the
  codec never changes what a backend sees. Flushes, reports, errors,
  every mesh op and reply but the two below (checkpoint snapshots and
  ``load`` requests included) and goodbyes all ride it;
* :data:`~repro.gateway.protocol.STREAM_BATCH_TAG` /
  :data:`~repro.gateway.protocol.STREAM_RESULT_TAG` — a stream window
  of register/submit events (:class:`~repro.api.messages.StreamWindow`,
  a sync call's of one row), and its answer
  (:class:`~repro.api.messages.WindowResult`): a seq and row-count
  head, then fixed-width rows, and behind a window's rows a JSON tail
  holding its trace context, empty when untraced. Traced or not, a
  window and its answer ride only these tags (neither has a document
  form). :func:`encode_stream_batch` and friends go straight
  between the messages' columns and the rows, through one numpy
  structured dtype per layout, without building documents or per-row
  objects;
* :data:`~repro.gateway.protocol.MESH_EVENTS_TAG` /
  :data:`~repro.gateway.protocol.MESH_EVENTS_REPLY_TAG` — a mesh
  ``events`` op (a slice of the coordinator's journal, written as its
  :data:`~repro.cluster.dispatch.EVENT_ROW_DTYPE` bytes behind the
  family's key table) and its ``events_reply`` (an assigned flag and a
  worker per task row), each with the same JSON tail for the op's trace
  context or the reply's spans. They are documents too:
  :func:`encode_bin1` picks them from a document's schema and kind, and
  :func:`decode_bin1` gives the documents back, the op's rows as a
  structured array.

:func:`decode_bin1` reads the generic and mesh row layouts and one more
document layout, :data:`~repro.gateway.protocol.PACKED_DOC_TAG` (a
packed value tree, :func:`encode_packed`), which no mesh op or gateway
frame produces; the stream row layouts have their own decoders.
Decoding is zero-copy: the caller may hand in the ``memoryview`` slice
straight out of the receive buffer; fields are unpacked in place and
strings decoded directly from the view (only a mesh op's rows are
copied out, as they outlive the buffer). Every malformed input — bad
magic, foreign layout version, a tag the decoder does not read,
truncation at any boundary, lying inner lengths and counts, a tail that
is not a JSON object, trailing garbage — raises a structured
:mod:`repro.api.errors` code, never a bare ``struct.error``; the fuzz
suite drives this promise.

Tag numbers are owned by :mod:`repro.gateway.protocol` (lint rule
RL403); this module holds only the encode/decode machinery.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from ..api.errors import UnsupportedVersion, ValidationFailed
from ..api.messages import StreamWindow, WindowResult, wire_trace
from ..cluster.dispatch import EVENT_ROW_DTYPE
from ..mesh.protocol import MESH_SCHEMA, MESH_VERSION
from .protocol import (
    BIN1_MAGIC,
    BIN1_WIRE_VERSION,
    GENERIC_TAG,
    MESH_EVENTS_REPLY_TAG,
    MESH_EVENTS_TAG,
    PACKED_DOC_TAG,
    STREAM_BATCH_TAG,
    STREAM_RESULT_TAG,
)

__all__ = [
    "encode_bin1",
    "decode_bin1",
    "encode_packed",
    "encode_stream_batch",
    "decode_stream_batch",
    "encode_stream_result",
    "decode_stream_result",
]

_PREFIX = struct.Struct(">BBB")  # magic, layout version, tag
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")
_EVENTS_HEAD = struct.Struct(">QII")  # seq, row count, key count
_ROWS_HEAD = struct.Struct(">QI")  # seq, row count

# columnar stream rows (see STREAM_BATCH_TAG / STREAM_RESULT_TAG):
# fixed width, packed big-endian, no per-row nesting — a whole window
# is one array copy each way; row i has the head's seq + i
_WINDOW_DTYPE = np.dtype(  # >Bqddd, 33 bytes
    [("kind", "u1"), ("id", ">i8"), ("x", ">f8"), ("y", ">f8"), ("t", ">f8")]
)
_RESULT_DTYPE = np.dtype(  # >Bqq, 17 bytes: worker is 0 unless kind 1
    [("kind", "u1"), ("id", ">i8"), ("worker", ">i8")]
)

# the mesh events reply: one row per task row of the op
_EVENTS_REPLY_DTYPE = np.dtype(  # >Bq, 9 bytes: worker is 0 unless assigned
    [("assigned", "u1"), ("worker", ">i8")]
)

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


# --------------------------------------------------------------------- #
# documents                                                              #
# --------------------------------------------------------------------- #


def encode_bin1(doc: dict) -> bytes:
    """One document -> one payload (no length prefix).

    A mesh ``events`` op and its ``events_reply`` answer take their row
    layouts (:data:`~repro.gateway.protocol.MESH_EVENTS_TAG`,
    :data:`~repro.gateway.protocol.MESH_EVENTS_REPLY_TAG`); every other
    document rides GENERIC_TAG. The layout follows from the document's
    schema and kind alone.
    """
    if not isinstance(doc, dict):
        raise ValidationFailed(
            f"frame document must be an object, got {type(doc).__name__}"
        )
    if doc.get("schema") == MESH_SCHEMA:
        kind = doc.get("kind")
        if kind == "events":
            return _encode_events(doc)
        if kind == "events_reply":
            return _encode_events_reply(doc)
    body = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    return _PREFIX.pack(BIN1_MAGIC, BIN1_WIRE_VERSION, GENERIC_TAG) + body


class _Reader:
    """Bounds-checked cursor over one payload view; all failures are
    structured ``invalid-request`` errors, never ``struct.error``."""

    __slots__ = ("view", "pos", "end")

    def __init__(self, view, pos: int, end: int) -> None:
        self.view = view
        self.pos = pos
        self.end = end

    def need(self, n: int) -> int:
        start = self.pos
        if self.end - start < n:
            raise ValidationFailed(
                f"bin1 payload truncated: needed {n} bytes at offset "
                f"{start}, {self.end - start} remain"
            )
        self.pos = start + n
        return start

    def unpack(self, st: struct.Struct):
        return st.unpack_from(self.view, self.need(st.size))

    def done(self) -> None:
        if self.pos != self.end:
            raise ValidationFailed(
                f"bin1 payload has {self.end - self.pos} trailing bytes "
                f"after its body"
            )


def _open(payload) -> tuple[_Reader, int]:
    """Validate a payload's bin1 prefix; a cursor after it, and the tag."""
    view = memoryview(payload) if not isinstance(payload, memoryview) else payload
    r = _Reader(view, 0, len(view))
    magic, version, tag = r.unpack(_PREFIX)
    if magic != BIN1_MAGIC:
        raise ValidationFailed(
            f"bin1 payload starts with byte {magic:#04x}, "
            f"expected {BIN1_MAGIC:#04x}"
        )
    if version != BIN1_WIRE_VERSION:
        raise UnsupportedVersion(
            f"bin1 layout version {version}, this peer speaks "
            f"{BIN1_WIRE_VERSION}"
        )
    return r, tag


def decode_bin1(payload) -> dict:
    """One document payload (bytes or memoryview) -> the document: the
    GENERIC_TAG, PACKED_DOC_TAG and mesh events layouts. Any other tag
    is ``invalid-request``."""
    r, tag = _open(payload)
    if tag == MESH_EVENTS_TAG:
        return _decode_events(r)
    if tag == MESH_EVENTS_REPLY_TAG:
        return _decode_events_reply(r)
    if tag == GENERIC_TAG:
        try:
            doc = json.loads(str(r.view[r.pos : r.end], "utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ValidationFailed(
                f"bin1 generic body is not valid JSON: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
    elif tag == PACKED_DOC_TAG:
        doc = _unpack_value(r, 1)
        r.done()
    else:
        raise ValidationFailed(
            f"bin1 frame tag {tag:#04x} is not a document layout"
        )
    if not isinstance(doc, dict):
        raise ValidationFailed(
            f"bin1 document body must encode an object, "
            f"got {type(doc).__name__}"
        )
    return doc


# --------------------------------------------------------------------- #
# columnar stream rows                                                   #
# --------------------------------------------------------------------- #
#
# A window's columns copy straight into fixed-width rows (and back)
# without ever building documents or per-row objects, on traced and
# untraced sessions alike: the trace context rides the window's JSON
# tail. These four functions are the only readers and writers of
# STREAM_BATCH / STREAM_RESULT.


def _stream_rows(payload, expect_tag: int, dtype: np.dtype):
    """Validate a stream payload's prefix, tag and head; a cursor past
    its rows, the seq, the row count and the rows' offset."""
    r, tag = _open(payload)
    if tag != expect_tag:
        raise ValidationFailed(
            f"expected bin1 stream tag {expect_tag:#04x}, got {tag:#04x}"
        )
    seq, count = r.unpack(_ROWS_HEAD)
    start = r.need(count * dtype.itemsize)
    return r, seq, count, start


def encode_stream_batch(window, trace: dict | None = None) -> bytes:
    """A :class:`~repro.api.messages.StreamWindow` -> one STREAM_BATCH
    payload: the head, one row per event, then the JSON tail holding
    ``trace`` (a trace context dict; empty when ``None``).

    Fidelity rule: a row carries exactly what the window holds — ids as
    int64, coordinates and times as float64, widened the way ``float()``
    does — so the far side sees equal columns. A window the rows cannot
    carry (a seq outside the head's u64, an id outside int64, a column
    that is not numeric) is ``invalid-request``; the validator refuses
    the same windows on every backend. An empty window is zero rows.
    """
    if type(window) is not StreamWindow:
        raise ValidationFailed(
            f"stream rows carry a StreamWindow, not {type(window).__name__}"
        )
    rows = np.empty(len(window), dtype=_WINDOW_DTYPE)
    try:
        head = _ROWS_HEAD.pack(window.seq, len(rows))
        rows["kind"] = window.is_task
        rows["id"] = window.ids
        rows["x"] = window.xy[:, 0]
        rows["y"] = window.xy[:, 1]
        rows["t"] = window.times
    except (OverflowError, TypeError, ValueError, struct.error) as exc:
        raise ValidationFailed(
            f"stream window does not fit its rows: {type(exc).__name__}: {exc}"
        ) from exc
    return b"".join((
        _PREFIX.pack(BIN1_MAGIC, BIN1_WIRE_VERSION, STREAM_BATCH_TAG),
        head,
        rows.tobytes(),
        _tail({"trace": trace} if trace else {}, ()),
    ))


def decode_stream_batch(payload) -> tuple[StreamWindow, dict | None]:
    """One STREAM_BATCH payload -> its :class:`~repro.api.messages
    .StreamWindow`, columns straight off the rows, and the trace context
    dict its tail carries (``None`` when there is none).

    Malformed bytes raise the same structured errors as
    :func:`decode_bin1`: truncation, a lying row count, bad row kinds, a
    tail that is not a JSON object and trailing garbage are all
    ``invalid-request``, a foreign layout version is
    ``unsupported-version``.
    """
    r, seq, count, start = _stream_rows(payload, STREAM_BATCH_TAG, _WINDOW_DTYPE)
    trace = wire_trace(_read_tail(r))
    rows = np.frombuffer(r.view, _WINDOW_DTYPE, count, start)
    kinds = rows["kind"]
    bad = np.flatnonzero(kinds > 1)
    if len(bad):
        raise ValidationFailed(
            f"bin1 stream row kind must be 0 or 1, got {kinds[bad[0]]}"
        )
    xy = np.empty((count, 2), dtype=np.float64)
    xy[:, 0] = rows["x"]
    xy[:, 1] = rows["y"]
    window = StreamWindow(
        seq, (kinds == 1).tolist(), rows["id"].tolist(), xy, rows["t"].tolist()
    )
    return window, trace


def encode_stream_result(result) -> bytes:
    """A :class:`~repro.api.messages.WindowResult` -> one STREAM_RESULT
    payload: the head, then one row per window row. Row kinds: 0 a
    registered worker, 1 an assigned task (its worker in the last
    field), 2 an unassigned task. A result the rows cannot carry is
    ``invalid-request``."""
    if type(result) is not WindowResult:
        raise ValidationFailed(
            f"stream rows carry a WindowResult, not {type(result).__name__}"
        )
    rows = np.zeros(len(result), dtype=_RESULT_DTYPE)
    try:
        head = _ROWS_HEAD.pack(result.seq, len(rows))
        kinds = np.asarray(result.is_task, dtype=np.uint8)
        tasks = np.flatnonzero(kinds)
        if len(tasks) != len(result.workers):
            raise ValueError(
                f"{len(result.workers)} outcomes for {len(tasks)} task rows"
            )
        kinds[tasks] = [1 if w is not None else 2 for w in result.workers]
        rows["kind"] = kinds
        rows["id"] = result.ids
        rows["worker"][tasks] = [0 if w is None else w for w in result.workers]
    except (OverflowError, TypeError, ValueError, struct.error) as exc:
        raise ValidationFailed(
            f"window result does not fit its rows: {type(exc).__name__}: {exc}"
        ) from exc
    return b"".join((
        _PREFIX.pack(BIN1_MAGIC, BIN1_WIRE_VERSION, STREAM_RESULT_TAG),
        head,
        rows.tobytes(),
    ))


def decode_stream_result(payload) -> WindowResult:
    """One STREAM_RESULT payload -> its :class:`~repro.api.messages
    .WindowResult`."""
    r, seq, count, start = _stream_rows(payload, STREAM_RESULT_TAG, _RESULT_DTYPE)
    r.done()
    rows = np.frombuffer(r.view, _RESULT_DTYPE, count, start)
    kinds = rows["kind"]
    worker = rows["worker"]
    bad = np.flatnonzero(kinds > 2)
    if len(bad):
        raise ValidationFailed(
            f"bin1 result row kind must be 0, 1 or 2, got {kinds[bad[0]]}"
        )
    # one canonical byte string per answer: the worker slot of a kind 0
    # or 2 row must be zero, anything else is damage
    bad = np.flatnonzero((kinds != 1) & (worker != 0))
    if len(bad):
        k = bad[0]
        raise ValidationFailed(
            f"bin1 result row kind {kinds[k]} carries a nonzero worker "
            f"field {worker[k]}"
        )
    is_task = kinds != 0
    return WindowResult(
        seq,
        is_task.tolist(),
        rows["id"].tolist(),
        [
            w if k == 1 else None
            for k, w in zip(kinds[is_task].tolist(), worker[is_task].tolist())
        ],
    )


# --------------------------------------------------------------------- #
# mesh events rows                                                       #
# --------------------------------------------------------------------- #
#
# A mesh delivery is a slice of the coordinator's journal, already in
# EVENT_ROW_DTYPE rows: the op writes those bytes as they are, and the
# worker reads them back as one array. Only the key table, the seqs and
# the JSON tail (trace context one way, spans the other; empty when
# untraced; a stream window's tail is the same) are framed around them. The decoder checks the frame's
# shape; the rows' own values (kinds, key indices) are the op
# handler's to check, so damage there answers ``fail`` for its seq.

_EVENTS_FIELDS = ("keys", "rows")


def _mesh_head(doc: dict, tag: int) -> tuple[bytes, dict]:
    """The bin1 prefix of a mesh row document, checked; and its body."""
    if doc.get("version") != MESH_VERSION:
        raise ValidationFailed(
            f"mesh {doc.get('kind')!r} rows are mesh version {MESH_VERSION}, "
            f"got {doc.get('version')!r}"
        )
    body = doc.get("body")
    if not isinstance(body, dict):
        raise ValidationFailed("mesh document body must be an object")
    return _PREFIX.pack(BIN1_MAGIC, BIN1_WIRE_VERSION, tag), body


def _tail(body: dict, fields) -> bytes:
    """The u32-length-prefixed JSON tail of a row payload: every body
    field but the rows'."""
    extra = {k: v for k, v in body.items() if k not in fields}
    if not extra:
        return _U32.pack(0)
    raw = json.dumps(extra, separators=(",", ":")).encode("utf-8")
    return _U32.pack(len(raw)) + raw


def _read_tail(r: _Reader) -> dict:
    """The JSON tail's fields (``{}`` when empty), at the payload's end."""
    (size,) = r.unpack(_U32)
    start = r.need(size)
    r.done()
    if not size:
        return {}
    try:
        extra = json.loads(str(r.view[start : start + size], "utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ValidationFailed(
            f"bin1 rows tail is not valid JSON: {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(extra, dict):
        raise ValidationFailed(
            f"bin1 rows tail must encode an object, got {type(extra).__name__}"
        )
    return extra


def _encode_events(doc: dict) -> bytes:
    prefix, body = _mesh_head(doc, MESH_EVENTS_TAG)
    keys, rows = body.get("keys"), body.get("rows")
    if not (type(rows) is np.ndarray and rows.dtype == EVENT_ROW_DTYPE):
        raise ValidationFailed("mesh events rows must be an EVENT_ROW_DTYPE array")
    try:
        names = [key.encode("ascii") for key in keys]
        head = _EVENTS_HEAD.pack(doc["seq"], len(rows), len(names))
        table = b"".join(bytes((len(name),)) + name for name in names)
    except (AttributeError, TypeError, ValueError, struct.error) as exc:
        raise ValidationFailed(
            f"mesh events op does not fit its rows: {type(exc).__name__}: {exc}"
        ) from exc
    return b"".join((prefix, head, table, rows.tobytes(), _tail(body, _EVENTS_FIELDS)))


def _decode_events(r: _Reader) -> dict:
    seq, count, n_keys = r.unpack(_EVENTS_HEAD)
    # every name costs at least its length byte: a lying count fails here
    if n_keys > r.end - r.pos:
        raise ValidationFailed(
            f"mesh events key count {n_keys} exceeds the "
            f"{r.end - r.pos} payload bytes that remain"
        )
    view, keys = r.view, []
    for _ in range(n_keys):
        size = view[r.need(1)]
        start = r.need(size)
        try:
            keys.append(str(view[start : start + size], "ascii"))
        except UnicodeDecodeError as exc:
            raise ValidationFailed(
                f"mesh events key name is not ASCII: {exc}"
            ) from exc
    start = r.need(count * EVENT_ROW_DTYPE.itemsize)
    # a copy: the rows outlive the receive buffer they arrived in
    rows = np.frombuffer(view, EVENT_ROW_DTYPE, count, start).copy()
    extra = _read_tail(r)
    return {
        "schema": MESH_SCHEMA,
        "version": MESH_VERSION,
        "kind": "events",
        "seq": seq,
        "body": {**extra, "keys": keys, "rows": rows},
    }


def _encode_events_reply(doc: dict) -> bytes:
    prefix, body = _mesh_head(doc, MESH_EVENTS_REPLY_TAG)
    workers = body.get("workers")
    if type(workers) is not list:
        raise ValidationFailed("mesh events reply workers must be a list")
    rows = np.zeros(len(workers), dtype=_EVENTS_REPLY_DTYPE)
    try:
        head = _ROWS_HEAD.pack(doc["seq"], len(rows))
        rows["assigned"] = [w is not None for w in workers]
        rows["worker"] = [0 if w is None else w for w in workers]
    except (OverflowError, TypeError, ValueError, struct.error) as exc:
        raise ValidationFailed(
            f"mesh events reply does not fit its rows: {type(exc).__name__}: {exc}"
        ) from exc
    return b"".join((prefix, head, rows.tobytes(), _tail(body, ("workers",))))


def _decode_events_reply(r: _Reader) -> dict:
    seq, count = r.unpack(_ROWS_HEAD)
    start = r.need(count * _EVENTS_REPLY_DTYPE.itemsize)
    rows = np.frombuffer(r.view, _EVENTS_REPLY_DTYPE, count, start)
    assigned, worker = rows["assigned"], rows["worker"]
    # one canonical byte string per answer: a flag is 0 or 1, and an
    # unassigned row's worker field is zero
    if len(rows) and (assigned.max() > 1 or worker[assigned == 0].any()):
        raise ValidationFailed(
            "mesh events reply rows must be (1, worker) or (0, 0)"
        )
    workers = [
        w if a else None for a, w in zip(assigned.tolist(), worker.tolist())
    ]
    del rows, assigned, worker  # release the receive buffer before the tail
    extra = _read_tail(r)
    return {
        "schema": MESH_SCHEMA,
        "version": MESH_VERSION,
        "kind": "events_reply",
        "seq": seq,
        "body": {**extra, "workers": workers},
    }


# --------------------------------------------------------------------- #
# packed documents                                                       #
# --------------------------------------------------------------------- #
#
# PACKED_DOC_TAG carries one whole document as a self-describing value
# tree instead of GENERIC_TAG's embedded JSON text. Same data model as
# JSON — null/bool/int/float/str/list/object, nothing more — so the
# decoded document is exactly what a json.loads round trip would have
# produced and the codec stays invisible to backends. The layout wins
# where JSON loses: full-precision floats travel as 8 raw bytes instead
# of ~18 decimal chars (and a homogeneous float list as one contiguous
# block), ints as zigzag varints, lengths as varints. Floats whose
# shortest repr is already short (0.5, 2.0 — ledger epsilons) keep the
# text form so the binary layout never pays for what JSON got free.
# No frame is produced in this layout: the mesh sends snapshots and
# loads as GENERIC_TAG, because the C json module encodes and decodes
# them several times faster than this pure-Python packer, and a
# family's tasks wait while its checkpoint cut runs. The layout stays
# only while perfbench's ledger imports the tag and wraps
# encode_packed by name.

_MAX_VALUE_DEPTH = 64  # value trees (HSTs nest by tree depth) vs doc tags

_P_NULL = 0x00
_P_FALSE = 0x01
_P_TRUE = 0x02
_P_INT = 0x03  # zigzag LEB128, i64 range
_P_BIGINT = 0x04  # varint length + decimal text (RNG states are u128s)
_P_F64 = 0x05  # 8 raw big-endian bytes
_P_STR = 0x06  # varint length + utf-8
_P_LIST = 0x07
_P_DICT = 0x08
_P_F64S = 0x09  # homogeneous float list: one contiguous f64 block
_P_FSHORT = 0x0A  # u8 length + shortest-repr text (short decimals)

#: repr() lengths up to this travel as text; beyond it raw f64 is
#: smaller. float(repr(v)) == v exactly (shortest-repr guarantee), so
#: the two float forms decode to the same value and only size differs.
_FSHORT_MAX = 8


def _pack_varint(n: int, out: bytearray) -> None:
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _pack_value(v, out: bytearray, depth: int) -> bool:
    """Append one packed value; False -> the document doesn't fit the
    JSON data model (the caller falls back to another layout)."""
    if depth > _MAX_VALUE_DEPTH:
        return False
    if v is None:
        out.append(_P_NULL)
        return True
    t = type(v)
    if t is bool:
        out.append(_P_TRUE if v else _P_FALSE)
        return True
    if t is int:
        if _I64_MIN <= v <= _I64_MAX:
            out.append(_P_INT)
            _pack_varint((v << 1) ^ (v >> 63), out)
        else:
            raw = str(v).encode("ascii")
            out.append(_P_BIGINT)
            _pack_varint(len(raw), out)
            out += raw
        return True
    if t is float:
        raw = repr(v)
        if len(raw) <= _FSHORT_MAX:
            out.append(_P_FSHORT)
            out.append(len(raw))
            out += raw.encode("ascii")
        else:
            out.append(_P_F64)
            out += _F64.pack(v)
        return True
    if t is str:
        raw = v.encode("utf-8")
        out.append(_P_STR)
        _pack_varint(len(raw), out)
        out += raw
        return True
    if t is list or t is tuple:  # json widens tuples to arrays
        if len(v) >= 4 and all(type(x) is float for x in v):
            # one contiguous block iff it beats per-element encoding
            # (min(...) is each element's FSHORT-or-F64 cost)
            per_elem = sum(min(9, 2 + len(repr(x))) for x in v)
            if _F64.size * len(v) <= per_elem:
                out.append(_P_F64S)
                _pack_varint(len(v), out)
                out += struct.pack(f">{len(v)}d", *v)
                return True
        out.append(_P_LIST)
        _pack_varint(len(v), out)
        return all(_pack_value(x, out, depth + 1) for x in v)
    if t is dict:
        out.append(_P_DICT)
        _pack_varint(len(v), out)
        for key, val in v.items():
            # json coerces non-str keys to text; don't replicate that
            # lossy rule here, let the GENERIC fallback own it
            if type(key) is not str:
                return False
            raw = key.encode("utf-8")
            _pack_varint(len(raw), out)
            out += raw
            if not _pack_value(val, out, depth + 1):
                return False
        return True
    return False


def encode_packed(doc) -> bytes | None:
    """One document -> a PACKED_DOC_TAG payload, or ``None`` when any
    value falls outside the JSON data model (caller picks another
    layout — this encoder never raises on shape)."""
    if not isinstance(doc, dict):
        return None
    out = bytearray()
    out += _PREFIX.pack(BIN1_MAGIC, BIN1_WIRE_VERSION, PACKED_DOC_TAG)
    if not _pack_value(doc, out, 1):
        return None
    return bytes(out)


def _unpack_varint(r: _Reader) -> int:
    shift = 0
    n = 0
    view = r.view
    while True:
        start = r.need(1)
        b = view[start]
        n |= (b & 0x7F) << shift
        if not b & 0x80:
            return n
        shift += 7
        if shift > 70:
            raise ValidationFailed(
                "bin1 packed varint runs past 10 bytes"
            )


def _take_pstr(r: _Reader) -> str:
    n = _unpack_varint(r)
    if n > r.end - r.pos:
        raise ValidationFailed(
            f"bin1 packed string length {n} exceeds the "
            f"{r.end - r.pos} payload bytes that remain"
        )
    start = r.need(n)
    try:
        return str(r.view[start : start + n], "utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationFailed(
            f"bin1 string field is not valid UTF-8: {exc}"
        ) from exc


def _unpack_value(r: _Reader, depth: int):
    if depth > _MAX_VALUE_DEPTH:
        raise ValidationFailed(
            f"bin1 packed value nests deeper than {_MAX_VALUE_DEPTH} levels"
        )
    start = r.need(1)
    t = r.view[start]
    if t == _P_NULL:
        return None
    if t == _P_FALSE:
        return False
    if t == _P_TRUE:
        return True
    if t == _P_INT:
        z = _unpack_varint(r)
        return (z >> 1) ^ -(z & 1)
    if t == _P_BIGINT:
        raw = _take_pstr(r)
        try:
            return int(raw)
        except ValueError as exc:
            raise ValidationFailed(
                f"bin1 packed bigint is not decimal text: {raw[:40]!r}"
            ) from exc
    if t == _P_F64:
        (v,) = r.unpack(_F64)
        return v
    if t == _P_FSHORT:
        start = r.need(1)
        n = r.view[start]
        start = r.need(n)
        try:
            return float(str(r.view[start : start + n], "ascii"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ValidationFailed(
                f"bin1 packed short float is not decimal text: {exc}"
            ) from exc
    if t == _P_STR:
        return _take_pstr(r)
    if t == _P_F64S:
        count = _unpack_varint(r)
        if count > (r.end - r.pos) // _F64.size:
            raise ValidationFailed(
                f"bin1 packed float-array count {count} exceeds the "
                f"{r.end - r.pos} payload bytes that remain"
            )
        start = r.need(count * _F64.size)
        return list(struct.unpack_from(f">{count}d", r.view, start))
    if t == _P_LIST:
        count = _unpack_varint(r)
        if count > (r.end - r.pos):
            raise ValidationFailed(
                f"bin1 packed list count {count} exceeds the "
                f"{r.end - r.pos} payload bytes that remain"
            )
        return [_unpack_value(r, depth + 1) for _ in range(count)]
    if t == _P_DICT:
        count = _unpack_varint(r)
        if count > (r.end - r.pos):
            raise ValidationFailed(
                f"bin1 packed object count {count} exceeds the "
                f"{r.end - r.pos} payload bytes that remain"
            )
        obj = {}
        for _ in range(count):
            key = _take_pstr(r)
            obj[key] = _unpack_value(r, depth + 1)
        return obj
    raise ValidationFailed(f"unknown bin1 packed value type {t:#04x}")
