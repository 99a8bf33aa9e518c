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
  codec never changes what a backend sees. Verbs, reports, errors,
  traced envelopes, mesh ops and their replies (checkpoint snapshots and
  ``load`` requests included) and goodbyes all ride it;
* :data:`~repro.gateway.protocol.STREAM_BATCH_TAG` /
  :data:`~repro.gateway.protocol.STREAM_RESULT_TAG` — a stream window
  of register/submit events, and its answers, as fixed-width rows.
  :func:`encode_stream_batch` and friends go straight between api
  dataclasses and rows without building documents.

:func:`decode_bin1` reads the generic layout and one more document
layout, :data:`~repro.gateway.protocol.PACKED_DOC_TAG` (a packed value
tree, :func:`encode_packed`), which no mesh op or gateway frame
produces; the row layouts have their own decoders. Decoding is
zero-copy: the caller may hand in the ``memoryview`` slice straight out
of the receive buffer; fields are unpacked in place and strings decoded
directly from the view. Every malformed input — bad magic, foreign
layout version, a tag the decoder does not read, truncation at any
boundary, lying inner lengths, trailing garbage — raises a structured
:mod:`repro.api.errors` code, never a bare ``struct.error``; the fuzz
suite drives this promise.

Tag numbers are owned by :mod:`repro.gateway.protocol` (lint rule
RL403); this module holds only the encode/decode machinery.
"""

from __future__ import annotations

import json
import struct

from ..api.errors import UnsupportedVersion, ValidationFailed
from ..api.messages import (
    Batch,
    BatchResult,
    RegisterWorker,
    StreamEnvelope,
    StreamItemResult,
    SubmitTask,
    TaskDecision,
    WorkerRegistered,
)
from .protocol import (
    BIN1_MAGIC,
    BIN1_WIRE_VERSION,
    GENERIC_TAG,
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

# columnar stream rows (see STREAM_BATCH_TAG / STREAM_RESULT_TAG):
# fixed width, no per-item nesting — the whole window is one pack loop
_STREAM_ROW = struct.Struct(">Bqqddd")  # kind, seq, id, x, y, time
_RESULT_ROW = struct.Struct(">Bqqq")  # kind, seq, id, worker (or 0)

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


# --------------------------------------------------------------------- #
# documents                                                              #
# --------------------------------------------------------------------- #


def encode_bin1(doc: dict) -> bytes:
    """One document -> one GENERIC_TAG payload (no length prefix)."""
    if not isinstance(doc, dict):
        raise ValidationFailed(
            f"frame document must be an object, got {type(doc).__name__}"
        )
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
    """One GENERIC_TAG or PACKED_DOC_TAG payload (bytes or memoryview)
    -> the document. Any other tag is ``invalid-request``."""
    r, tag = _open(payload)
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
# The document path costs ~35us per streamed event once both directions
# of to_wire/encode/decode/from_wire are summed; the row layouts pack a
# whole replay window of api dataclasses straight into fixed-width rows
# (and back) without ever building the documents. These four functions
# are the only readers and writers of STREAM_BATCH / STREAM_RESULT.


def _stream_reader(payload, expect_tag: int) -> _Reader:
    """Validate the bin1 prefix of a stream payload, cursor after it."""
    r, tag = _open(payload)
    if tag != expect_tag:
        raise ValidationFailed(
            f"expected bin1 stream tag {expect_tag:#04x}, got {tag:#04x}"
        )
    return r


def encode_stream_batch(batch) -> bytes | None:
    """A :class:`Batch` of enveloped register/submit events -> one
    STREAM_BATCH payload, or ``None`` when anything falls outside the
    fixed-width row shape (the caller takes the document path).

    Fidelity rule: a row carries exactly what ``to_wire`` would have
    serialized — struct ``q`` rejects non-integers (-> ``None`` ->
    document path) and ``d`` widens ints the way ``float()`` does, and
    the decoders below apply the same coercions ``_from_body`` would —
    so the far side sees identical dataclasses on either path.
    """
    if type(batch) is not Batch:
        return None
    pack = _STREAM_ROW.pack
    try:
        parts = [
            _PREFIX.pack(BIN1_MAGIC, BIN1_WIRE_VERSION, STREAM_BATCH_TAG),
            _U32.pack(len(batch.items)),
        ]
        for env in batch.items:
            if type(env) is not StreamEnvelope:
                return None
            item = env.item
            kind = type(item)
            if kind is RegisterWorker:
                row_kind, ident = 0, item.worker_id
            elif kind is SubmitTask:
                row_kind, ident = 1, item.task_id
            else:
                return None
            x, y = item.location
            parts.append(pack(row_kind, env.seq, ident, x, y, item.time))
    except (struct.error, TypeError, ValueError):
        return None
    return b"".join(parts)


def decode_stream_batch(payload) -> Batch:
    """One STREAM_BATCH payload -> the :class:`Batch`, no document layer.

    Malformed bytes raise the same structured errors as
    :func:`decode_bin1`: truncation, bad kinds and trailing garbage are
    all ``invalid-request``, a foreign layout version is
    ``unsupported-version``.
    """
    r = _stream_reader(payload, STREAM_BATCH_TAG)
    (count,) = r.unpack(_U32)
    start = r.need(count * _STREAM_ROW.size)
    items = []
    append = items.append
    for k, seq, ident, x, y, when in _STREAM_ROW.iter_unpack(
        r.view[start : r.pos]
    ):
        if k == 0:
            item = RegisterWorker(ident, (x, y), when)
        elif k == 1:
            item = SubmitTask(ident, (x, y), when)
        else:
            raise ValidationFailed(
                f"bin1 stream row kind must be 0 or 1, got {k}"
            )
        append(StreamEnvelope(seq, item))
    r.done()
    return Batch(items)


def encode_stream_result(result) -> bytes | None:
    """A :class:`BatchResult` of enveloped register/submit answers ->
    one STREAM_RESULT payload, or ``None`` for the document path."""
    if type(result) is not BatchResult:
        return None
    pack = _RESULT_ROW.pack
    try:
        parts = [
            _PREFIX.pack(BIN1_MAGIC, BIN1_WIRE_VERSION, STREAM_RESULT_TAG),
            _U32.pack(len(result.items)),
        ]
        for env in result.items:
            if type(env) is not StreamItemResult:
                return None
            item = env.item
            kind = type(item)
            if kind is WorkerRegistered:
                parts.append(pack(0, env.seq, item.worker_id, 0))
            elif kind is TaskDecision:
                worker = item.worker_id
                if worker is None:
                    parts.append(pack(2, env.seq, item.task_id, 0))
                else:
                    parts.append(pack(1, env.seq, item.task_id, worker))
            else:
                return None
    except (struct.error, TypeError, ValueError):
        return None
    return b"".join(parts)


def decode_stream_result(payload) -> BatchResult:
    """One STREAM_RESULT payload -> the :class:`BatchResult`."""
    r = _stream_reader(payload, STREAM_RESULT_TAG)
    (count,) = r.unpack(_U32)
    start = r.need(count * _RESULT_ROW.size)
    items = []
    append = items.append
    for k, seq, ident, worker in _RESULT_ROW.iter_unpack(
        r.view[start : r.pos]
    ):
        if k == 1:
            item = TaskDecision(ident, worker)
        elif k == 0 or k == 2:
            if worker != 0:
                # one canonical byte string per document: the unused
                # worker slot must be zero, anything else is damage
                raise ValidationFailed(
                    f"bin1 result row kind {k} carries a nonzero worker "
                    f"field {worker}"
                )
            item = WorkerRegistered(ident) if k == 0 else TaskDecision(ident, None)
        else:
            raise ValidationFailed(
                f"bin1 result row kind must be 0, 1 or 2, got {k}"
            )
        append(StreamItemResult(seq, item))
    r.done()
    return BatchResult(items)


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
