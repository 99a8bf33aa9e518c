"""The gateway wire protocol: framing and handshake, sans-IO.

Everything that crosses a gateway socket is a *frame*: a 4-byte
big-endian unsigned payload length followed by that many bytes of
payload encoding one ``dict`` document. Two document schemas travel
inside frames:

* ``repro.gateway`` v1 — connection lifecycle: the client's ``hello``
  (advertising the :mod:`repro.api` wire versions it speaks, plus any
  optional *features* it can handle — today ``"trace"``, trace-context
  propagation), the server's ``welcome`` (the negotiated version, the
  accepted feature subset and a session id), and ``goodbye`` in either
  direction. A session's answers always leave in the order its frames
  arrived, so ordering needs no feature;
* ``repro.api`` v1 — every request/response after the handshake is the
  unmodified :func:`repro.api.to_wire` document, except a stream window
  and its answer, which travel only as rows
  (:data:`STREAM_BATCH_TAG`, :data:`STREAM_RESULT_TAG`), as does every
  register or submit (a sync call is a window of one row); failures come
  back as the api ``error`` kind (:class:`~repro.api.messages.ErrorInfo`),
  so the error envelope *is* the existing structured error taxonomy.

Payloads come in one codec per stage of a connection. The ``hello``,
the ``welcome`` and a handshake rejection are UTF-8 JSON text
(:func:`handshake_frame`): they travel before either side has agreed on
anything. Every frame after the welcome, in either direction, is
``bin1`` (:func:`encode_frame`, layouts in :mod:`repro.gateway.codec`).
The two are distinguishable from the first payload byte
(:data:`BIN1_MAGIC` can never begin a JSON document), which is what
lets one :class:`FrameDecoder` read a JSON welcome and the bin1 frames
glued behind it.

This module is deliberately socket-free: :func:`encode_frame`,
:class:`FrameDecoder` and the handshake builders/parsers operate on
bytes and dicts only, which is what lets the fuzz suite drive them with
junk, truncated and oversized input without a running server. Every
malformed input maps to a stable :mod:`repro.api.errors` code —
``invalid-request`` for framing/structure damage, ``unsupported-version``
for version skew — never a bare ``KeyError``/``UnicodeDecodeError``.
"""

from __future__ import annotations

import json
import struct

from ..api.errors import UnsupportedVersion, ValidationFailed
from ..api.messages import WIRE_VERSION

__all__ = [
    "GATEWAY_SCHEMA",
    "GATEWAY_VERSION",
    "HEADER",
    "MAX_FRAME_BYTES",
    "TRACE_FEATURE",
    "MESH_WORKER_ROLE",
    "BIN1_MAGIC",
    "BIN1_WIRE_VERSION",
    "GENERIC_TAG",
    "STREAM_BATCH_TAG",
    "STREAM_RESULT_TAG",
    "PACKED_DOC_TAG",
    "MESH_EVENTS_TAG",
    "MESH_EVENTS_REPLY_TAG",
    "check_frame_length",
    "encode_frame",
    "handshake_frame",
    "payload_frame",
    "decode_payload",
    "FrameDecoder",
    "hello_doc",
    "welcome_doc",
    "goodbye_doc",
    "is_gateway_doc",
    "parse_features",
    "parse_hello",
    "parse_welcome",
    "negotiate_version",
    "role_feature",
    "peer_role",
    "family_features",
    "advertised_families",
]

GATEWAY_SCHEMA = "repro.gateway"
GATEWAY_VERSION = 1

#: Session feature: request envelopes may carry a top-level ``trace``
#: dict (``{"trace_id", "span_id"}``, see :mod:`repro.obs.trace`), and a
#: stream window its rows' JSON tail, and the server links its dispatch
#: spans under it. Granted only when the client offers it AND the server
#: has tracing enabled; pre-feature peers never see the key (api
#: ``from_wire`` ignores unknown top-level keys anyway), and malformed
#: contexts degrade to untraced requests.
TRACE_FEATURE = "trace"

#: Peer role advertised by a mesh worker's hello: the connection is not
#: an api client asking for assignments but a shard host offering to
#: serve them (see :mod:`repro.mesh`). Roles ride the feature list, so
#: role-less peers and role-unaware servers interoperate untouched.
MESH_WORKER_ROLE = "mesh-worker"

_ROLE_PREFIX = "role:"
_FAMILY_PREFIX = "family:"

# ------------------------------------------------------------------ #
# bin1 constants (lint RL403: frame tags live here, only here)        #
# ------------------------------------------------------------------ #

#: First payload byte of every bin1 frame. 0xB1 is an invalid UTF-8
#: leading byte, so no JSON payload can start with it — a handshake
#: frame and a bin1 frame are told apart from one byte.
BIN1_MAGIC = 0xB1

#: bin1 layout version (second payload byte). Bumped only for
#: incompatible layout changes.
BIN1_WIRE_VERSION = 1

#: bin1 frame tags (third payload byte): which body layout follows. One
#: layout per job:
#:
#: ``GENERIC_TAG`` wraps the whole document as embedded JSON — the
#: total layout that carries any document (flushes, reports, every mesh
#: op and reply but ``events`` and its answer, errors, goodbyes).
GENERIC_TAG = 0x00
#: Columnar stream window: a ``>QI`` head (the window's seq, row count),
#: one fixed-width ``>Bqddd`` row per register/submit event (kind, id,
#: x, y, time; row ``i`` has seq + ``i``), then a u32-length-prefixed
#: JSON tail holding the window's trace context (empty when untraced).
#: Traced or not, a window rides only this tag, and so does every
#: register or submit (a sync call is a window of one row). Produced
#: and read only by :func:`repro.gateway.codec.encode_stream_batch` /
#: ``decode_stream_batch``.
STREAM_BATCH_TAG = 0x07
#: Columnar mirror of :data:`STREAM_BATCH_TAG` for the response
#: direction: a ``window_result`` as the same head plus ``>Bqq`` rows
#: (kind — registered, assigned or unassigned — id, worker), no tail.
STREAM_RESULT_TAG = 0x18
#: Whole document as a self-describing packed value tree (varint ints,
#: raw f64s, homogeneous f64 arrays) instead of embedded JSON text.
#: Carries exactly the JSON data model. :func:`~repro.gateway.codec
#: .decode_bin1` still reads it, but no mesh op or gateway frame is
#: produced in it: checkpoint snapshots and ``load`` requests ride
#: :data:`GENERIC_TAG`, whose C ``json`` codec is faster.
PACKED_DOC_TAG = 0x19
#: A mesh ``events`` op as rows: seq, row count, the delivery's key
#: table as length-prefixed ASCII names, then fixed-width ``>IBqdd``
#: rows (key index, kind, id, x, y;
#: :data:`~repro.cluster.dispatch.EVENT_ROW_DTYPE`), then a
#: u32-length-prefixed JSON tail holding the op's trace context (empty
#: when untraced). Traced or not, an ``events`` op rides only this tag.
MESH_EVENTS_TAG = 0x1A
#: The answer to :data:`MESH_EVENTS_TAG`: seq, row count, one ``>Bq``
#: row per task row of the op (assigned flag, worker; 0 unless
#: assigned), then the same JSON tail, holding the worker's spans.
MESH_EVENTS_REPLY_TAG = 0x1B

#: Frame header: one big-endian u32 payload length.
HEADER = struct.Struct(">I")

#: Hard frame ceiling. Reports for thousands of shards fit in well under
#: a megabyte; anything near this limit is a protocol error or an attack.
MAX_FRAME_BYTES = 8 * 1024 * 1024


def check_frame_length(length: int, *, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
    """Validate a decoded length prefix — the one copy of the rule.

    Every reader of the length header (the sans-IO decoder, the server's
    stream reader, the client transport) funnels through here, so the
    valid range cannot drift between them.
    """
    if length == 0 or length > max_frame_bytes:
        raise ValidationFailed(
            f"frame of {length} bytes outside the valid range "
            f"1..{max_frame_bytes}"
        )


def encode_frame(doc: dict, *, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one post-handshake document to a length-prefixed bin1
    frame, in the layout :func:`~repro.gateway.codec.encode_bin1` picks
    for it.

    The outbound frame ceiling is enforced here exactly like the inbound
    one (:func:`check_frame_length`), so an oversize response surfaces
    as a structured :class:`~repro.api.errors.ValidationFailed` the
    caller can answer with — never as a silently-violated protocol
    invariant.
    """
    from .codec import encode_bin1

    return payload_frame(encode_bin1(doc), max_frame_bytes=max_frame_bytes)


def handshake_frame(
    doc: dict, *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> bytes:
    """Serialize a ``hello``, a ``welcome`` or a handshake rejection to
    a length-prefixed JSON frame — the frames sent before the welcome
    puts the connection on bin1."""
    return payload_frame(
        json.dumps(doc, separators=(",", ":")).encode("utf-8"),
        max_frame_bytes=max_frame_bytes,
    )


def payload_frame(
    payload: bytes, *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> bytes:
    """Prefix an already-encoded payload with its length header.

    The outbound twin of :func:`check_frame_length` — every producer of
    a frame (doc encoding above, the stream rows) funnels through here
    so the outbound ceiling cannot drift either.
    """
    if len(payload) > max_frame_bytes:
        raise ValidationFailed(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_frame_bytes}-byte frame limit"
        )
    return HEADER.pack(len(payload)) + payload


def decode_payload(payload, *, welcomed: bool = False) -> dict:
    """Parse one frame payload; structured failure on any damage.

    ``payload`` may be ``bytes`` or a ``memoryview`` (the zero-copy
    path). The codec is sniffed from the first byte — 0xB1 can never
    begin JSON. ``welcomed`` marks a frame read after the welcome, where
    only bin1 is legal: a JSON payload there is a protocol violation and
    fails structured (``invalid-request``).
    """
    if len(payload) == 0:
        raise ValidationFailed("empty frame payload")
    if payload[0] == BIN1_MAGIC:
        from .codec import decode_bin1

        return decode_bin1(payload)
    if welcomed:
        raise ValidationFailed(
            "json frame after the welcome; every session frame is bin1"
        )
    try:
        doc = json.loads(str(payload, "utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ValidationFailed(
            f"frame payload is not valid JSON: {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(doc, dict):
        raise ValidationFailed(
            f"frame payload must encode an object, got {type(doc).__name__}"
        )
    return doc


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte-chunk stream.

    Feed it whatever the transport produced — half a header, three frames
    at once — and it yields complete documents as they close. Each
    payload is sniffed (:func:`decode_payload`), so one decoder reads a
    JSON welcome and the bin1 frames glued behind it. Length damage
    (zero or oversized prefixes) and payload damage (junk bytes, invalid
    JSON) raise :class:`~repro.api.errors.ValidationFailed`; a raising
    decoder is poisoned and the connection it served cannot be
    resynchronized (the length prefix that framed the stream is the thing
    that lied).
    """

    def __init__(self, *, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = int(max_frame_bytes)
        self._buf = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes received but not yet closing a frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> list[dict]:
        """Absorb ``data``; return every frame it completed, in order.

        Decodes straight out of the receive buffer through a
        ``memoryview`` — payload bytes are never copied into an
        intermediate ``bytes`` object (bin1 fields are unpacked in
        place; json is decoded to ``str`` directly from the view).
        """
        return [doc for doc, _ in self.feed_sized(data)]

    def feed_sized(self, data: bytes) -> list[tuple[dict, int]]:
        """:meth:`feed`, pairing each document with its payload length
        in bytes."""
        self._buf += data
        frames: list[tuple[dict, int]] = []
        consumed = 0
        clean = False
        view = memoryview(self._buf)
        try:
            total = len(view)
            while total - consumed >= HEADER.size:
                (length,) = HEADER.unpack_from(view, consumed)
                check_frame_length(length, max_frame_bytes=self.max_frame_bytes)
                start = consumed + HEADER.size
                if total - start < length:
                    break
                # consume first (matching the pre-zero-copy decoder: a
                # frame whose payload fails decode is still drained)
                consumed = start + length
                frames.append((decode_payload(view[start:consumed]), length))
            clean = True
        finally:
            # Exports must go before the bytearray can shrink. On the
            # raising path the in-flight traceback still pins a payload
            # sub-view, so the buffer is rebuilt instead of resized (a
            # raising decoder is poisoned anyway; this just keeps the
            # buffer object coherent for check_eof).
            view.release()
            if consumed:
                if clean:
                    del self._buf[:consumed]
                else:
                    self._buf = bytearray(self._buf[consumed:])
        return frames

    def check_eof(self) -> None:
        """Assert the stream ended on a frame boundary.

        Call when the transport reports EOF: leftover buffered bytes mean
        the peer died (or was cut) mid-frame — a truncated frame, which
        must surface as a structured error, not silence.
        """
        if self._buf:
            raise ValidationFailed(
                f"connection ended mid-frame with {len(self._buf)} "
                "buffered bytes"
            )


# --------------------------------------------------------------------- #
# handshake documents                                                    #
# --------------------------------------------------------------------- #


def _gateway_doc(kind: str, body: dict) -> dict:
    return {
        "schema": GATEWAY_SCHEMA,
        "version": GATEWAY_VERSION,
        "kind": kind,
        "body": body,
    }


def hello_doc(
    api_versions=(WIRE_VERSION,),
    client: str = "repro.gateway.remote",
    features=(),
) -> dict:
    """The client's opening frame: api wire versions + optional features."""
    return _gateway_doc(
        "hello",
        {
            "api_versions": [int(v) for v in api_versions],
            "client": str(client),
            "features": [str(f) for f in features],
        },
    )


def welcome_doc(
    api_version: int, backend: str, session: int, features=()
) -> dict:
    """The server's handshake answer: negotiated version + accepted
    features + session id."""
    return _gateway_doc(
        "welcome",
        {
            "api_version": int(api_version),
            "backend": str(backend),
            "session": int(session),
            "features": [str(f) for f in features],
        },
    )


def goodbye_doc(reason: str = "") -> dict:
    """A polite close, sent by either side (server: on graceful drain)."""
    return _gateway_doc("goodbye", {"reason": str(reason)})


def is_gateway_doc(doc) -> bool:
    """Whether ``doc`` belongs to the gateway (vs api) schema."""
    return isinstance(doc, dict) and doc.get("schema") == GATEWAY_SCHEMA


#: The complete v1 gateway envelope. Top-level is frozen — the *body*
#: (and its feature list) is the extension point — so unknown top-level
#: keys are junk, not forward compatibility, and are rejected.
_ENVELOPE_KEYS = frozenset({"schema", "version", "kind", "body"})


def _check_gateway_envelope(doc: dict, kind: str) -> dict:
    if not isinstance(doc, dict):
        raise ValidationFailed(
            f"handshake document must be an object, got {type(doc).__name__}"
        )
    schema = doc.get("schema")
    if schema != GATEWAY_SCHEMA:
        raise UnsupportedVersion(
            f"foreign handshake schema {schema!r} "
            f"(this gateway speaks {GATEWAY_SCHEMA!r})"
        )
    version = doc.get("version")
    if not isinstance(version, int) or version < 1 or version > GATEWAY_VERSION:
        raise UnsupportedVersion(
            f"gateway protocol version {version!r} outside supported "
            f"range 1..{GATEWAY_VERSION}"
        )
    unknown = set(doc) - _ENVELOPE_KEYS
    if unknown:
        raise ValidationFailed(
            f"unknown handshake fields {sorted(map(repr, unknown))}; "
            "the v1 envelope is schema/version/kind/body"
        )
    if doc.get("kind") != kind:
        raise ValidationFailed(
            f"expected a {kind!r} handshake frame, got {doc.get('kind')!r}"
        )
    body = doc.get("body")
    if not isinstance(body, dict):
        raise ValidationFailed("handshake body must be an object")
    return body


def negotiate_version(client_versions) -> int:
    """Pick the highest api wire version both sides speak.

    The server side of schema-version negotiation: the client advertises
    everything it can parse, the server owns the decision. No overlap is
    an ``unsupported-version`` failure, answered before any api document
    is interpreted.
    """
    # strings are iterable and would "negotiate" from their digit
    # characters; only genuine collections of ints are an offer
    if isinstance(client_versions, (str, bytes, dict)):
        raise ValidationFailed(
            f"api_versions must be a list of ints, got {client_versions!r}"
        )
    try:
        offered = {int(v) for v in client_versions}
    except (TypeError, ValueError):
        raise ValidationFailed(
            f"api_versions must be a list of ints, got {client_versions!r}"
        ) from None
    supported = set(range(1, WIRE_VERSION + 1))
    common = offered & supported
    if not common:
        raise UnsupportedVersion(
            f"client speaks api versions {sorted(offered)}, server "
            f"supports {sorted(supported)}: no common version"
        )
    return max(common)


def parse_features(body: dict) -> tuple[str, ...]:
    """The ``features`` list of a handshake body, validated.

    Absent means none (every pre-feature peer), and *unknown* feature
    names pass through untouched — a feature set only ever grows by
    intersection (each side acts on the names it knows), which is what
    keeps old and new peers interoperable without version bumps.
    """
    features = body.get("features", [])
    if not isinstance(features, list) or not all(
        isinstance(f, str) for f in features
    ):
        raise ValidationFailed(
            f"handshake features must be a list of strings, got {features!r}"
        )
    return tuple(features)


def parse_hello(doc: dict) -> tuple[int, str, tuple[str, ...]]:
    """Validate a ``hello``; returns ``(api version, client, features)``."""
    body = _check_gateway_envelope(doc, "hello")
    if "api_versions" not in body:
        raise ValidationFailed("hello body is missing api_versions")
    return (
        negotiate_version(body["api_versions"]),
        str(body.get("client", "")),
        parse_features(body),
    )


def parse_welcome(doc: dict) -> tuple[int, str, int, tuple[str, ...]]:
    """Validate a ``welcome``; returns ``(api version, backend, session,
    features)``."""
    body = _check_gateway_envelope(doc, "welcome")
    try:
        version = int(body["api_version"])
        backend = str(body["backend"])
        session = int(body["session"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationFailed(
            f"malformed welcome body: {type(exc).__name__}: {exc}"
        ) from exc
    if version < 1 or version > WIRE_VERSION:
        raise UnsupportedVersion(
            f"server negotiated api version {version}, this client "
            f"supports 1..{WIRE_VERSION}"
        )
    return version, backend, session, parse_features(body)


# --------------------------------------------------------------------- #
# roles and shard-family advertisement                                   #
# --------------------------------------------------------------------- #
#
# Both ride the existing feature list, deliberately: features already
# intersect (each side acts on the names it knows, unknown names pass
# through), so a mesh worker saying hello to a plain gateway is simply a
# client with ignored features, and an old client saying hello to a mesh
# coordinator is a peer with no role — no version bump, no new frame.


def role_feature(role: str) -> str:
    """The feature name advertising a peer role (``"role:mesh-worker"``)."""
    return _ROLE_PREFIX + str(role)


def peer_role(features) -> str | None:
    """The role a hello's feature list claims, or ``None`` for a plain
    api client. More than one role is a contradiction, not a choice."""
    roles = [f[len(_ROLE_PREFIX):] for f in features if f.startswith(_ROLE_PREFIX)]
    if not roles:
        return None
    if len(roles) > 1:
        raise ValidationFailed(
            f"hello claims multiple peer roles: {sorted(roles)}"
        )
    return roles[0]


def family_features(families) -> tuple[str, ...]:
    """Feature names advertising hosted shard families
    (``"family:3"`` ...) — what a rejoining worker tells the coordinator
    it already holds."""
    return tuple(_FAMILY_PREFIX + str(int(f)) for f in families)


def advertised_families(features) -> tuple[int, ...]:
    """Shard family ids advertised in a feature list, sorted."""
    fams = set()
    for f in features:
        if not f.startswith(_FAMILY_PREFIX):
            continue
        tail = f[len(_FAMILY_PREFIX):]
        try:
            fams.add(int(tail))
        except ValueError:
            raise ValidationFailed(
                f"malformed family advertisement {f!r}"
            ) from None
    return tuple(sorted(fams))
