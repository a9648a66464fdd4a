"""Length-prefixed binary wire protocol for distributor <-> chunk server.

The paper's Cloud Data Distributor talks to remote Cloud Providers; this
module defines the byte-level contract of that conversation.  One *frame*
carries one request or one response::

    offset  size  field
    0       2     magic  b"RP"
    2       1     protocol version (currently 1)
    3       1     code: op code in requests, status code in responses
    4       2     key length K            (unsigned big-endian)
    6       4     payload length N        (unsigned big-endian)
    10      4     CRC-32 of the payload   (unsigned big-endian)
    14      K     key bytes (UTF-8)
    14+K    N     payload bytes

Both sides verify the CRC-32 before trusting a payload, so a truncated or
bit-flipped transfer surfaces as :class:`ProtocolError` at the transport
layer instead of silently corrupting an object.  On top of that, a PUT
response echoes the server-side SHA-256 of the stored bytes, in hex
("checksum echo", :func:`encode_digest`), giving the client end-to-end
write verification independent of the transport CRC.

The full specification (including error-code semantics) lives in
``docs/net_protocol.md``; keep the two in sync.
"""

from __future__ import annotations

import binascii
import io
import json
import re
import socket
import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum

from repro.core.errors import (
    BlobCorruptedError,
    BlobNotFoundError,
    DeadlineExceeded,
    ProviderError,
    ProviderUnavailableError,
    ReproError,
    ResourceExhaustedError,
)
from repro.providers.base import BlobStat

MAGIC = b"RP"
VERSION = 1

#: Frame header: magic, version, code, key length, payload length, CRC-32.
HEADER = struct.Struct("!2sBBHII")

#: Upper bound on a single payload; a hostile or corrupt length field must
#: not be able to make the receiver allocate unbounded memory.
MAX_PAYLOAD = 256 * 1024 * 1024


class OpCode(IntEnum):
    """Request operations (client -> server).

    There is one protocol: a peer that lacks an op answers BAD_REQUEST
    ("unknown op code"), which the caller receives as a typed error.
    """

    PING = 0x01
    PUT = 0x02
    GET = 0x03
    DELETE = 0x04
    HEAD = 0x05
    KEYS = 0x06
    # Batched forms: every shard bound for one provider in an upload (or
    # retrieval) window rides a single framed round-trip, with per-item
    # status in the response so partial failures stay observable.
    MULTI_PUT = 0x07
    MULTI_GET = 0x08
    # Telemetry envelope: wraps any other request frame together with the
    # caller's trace context; the response wraps the inner response frame
    # plus the server-side span records -- see ``docs/net_protocol.md``.
    TRACED = 0x09
    # Deadline envelope: wraps any other request frame (TRACED included)
    # together with the caller's *remaining* time budget in milliseconds.
    # Only the budget crosses the wire -- never an absolute timestamp --
    # because monotonic clocks are per-process and wall clocks skew; the
    # server re-anchors the budget against its own clock.  The response is
    # the inner response frame directly (no response envelope needed: the
    # deadline has nothing to report back).
    DEADLINE = 0x0A
    # Streaming forms: where MULTI_PUT materializes a whole window into one
    # frame on both sides, a stream session carries each shard as its own
    # small frame with a per-segment ack, so neither side ever holds more
    # than a bounded window of bytes.  A session is STREAM_PUT (open),
    # STREAM_SEG per object (acked with its key and a checksum echo),
    # STREAM_END (commit).  Segments staged by a session that dies before
    # STREAM_END are rolled back by the server, which is what makes a
    # mid-stream client crash leave no partial window behind.  Stream ops
    # are always sent bare: they never ride inside a DEADLINE/TRACED
    # envelope.
    STREAM_PUT = 0x0B
    STREAM_SEG = 0x0C
    STREAM_END = 0x0D
    # STREAM_GET asks for many keys (the KEYS encoding) and is answered by
    # a count header frame followed by one frame per key, in the order
    # asked (status + the key + bytes), so the server streams objects out
    # one at a time instead of joining them into one aggregate MULTI_GET
    # payload.
    STREAM_GET = 0x0E


class Status(IntEnum):
    """Response status codes (server -> client)."""

    OK = 0x00
    NOT_FOUND = 0x01
    CORRUPTED = 0x02
    UNAVAILABLE = 0x03
    BAD_REQUEST = 0x04
    INTERNAL = 0x05
    #: The server shed the request at admission (worker pool + accept queue
    #: saturated).  The message may carry a ``retry-after=<seconds>;`` hint.
    RESOURCE_EXHAUSTED = 0x06
    #: The request's propagated deadline expired before (or while) the
    #: server worked on it; the caller already gave up, so no data follows.
    DEADLINE_EXCEEDED = 0x07


class ProtocolError(ReproError):
    """Malformed frame: bad magic, version, length, or CRC mismatch."""


@dataclass(frozen=True)
class Frame:
    """One decoded frame; ``code`` is an op code or status code."""

    code: int
    key: str = ""
    payload: bytes = b""


def frame_segments(code: int, key: str = "",
                   *parts: bytes | bytearray | memoryview,
                   ) -> list[bytes | memoryview]:
    """Frame whose payload is the concatenation of *parts*, zero-copy.

    Returns ``[header + key, *payload-views]`` (empty parts are dropped).
    Only the small header is allocated: the CRC is accumulated across
    the parts and each is wrapped in a :class:`memoryview`, so a payload
    is never copied here.  An envelope is the same call with its prefix
    and the inner frame's segments as the parts.  Each part costs a CRC
    call and an iovec, so a batch frame passes its payload as one buffer
    (:func:`encode_multi_put`), not a part per item.  Pair with
    :func:`sendmsg_all`.
    """
    key_bytes = key.encode("utf-8")
    if len(key_bytes) > 0xFFFF:
        raise ProtocolError(f"key too long: {len(key_bytes)} bytes")
    segments: list[bytes | memoryview] = [key_bytes]  # header goes first
    crc = total = 0
    for part in parts:
        if len(part):
            crc = zlib.crc32(part, crc)
            total += len(part)
            segments.append(
                part if isinstance(part, memoryview) else memoryview(part)
            )
    if total > MAX_PAYLOAD:
        raise ProtocolError(f"payload too large: {total} bytes")
    segments[0] = (
        HEADER.pack(MAGIC, VERSION, code, len(key_bytes), total, crc) + key_bytes
    )
    return segments


def encode_frame(code: int, key: str = "", payload: bytes = b"") -> bytes:
    """Serialize one frame to bytes."""
    return b"".join(frame_segments(code, key, payload))


#: Max buffers per sendmsg() call; kernels cap the iovec count (IOV_MAX,
#: typically 1024), so longer segment lists are sent in groups.
_IOV_GROUP = 512

_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")


def sendmsg_all(sock: socket.socket,
                buffers: list[bytes | bytearray | memoryview]) -> None:
    """Scatter-gather send of *buffers*, handling partial sends.

    ``sendmsg`` may stop short of the full iovec when the socket buffer
    fills; this loop re-enters with memoryview offsets instead of slicing
    fresh ``bytes``, so no byte is ever copied in user space.
    """
    if not _HAS_SENDMSG:  # platforms without sendmsg (e.g. Windows)
        sock.sendall(b"".join(buffers))
        return
    views = [memoryview(b) for b in buffers if len(b)]
    idx = 0
    offset = 0
    while idx < len(views):
        window = [views[idx][offset:] if offset else views[idx]]
        window.extend(views[idx + 1 : idx + _IOV_GROUP])
        sent = sock.sendmsg(window)
        while sent:
            available = len(views[idx]) - offset
            if sent >= available:
                sent -= available
                idx += 1
                offset = 0
            else:
                offset += sent
                sent = 0


def send_frame(sock: socket.socket, code: int, key: str = "",
               payload: bytes | bytearray | memoryview = b"") -> None:
    """Write one frame to *sock* (blocking, honours the socket timeout)."""
    sendmsg_all(sock, frame_segments(code, key, payload))


def _utf8(raw: bytes | memoryview, what: str) -> str:
    """Strict UTF-8 text off the wire; a peer's bad bytes are its fault."""
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"{what} is not valid UTF-8: {exc}") from None


def read_frame(stream) -> Frame | None:
    """Read one frame; ``None`` on clean EOF between frames.

    Accepts anything with a ``read(n)`` method that blocks until *n*
    bytes or EOF (e.g. ``sock.makefile("rb")``); the buffering cuts the
    two-syscalls-per-frame cost of :func:`recv_frame`, which matters on
    the streaming path where every shard is its own small frame.  EOF in
    the *middle* of a frame is a protocol violation (the peer hung up
    mid-frame) and raises :class:`ProtocolError`.  This is the one place
    a frame is checked: :func:`recv_frame` and :func:`decode_frame` read
    through it.
    """
    raw = stream.read(HEADER.size)
    if not raw:
        return None
    if len(raw) < HEADER.size:
        raise ProtocolError(f"connection closed mid-frame ({len(raw)}/{HEADER.size} bytes)")
    magic, version, code, key_len, payload_len, crc = HEADER.unpack(raw)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    if payload_len > MAX_PAYLOAD:
        raise ProtocolError(f"payload length {payload_len} exceeds cap")
    key_bytes = stream.read(key_len) if key_len else b""
    payload = stream.read(payload_len)  # its own read: no copy cut from a joined body
    if len(key_bytes) < key_len or len(payload) < payload_len:
        raise ProtocolError("connection closed mid-frame (body)")
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise ProtocolError(f"payload CRC mismatch for key {key_bytes!r}")
    return Frame(code=code, key=_utf8(key_bytes, "frame key"), payload=payload)


class _SocketReader:
    """``read(n)`` over a bare socket: blocks until *n* bytes or EOF."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def read(self, n: int) -> bytearray:
        """The *n* bytes received into one buffer (fewer at EOF): a frame's
        payload is held once, never as chunks and their join."""
        buffer, got = bytearray(n), 0
        with memoryview(buffer) as view:
            while got < n and (count := self._sock.recv_into(view[got:])):
                got += count
        del buffer[got:]
        return buffer


def recv_frame(sock: socket.socket) -> Frame | None:
    """:func:`read_frame` straight off *sock*, unbuffered (two recv()s)."""
    return read_frame(_SocketReader(sock))


def decode_frame(data: bytes) -> Frame:
    """Decode one complete frame from an in-memory buffer.

    The buffer must contain exactly one frame (header + key + payload);
    this is the TRACED envelope's way of nesting a frame inside another
    frame's payload without a socket in between.
    """
    stream = io.BytesIO(data)
    frame = read_frame(stream)
    if frame is None or stream.tell() != len(data):
        raise ProtocolError(f"frame buffer is {len(data)} bytes, not exactly one frame")
    return frame


# ---------------------------------------------------------------------------
# TRACED envelope (trace propagation)
# ---------------------------------------------------------------------------
#
# TRACED request payload:   context length (u16) + context (UTF-8, the
#                           client's "trace_id:span_id") + the complete
#                           encoded inner request frame.
# TRACED response payload:  spans length (u32) + span records (UTF-8 JSON
#                           list) + the complete encoded inner response
#                           frame.  The envelope's own status is OK when
#                           the server understood the envelope; the inner
#                           frame carries the operation's real status.

_CTX_LEN = struct.Struct("!H")
_SPANS_LEN = struct.Struct("!I")


def traced_prefix(context: str) -> bytes:
    """What a TRACED request payload carries before its inner frame."""
    raw = context.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ProtocolError(f"trace context too long: {len(raw)} bytes")
    return _CTX_LEN.pack(len(raw)) + raw


def encode_traced_request(context: str, inner: bytes) -> bytes:
    return traced_prefix(context) + inner


def _length_prefixed(payload: bytes, prefix: struct.Struct, what: str) -> tuple[bytes, bytes]:
    """(the field a *prefix* length heads, the rest of *payload*)."""
    if len(payload) < prefix.size:
        raise ProtocolError(f"{what} payload truncated")
    end = prefix.size + prefix.unpack_from(payload)[0]
    if end > len(payload):
        raise ProtocolError(f"{what} payload truncated")
    return payload[prefix.size : end], payload[end:]


def decode_traced_request(payload: bytes) -> tuple[str, Frame]:
    context, inner = _length_prefixed(payload, _CTX_LEN, "TRACED request")
    return _utf8(context, "trace context"), decode_frame(inner)


def encode_traced_response(spans_json: bytes, inner: bytes) -> bytes:
    return _SPANS_LEN.pack(len(spans_json)) + spans_json + inner


def decode_traced_response(payload: bytes) -> tuple[list[dict], Frame]:
    spans, inner = _length_prefixed(payload, _SPANS_LEN, "TRACED response")
    try:
        records = json.loads(spans or b"[]")
    except ValueError as exc:
        raise ProtocolError(f"TRACED span records not valid JSON: {exc}")
    if not isinstance(records, list):
        raise ProtocolError("TRACED span records must be a JSON list")
    return records, decode_frame(inner)


# ---------------------------------------------------------------------------
# DEADLINE envelope (remaining-budget propagation)
# ---------------------------------------------------------------------------
#
# DEADLINE request payload:  remaining budget in milliseconds (u32) + the
#                            complete encoded inner request frame (which may
#                            itself be a TRACED envelope).  The response is
#                            the inner response frame sent directly.

_BUDGET_MS = struct.Struct("!I")

#: Upper bound on a wire budget; also what an effectively-unbounded local
#: deadline is clamped to (u32 milliseconds ~= 49.7 days).
MAX_BUDGET_MS = 0xFFFFFFFF


def deadline_prefix(budget_ms: int) -> bytes:
    """What a DEADLINE request payload carries before its inner frame."""
    if not 0 <= budget_ms <= MAX_BUDGET_MS:
        raise ProtocolError(f"deadline budget out of range: {budget_ms} ms")
    return _BUDGET_MS.pack(budget_ms)


def encode_deadline_request(budget_ms: int, inner: bytes) -> bytes:
    return deadline_prefix(budget_ms) + inner


def decode_deadline_request(payload: bytes) -> tuple[int, Frame]:
    if len(payload) < _BUDGET_MS.size:
        raise ProtocolError("DEADLINE request payload truncated")
    (budget_ms,) = _BUDGET_MS.unpack_from(payload, 0)
    return budget_ms, decode_frame(payload[_BUDGET_MS.size :])


# ---------------------------------------------------------------------------
# retry-after hint (RESOURCE_EXHAUSTED message text)
# ---------------------------------------------------------------------------

_RETRY_AFTER_PREFIX = "retry-after="


def encode_retry_hint(retry_after: float, message: str) -> str:
    """RESOURCE_EXHAUSTED message text carrying a retry-after hint."""
    return f"{_RETRY_AFTER_PREFIX}{retry_after:.3f}; {message}"


def decode_retry_hint(message: str) -> tuple[float | None, str]:
    """Split a shed message into ``(retry_after_seconds | None, text)``."""
    if not message.startswith(_RETRY_AFTER_PREFIX):
        return None, message
    head, sep, rest = message[len(_RETRY_AFTER_PREFIX) :].partition(";")
    try:
        retry_after = float(head.strip())
    except ValueError:
        return None, message
    if not 0 <= retry_after < float("inf"):  # negative, nan or inf: no hint
        return None, message
    return retry_after, rest.strip() if sep else ""


# ---------------------------------------------------------------------------
# payload encodings for the structured responses
# ---------------------------------------------------------------------------

_STAT_HEADER = struct.Struct("!Q")

#: The wire spells a digest (a checksum echo, a HEAD stat) as 64 lowercase
#: hex characters; in the process it is the 32 raw bytes of the SHA-256.
encode_digest = binascii.hexlify
_HEX_DIGEST = re.compile(rb"[0-9a-f]{64}")


def encode_stat(stat: BlobStat) -> bytes:
    """HEAD response payload: size (u64) + the checksum in hex."""
    return _STAT_HEADER.pack(stat.size) + encode_digest(stat.checksum)


def decode_stat(key: str, payload: bytes) -> BlobStat:
    if len(payload) < _STAT_HEADER.size:
        raise ProtocolError("HEAD payload truncated")
    (size,) = _STAT_HEADER.unpack(payload[: _STAT_HEADER.size])
    checksum = payload[_STAT_HEADER.size :]
    if _HEX_DIGEST.fullmatch(checksum) is None:
        raise ProtocolError("HEAD checksum is not 64 lowercase hex characters")
    return BlobStat(key=key, size=size, checksum=binascii.unhexlify(checksum))


def encode_keys(keys: list[str]) -> bytes:
    """KEYS response payload: count (u32) + per-key (u16 length + bytes)."""
    parts = [struct.pack("!I", len(keys))]
    for key in keys:
        raw = key.encode("utf-8")
        parts.append(struct.pack("!H", len(raw)))
        parts.append(raw)
    return b"".join(parts)


def decode_keys(payload: bytes) -> list[str]:
    if len(payload) < 4:
        raise ProtocolError("KEYS payload truncated")
    (count,) = struct.unpack_from("!I", payload, 0)
    keys: list[str] = []
    offset = 4
    for _ in range(count):
        if offset + 2 > len(payload):
            raise ProtocolError("KEYS payload truncated")
        (length,) = struct.unpack_from("!H", payload, offset)
        offset += 2
        if offset + length > len(payload):
            raise ProtocolError("KEYS payload truncated")
        keys.append(_utf8(payload[offset : offset + length], "key"))
        offset += length
    return keys


# ---------------------------------------------------------------------------
# batch payload encodings (MULTI_PUT / MULTI_GET)
# ---------------------------------------------------------------------------
#
# MULTI_PUT request:   count (u32), then per item key length (u16) + key +
#                      data length (u32) + data.
# MULTI_GET request:   the KEYS encoding (count + per-key length + key).
# Batch response:      count (u32), then per item status (u8) + body length
#                      (u32) + body, where body is the checksum echo
#                      (MULTI_PUT, OK), the object bytes (MULTI_GET, OK) or
#                      a UTF-8 error message (any non-OK status).  The frame
#                      itself answers Status.OK whenever the batch was
#                      decodable; item outcomes live in the payload.

_BATCH_COUNT = struct.Struct("!I")
_ITEM_KEY_LEN = struct.Struct("!H")
_ITEM_BODY_LEN = struct.Struct("!I")
#: A batch result's item header: status (u8) + body length (u32).
_ITEM_RESULT = struct.Struct("!BI")


def encode_multi_put(items: list[tuple[str, bytes]]) -> bytes:
    """MULTI_PUT request payload from ``(key, data)`` pairs, as one buffer.

    One join is cheaper than handing the socket two buffers an item: each
    of those costs a CRC call, views and an iovec, and the join is C.
    """
    parts: list[bytes | memoryview] = [_BATCH_COUNT.pack(len(items))]
    append = parts.append
    key_len, body_len = _ITEM_KEY_LEN.pack, _ITEM_BODY_LEN.pack
    for key, data in items:
        raw = key.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ProtocolError(f"key too long: {len(raw)} bytes")
        append(key_len(len(raw)) + raw + body_len(len(data)))
        append(data)
    return b"".join(parts)


def decode_multi_put(payload: bytes) -> list[tuple[str, bytes]]:
    size = len(payload)
    if size < _BATCH_COUNT.size:
        raise ProtocolError("MULTI_PUT payload truncated")
    (count,) = _BATCH_COUNT.unpack_from(payload, 0)
    key_len_at, body_len_at = _ITEM_KEY_LEN.unpack_from, _ITEM_BODY_LEN.unpack_from
    offset = _BATCH_COUNT.size
    items: list[tuple[str, bytes]] = []
    append = items.append
    for _ in range(count):
        if offset + 2 > size:
            raise ProtocolError("MULTI_PUT payload truncated")
        key_end = offset + 2 + key_len_at(payload, offset)[0]
        if key_end + 4 > size:
            raise ProtocolError("MULTI_PUT payload truncated")
        data_end = key_end + 4 + body_len_at(payload, key_end)[0]
        if data_end > size:
            raise ProtocolError("MULTI_PUT payload truncated")
        append((
            _utf8(payload[offset + 2 : key_end], "MULTI_PUT key"),
            payload[key_end + 4 : data_end],
        ))
        offset = data_end
    if offset != size:
        raise ProtocolError(
            f"MULTI_PUT payload has {size - offset} trailing bytes"
        )
    return items


def first_batch_key(payload: bytes) -> str:
    """The first item's key of a MULTI_PUT or KEYS-encoded payload.

    Both encodings open with the count (u32), then per item the key
    length (u16) and the key, so the first key reads the same way from
    either without decoding the batch.  Empty batch: ``""``.
    """
    header = _BATCH_COUNT.size + _ITEM_KEY_LEN.size
    if len(payload) < header:
        return ""
    (key_len,) = _ITEM_KEY_LEN.unpack_from(payload, _BATCH_COUNT.size)
    return _utf8(payload[header : header + key_len], "batch key")


def encode_batch_results(results: list[tuple[int, bytes]]) -> bytes:
    """Batch response payload from per-item ``(status, body)`` pairs."""
    parts = [_BATCH_COUNT.pack(len(results))]
    append, head = parts.append, _ITEM_RESULT.pack
    for status, body in results:
        append(head(status, len(body)))
        append(body)
    return b"".join(parts)


def decode_batch_results(payload: bytes) -> list[tuple[int, bytes]]:
    size = len(payload)
    if size < _BATCH_COUNT.size:
        raise ProtocolError("batch response payload truncated")
    (count,) = _BATCH_COUNT.unpack_from(payload, 0)
    head_at, head_size = _ITEM_RESULT.unpack_from, _ITEM_RESULT.size
    offset = _BATCH_COUNT.size
    results: list[tuple[int, bytes]] = []
    append = results.append
    for _ in range(count):
        body_at = offset + head_size
        if body_at > size:
            raise ProtocolError("batch response payload truncated")
        status, body_len = head_at(payload, offset)
        offset = body_at + body_len
        if offset > size:
            raise ProtocolError("batch response payload truncated")
        append((status, payload[body_at:offset]))
    if offset != size:
        raise ProtocolError(
            f"batch response payload has {size - offset} trailing bytes"
        )
    return results


# ---------------------------------------------------------------------------
# stream payload encodings (STREAM_PUT / STREAM_GET sessions)
# ---------------------------------------------------------------------------
#
# STREAM_PUT request:   empty (opens a session on this connection).
# STREAM_SEG request:   key = object key, payload = object bytes; the OK
#                       response echoes the server-side SHA-256.
# STREAM_END request:   empty; the OK response payload is the committed
#                       segment count (u32).
# STREAM_GET request:   the KEYS encoding.  The response is one OK header
#                       frame whose payload is the key count (u32),
#                       followed by exactly that many frames, each
#                       carrying one key's status + bytes (or a UTF-8
#                       error message for non-OK statuses).

_STREAM_COUNT = struct.Struct("!I")

#: Op codes that form (or answer) a stream session.  Stream ops are sent
#: bare on the connection; servers reject them inside TRACED/DEADLINE
#: envelopes because a multi-frame response cannot nest in one envelope.
STREAM_OPS = frozenset(
    {OpCode.STREAM_PUT, OpCode.STREAM_SEG, OpCode.STREAM_END, OpCode.STREAM_GET}
)


def encode_stream_count(count: int) -> bytes:
    """STREAM_END ack / STREAM_GET header payload: segment count (u32)."""
    return _STREAM_COUNT.pack(count)


def decode_stream_count(payload: bytes) -> int:
    if len(payload) != _STREAM_COUNT.size:
        raise ProtocolError("stream count payload truncated")
    (count,) = _STREAM_COUNT.unpack(payload)
    return count


# ---------------------------------------------------------------------------
# error <-> status translation
# ---------------------------------------------------------------------------

_STATUS_FOR_ERROR: list[tuple[type[Exception], Status]] = [
    # Order matters: subclasses before their bases (ResourceExhaustedError
    # is a ProviderUnavailableError, DeadlineExceeded is a ProviderError).
    (ResourceExhaustedError, Status.RESOURCE_EXHAUSTED),
    (DeadlineExceeded, Status.DEADLINE_EXCEEDED),
    (BlobNotFoundError, Status.NOT_FOUND),
    (BlobCorruptedError, Status.CORRUPTED),
    (ProviderUnavailableError, Status.UNAVAILABLE),
]
_ERROR_FOR_STATUS = {status: error for error, status in _STATUS_FOR_ERROR}


def status_for_error(exc: Exception) -> Status:
    """Wire status a server should answer for a backend exception."""
    for err_type, status in _STATUS_FOR_ERROR:
        if isinstance(exc, err_type):
            return status
    if isinstance(exc, (ProtocolError, ValueError)):
        return Status.BAD_REQUEST
    return Status.INTERNAL


def error_for_status(status: int, message: str) -> ProviderError:
    """Client-side exception reconstructed from an error response."""
    if status == Status.RESOURCE_EXHAUSTED:
        retry_after, text = decode_retry_hint(message)
        return ResourceExhaustedError(text or message, retry_after=retry_after)
    if status in _ERROR_FOR_STATUS:
        return _ERROR_FOR_STATUS[status](message)
    if status in Status._value2member_map_:  # BAD_REQUEST, INTERNAL, ...
        return ProviderError(f"{Status(status).name}: {message}")
    return ProviderError(f"status {status}: {message}")
