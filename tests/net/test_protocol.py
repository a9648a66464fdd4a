"""Unit tests for the wire protocol: framing, checksums, translations."""

from __future__ import annotations

import socket
import struct
import threading
import zlib

import pytest

from repro.core.errors import (
    BlobCorruptedError,
    BlobNotFoundError,
    ProviderError,
    ProviderUnavailableError,
)
from repro.net.protocol import (
    HEADER,
    MAGIC,
    VERSION,
    Frame,
    OpCode,
    ProtocolError,
    Status,
    decode_keys,
    decode_stat,
    encode_frame,
    encode_keys,
    encode_stat,
    error_for_status,
    recv_frame,
    send_frame,
    status_for_error,
)
from repro.providers.base import BlobStat


def roundtrip(code: int, key: str = "", payload: bytes = b"") -> Frame:
    """Push one frame through a real socket pair and decode it."""
    a, b = socket.socketpair()
    try:
        sender = threading.Thread(target=send_frame, args=(a, code, key, payload))
        sender.start()
        frame = recv_frame(b)
        sender.join()
        return frame
    finally:
        a.close()
        b.close()


def test_frame_roundtrip():
    frame = roundtrip(OpCode.PUT, "chunk-10986.2", b"\x00\x01\xffpayload")
    assert frame == Frame(OpCode.PUT, "chunk-10986.2", b"\x00\x01\xffpayload")


def test_empty_frame_roundtrip():
    assert roundtrip(OpCode.PING) == Frame(OpCode.PING, "", b"")


def test_large_payload_roundtrip():
    payload = bytes(range(256)) * 8192  # 2 MiB, crosses many recv() calls
    assert roundtrip(OpCode.PUT, "big", payload).payload == payload


def test_clean_eof_returns_none():
    a, b = socket.socketpair()
    a.close()
    try:
        assert recv_frame(b) is None
    finally:
        b.close()


def test_mid_frame_eof_raises():
    a, b = socket.socketpair()
    try:
        a.sendall(encode_frame(OpCode.PUT, "k", b"data")[:-2])
        a.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(b)
    finally:
        b.close()


def test_bad_magic_raises():
    a, b = socket.socketpair()
    try:
        raw = bytearray(encode_frame(OpCode.PING))
        raw[0:2] = b"XX"
        a.sendall(bytes(raw))
        with pytest.raises(ProtocolError, match="magic"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_bad_version_raises():
    a, b = socket.socketpair()
    try:
        raw = bytearray(encode_frame(OpCode.PING))
        raw[2] = VERSION + 1
        a.sendall(bytes(raw))
        with pytest.raises(ProtocolError, match="version"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_crc_mismatch_raises():
    a, b = socket.socketpair()
    try:
        raw = bytearray(encode_frame(OpCode.PUT, "k", b"payload"))
        raw[-1] ^= 0xFF  # flip a payload byte after the CRC was computed
        a.sendall(bytes(raw))
        with pytest.raises(ProtocolError, match="CRC"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_header_layout_is_pinned():
    """The documented byte layout must not drift (docs/net_protocol.md)."""
    raw = encode_frame(OpCode.GET, "ab", b"xyz")
    assert HEADER.size == 14
    magic, version, code, key_len, payload_len, crc = struct.unpack(
        "!2sBBHII", raw[:14]
    )
    assert (magic, version, code) == (MAGIC, VERSION, OpCode.GET)
    assert (key_len, payload_len) == (2, 3)
    assert crc == zlib.crc32(b"xyz")
    assert raw[14:] == b"ab" + b"xyz"


def test_stat_payload_roundtrip():
    stat = BlobStat(key="k", size=12345, checksum=bytes.fromhex("ab" * 32))
    assert decode_stat("k", encode_stat(stat)) == stat


def test_keys_payload_roundtrip():
    keys = ["", "a", "chunk-1.0", "x" * 300, "ключ"]
    assert decode_keys(encode_keys(keys)) == keys


def test_keys_payload_truncation_detected():
    payload = encode_keys(["abcdef"])
    with pytest.raises(ProtocolError):
        decode_keys(payload[:-2])


@pytest.mark.parametrize(
    "exc,status",
    [
        (BlobNotFoundError("x"), Status.NOT_FOUND),
        (BlobCorruptedError("x"), Status.CORRUPTED),
        (ProviderUnavailableError("x"), Status.UNAVAILABLE),
        (ValueError("x"), Status.BAD_REQUEST),
        (RuntimeError("x"), Status.INTERNAL),
    ],
)
def test_status_for_error(exc, status):
    assert status_for_error(exc) == status


@pytest.mark.parametrize(
    "status,exc_type",
    [
        (Status.NOT_FOUND, BlobNotFoundError),
        (Status.CORRUPTED, BlobCorruptedError),
        (Status.UNAVAILABLE, ProviderUnavailableError),
        (Status.INTERNAL, ProviderError),
    ],
)
def test_error_for_status(status, exc_type):
    err = error_for_status(status, "boom")
    assert isinstance(err, exc_type)
    assert "boom" in str(err)
