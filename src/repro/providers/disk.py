"""On-disk provider backend.

Persists objects as files under a root directory, so examples can survive
process restarts and the disk-vs-memory overhead can be benchmarked.

Each object is one self-checking record file::

    b"RB1\\n" + <64 hex sha256 of payload> + b"\\n" + payload

written through :func:`repro.util.atomic.atomic_write_bytes`, so the blob
and its checksum land in a single atomic rename and can never disagree --
the torn window the old sidecar layout had (new blob renamed in, stale
``.sha256`` still on disk) is gone by construction.  Files written by older
versions (raw payload + ``.sha256`` sidecar) are still readable; the first
overwrite migrates them to the record format and removes the sidecar.

An operating-system failure is answered in the provider's own terms, never
as a bare ``OSError``: on ``get``/``head`` a blob that cannot be read (EIO,
EACCES, a directory where the file should be) is a
:class:`BlobCorruptedError` -- a data failure, so parity serves the read --
and on ``put``/``delete`` a refused write (ENOSPC, EROFS) is a
:class:`ProviderUnavailableError`, so write failover moves the shard.  A
missing file stays :class:`BlobNotFoundError`.
"""

from __future__ import annotations

import contextlib
import re
from pathlib import Path

from repro.core.errors import (
    BlobCorruptedError,
    BlobNotFoundError,
    ProviderError,
    ProviderUnavailableError,
)
from repro.providers.base import BlobStat, CloudProvider, blob_checksum
from repro.util.atomic import atomic_write_bytes
from repro.util.crash import crashpoint

_SAFE = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")

#: Record layout: magic + newline, 64 hex checksum chars, newline, payload.
_MAGIC = b"RB1\n"
_HEADER_LEN = len(_MAGIC) + 64 + 1
_CHECKSUM_RE = re.compile(r"[0-9a-f]{64}")


def _encode_key(key: str) -> str:
    """Filesystem-safe encoding of an arbitrary object key.

    Escapes are applied per UTF-8 *byte* (always two hex digits), so
    non-ASCII keys survive the round trip through :meth:`DiskProvider.keys`.
    """
    return "".join(
        chr(b) if chr(b) in _SAFE else f"%{b:02x}" for b in key.encode("utf-8")
    )


def _pack_record(data: bytes, checksum: str | None = None) -> bytes:
    if checksum is None:
        checksum = blob_checksum(data)
    elif not _CHECKSUM_RE.fullmatch(checksum):
        # The header is fixed-width: anything else would shift the payload.
        raise ValueError(
            f"checksum must be 64 lowercase hex characters, got {checksum!r}"
        )
    return _MAGIC + checksum.encode("ascii") + b"\n" + data


def _unpack_record(raw: bytes) -> tuple[str, bytes] | None:
    """(checksum, payload) if *raw* is a record file, else ``None`` (legacy)."""
    if not raw.startswith(_MAGIC) or len(raw) < _HEADER_LEN:
        return None
    if raw[_HEADER_LEN - 1 : _HEADER_LEN] != b"\n":
        return None
    checksum = raw[len(_MAGIC) : _HEADER_LEN - 1]
    try:
        return checksum.decode("ascii"), raw[_HEADER_LEN:]
    except UnicodeDecodeError:
        return None


class DiskProvider(CloudProvider):
    """Directory-backed object store with embedded checksums."""

    def __init__(self, name: str, root: str | Path) -> None:
        super().__init__(name)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _blob_path(self, key: str) -> Path:
        return self.root / (_encode_key(key) + ".blob")

    @contextlib.contextmanager
    def _os_errors(self, op: str, key: str, error: type[ProviderError]):
        """Answer an ``OSError`` of *op* on *key* as *error*; a missing
        file is :class:`BlobNotFoundError`, except to a put (for which
        only the root can be missing)."""
        try:
            yield
        except OSError as exc:
            if isinstance(exc, FileNotFoundError) and op != "put":
                raise BlobNotFoundError(
                    f"provider {self.name!r} has no object {key!r}"
                ) from None
            raise error(
                f"{op} of {key!r} at provider {self.name!r} failed: {exc}"
            ) from exc

    def _sum_path(self, key: str) -> Path:
        # Legacy sidecar location; only ever read (and cleaned up), never
        # written, since the record format embeds the checksum.
        return self.root / (_encode_key(key) + ".sha256")

    def _sidecar(self, key: str) -> str:
        """The legacy sidecar checksum of *key* (inside :meth:`_os_errors`)."""
        try:
            return self._sum_path(key).read_text()
        except FileNotFoundError:
            raise BlobCorruptedError(
                f"object {key!r} at provider {self.name!r} has neither an "
                f"embedded checksum nor a sidecar"
            ) from None

    def put(self, key: str, data: bytes, checksum: str | None = None) -> None:
        crashpoint("disk.put.start")
        record = _pack_record(data, checksum)
        with self._os_errors("put", key, ProviderUnavailableError):
            atomic_write_bytes(self._blob_path(key), record)
            crashpoint("disk.put.committed")
            # If this key predates the record format, its sidecar is now
            # stale; drop it.  A crash in between is harmless: readers
            # prefer the embedded checksum, so the leftover sidecar is
            # ignored garbage.
            self._sum_path(key).unlink(missing_ok=True)

    def _read_record(self, key: str) -> tuple[str, bytes]:
        """(expected checksum, payload) for *key* in either format."""
        with self._os_errors("get", key, BlobCorruptedError):
            raw = self._blob_path(key).read_bytes()
            unpacked = _unpack_record(raw)
            if unpacked is not None:
                return unpacked
            # Legacy layout: raw payload with a sidecar checksum.
            return self._sidecar(key), raw

    def get(self, key: str) -> bytes:
        expected, data = self._read_record(key)
        if blob_checksum(data) != expected:
            raise BlobCorruptedError(
                f"object {key!r} at provider {self.name!r} failed integrity check"
            )
        return data

    def delete(self, key: str) -> None:
        with self._os_errors("delete", key, ProviderUnavailableError):
            self._blob_path(key).unlink()
            self._sum_path(key).unlink(missing_ok=True)

    def keys(self) -> list[str]:
        out = []
        for path in self.root.glob("*.blob"):
            encoded = path.name[: -len(".blob")]
            # Reverse the %xx byte escapes from _encode_key.
            raw, i = bytearray(), 0
            while i < len(encoded):
                if encoded[i] == "%":
                    raw.append(int(encoded[i + 1 : i + 3], 16))
                    i += 3
                else:
                    raw.append(ord(encoded[i]))
                    i += 1
            out.append(raw.decode("utf-8"))
        return out

    def head(self, key: str) -> BlobStat:
        path = self._blob_path(key)
        with self._os_errors("head", key, BlobCorruptedError):
            with path.open("rb") as fh:
                header = fh.read(_HEADER_LEN)
            size = path.stat().st_size
            unpacked = _unpack_record(header)
            if unpacked is not None:
                return BlobStat(
                    key=key, size=size - _HEADER_LEN, checksum=unpacked[0]
                )
            return BlobStat(key=key, size=size, checksum=self._sidecar(key))
