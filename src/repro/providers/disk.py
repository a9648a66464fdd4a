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

The header spells the digest in lowercase hex; in the process it is the 32
raw bytes :func:`~repro.providers.base.blob_checksum` returns, converted
here on the way in and out.  A header (or legacy sidecar) that does not
spell one is :class:`BlobCorruptedError`, on ``get`` and on ``head``.

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
_CHECKSUM_RE = re.compile(rb"[0-9a-f]{64}")


def _encode_key(key: str) -> str:
    """Filesystem-safe encoding of an arbitrary object key.

    Escapes are applied per UTF-8 *byte* (always two hex digits), so
    non-ASCII keys survive the round trip through :meth:`DiskProvider.keys`.
    """
    return "".join(
        chr(b) if chr(b) in _SAFE else f"%{b:02x}" for b in key.encode("utf-8")
    )


def _pack_record(data: bytes, checksum: bytes | None = None) -> bytes:
    if checksum is None:
        checksum = blob_checksum(data)
    elif not (type(checksum) is bytes and len(checksum) == 32):
        # The header is fixed-width: anything else would shift the payload.
        raise ValueError(
            f"checksum must be a 32-byte SHA-256 digest, which the header "
            f"holds as 64 lowercase hex characters; got {checksum!r}"
        )
    return _MAGIC + checksum.hex().encode("ascii") + b"\n" + data


def _unpack_record(raw: bytes) -> tuple[bytes, bytes] | None:
    """(checksum as the header spells it, payload) if *raw* is a record
    file, else ``None`` (legacy)."""
    if not raw.startswith(_MAGIC) or len(raw) < _HEADER_LEN:
        return None
    if raw[_HEADER_LEN - 1 : _HEADER_LEN] != b"\n":
        return None
    return raw[len(_MAGIC) : _HEADER_LEN - 1], raw[_HEADER_LEN:]


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

    def _sidecar(self, key: str) -> bytes:
        """The legacy sidecar checksum of *key* (inside :meth:`_os_errors`)."""
        try:
            return self._digest(key, self._sum_path(key).read_bytes())
        except FileNotFoundError:
            raise BlobCorruptedError(
                f"object {key!r} at provider {self.name!r} has neither an "
                f"embedded checksum nor a sidecar"
            ) from None

    def _digest(self, key: str, spelled: bytes) -> bytes:
        """The raw digest *key*'s header or sidecar spells in hex; anything
        but 64 lowercase hex characters is :class:`BlobCorruptedError`."""
        if _CHECKSUM_RE.fullmatch(spelled) is None:
            raise BlobCorruptedError(
                f"object {key!r} at provider {self.name!r} has a checksum "
                f"that is not 64 lowercase hex characters"
            )
        return bytes.fromhex(spelled.decode("ascii"))

    def put(self, key: str, data: bytes, checksum: bytes | None = None) -> None:
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

    def _read_record(self, key: str) -> tuple[bytes, bytes]:
        """(expected checksum, payload) for *key* in either format."""
        with self._os_errors("get", key, BlobCorruptedError):
            raw = self._blob_path(key).read_bytes()
            unpacked = _unpack_record(raw)
            if unpacked is not None:
                return self._digest(key, unpacked[0]), unpacked[1]
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
                    key=key, size=size - _HEADER_LEN,
                    checksum=self._digest(key, unpacked[0]),
                )
            return BlobStat(key=key, size=size, checksum=self._sidecar(key))
