"""In-memory provider backend.

The workhorse backend for experiments: a dict of key -> (bytes, checksum)
with hooks the fault injector uses to silently lose or corrupt objects, the
way a misbehaving real provider would.
"""

from __future__ import annotations

from repro.core.errors import (
    BlobCorruptedError,
    BlobNotFoundError,
    ProviderError,
)
from repro.providers.base import BlobStat, CloudProvider, blob_checksum


class InMemoryProvider(CloudProvider):
    """Dictionary-backed object store with integrity verification."""

    waits = False  # a dict lookup and a hash: a pool thread buys it nothing

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._blobs: dict[str, bytes] = {}
        self._checksums: dict[str, str] = {}

    def put(self, key: str, data: bytes, checksum: str | None = None) -> None:
        self._blobs[key] = bytes(data)
        self._checksums[key] = (
            checksum if checksum is not None else blob_checksum(data)
        )

    def get(self, key: str) -> bytes:
        (outcome,) = self.get_many([key])
        if isinstance(outcome, ProviderError):
            raise outcome
        return outcome

    def get_many(self, keys: list[str]) -> list["bytes | ProviderError"]:
        """One pass over the two dicts; each object is checked at rest
        against the checksum recorded when it was put."""
        blobs, checksums = self._blobs, self._checksums
        outcomes: list[bytes | ProviderError] = []
        for key in keys:
            data = blobs.get(key)
            if data is None:
                outcomes.append(BlobNotFoundError(
                    f"provider {self.name!r} has no object {key!r}"
                ))
            elif blob_checksum(data) != checksums[key]:
                outcomes.append(BlobCorruptedError(
                    f"object {key!r} at provider {self.name!r} failed "
                    f"integrity check"
                ))
            else:
                outcomes.append(data)
        return outcomes

    def delete(self, key: str) -> None:
        if key not in self._blobs:
            raise BlobNotFoundError(
                f"provider {self.name!r} has no object {key!r}"
            )
        del self._blobs[key]
        del self._checksums[key]

    def keys(self) -> list[str]:
        return list(self._blobs)

    def head(self, key: str) -> BlobStat:
        try:
            data = self._blobs[key]
        except KeyError:
            raise BlobNotFoundError(
                f"provider {self.name!r} has no object {key!r}"
            ) from None
        return BlobStat(key=key, size=len(data), checksum=self._checksums[key])

    # -- fault-injection hooks (used by repro.providers.failures) ----------

    def drop_blob(self, key: str) -> None:
        """Silently lose the object at *key* (disk death, bit rot...)."""
        self._blobs.pop(key, None)
        self._checksums.pop(key, None)

    def corrupt_blob(self, key: str, flip_index: int = 0) -> None:
        """Flip one byte of the stored object without updating its checksum."""
        if key not in self._blobs:
            raise BlobNotFoundError(
                f"provider {self.name!r} has no object {key!r}"
            )
        data = bytearray(self._blobs[key])
        if not data:
            # Empty payloads cannot be bit-flipped; model corruption as loss.
            self.drop_blob(key)
            return
        data[flip_index % len(data)] ^= 0xFF
        self._blobs[key] = bytes(data)
