"""In-memory provider backend.

The workhorse backend for experiments: a dict of key -> (bytes, checksum),
the checksum as :func:`~repro.providers.base.blob_checksum` returns it, with
hooks the fault injector uses to silently lose or corrupt objects, the
way a misbehaving real provider would.
"""

from __future__ import annotations

from repro.core.errors import (
    BlobCorruptedError,
    BlobNotFoundError,
    ProviderError,
)
from repro.providers.base import BlobStat, CloudProvider, blob_checksum

#: A batch of at most this many keys is judged key by key even when it is
#: clean: for so few, the loop costs less than three passes over the batch
#: (the two cost the same at about 16 keys of 1 KiB objects).
_FEW_KEYS = 16


class InMemoryProvider(CloudProvider):
    """Dictionary-backed object store with integrity verification."""

    waits = False  # a dict lookup and a hash: a pool thread buys it nothing

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._blobs: dict[str, bytes] = {}
        self._checksums: dict[str, bytes] = {}

    def put(self, key: str, data: bytes, checksum: bytes | None = None) -> None:
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
        """Each object checked at rest against the digest recorded when it
        was put, and hashed once.  A batch of more than :data:`_FEW_KEYS`
        keys, all present, is one lookup pass, one hashing pass and one
        list compare (a mismatch judged from the same passes); any other
        is judged key by key."""
        blobs, checksums = self._blobs, self._checksums
        if len(keys) > _FEW_KEYS:
            try:
                found = list(map(blobs.__getitem__, keys))
            except KeyError:  # a key is missing: judged key by key below
                pass
            else:
                actual = list(map(blob_checksum, found))
                recorded = list(map(checksums.__getitem__, keys))
                if actual == recorded:
                    return found
                return [
                    data if got == want else self._rotten(key)
                    for key, data, got, want in zip(keys, found, actual, recorded)
                ]
        outcomes: list[bytes | ProviderError] = []
        for key in keys:
            data = blobs.get(key)
            if data is None:
                outcomes.append(BlobNotFoundError(
                    f"provider {self.name!r} has no object {key!r}"
                ))
            elif blob_checksum(data) != checksums[key]:
                outcomes.append(self._rotten(key))
            else:
                outcomes.append(data)
        return outcomes

    def _rotten(self, key: str) -> BlobCorruptedError:
        return BlobCorruptedError(
            f"object {key!r} at provider {self.name!r} failed integrity check"
        )

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
