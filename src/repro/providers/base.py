"""Cloud-provider abstraction (Section IV-B).

"The main tasks of Cloud Providers are: storing chunks of data, responding
to a query by providing the desired data, and removing chunks when asked.
All these are done using virtual id which is known as key for Amazon's
simple storage service (S3)."

Every backend therefore exposes the S3-flavoured ``put``/``get``/``delete``
triple (plus ``contains``/``keys``/``head`` conveniences), keyed by opaque
strings.  Integrity is first-class: backends remember a checksum at ``put``
time and raise :class:`BlobCorruptedError` from ``get`` if the stored bytes
no longer match -- which is how injected corruption faults surface.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.errors import (
    BlobCorruptedError,
    BlobNotFoundError,
    ProviderError,
    ProviderUnavailableError,
)

#: What a backend may answer for an object besides a ProviderError.
_BYTES_LIKE = (bytes, bytearray, memoryview)
_BYTES = frozenset(_BYTES_LIKE)


def blob_checksum(data: bytes) -> bytes:
    """Content checksum used for at-rest integrity verification: the 32
    raw bytes of the SHA-256, the one form a digest takes in the process
    (a format that stores or sends one writes it as hex at its edge)."""
    return hashlib.sha256(data).digest()


def check_answers(
    name: str, keys: list[str], digests: list, outcomes: list
) -> list:
    """Provider *name*'s *outcomes* for *keys*, each arrival checked
    against its write-time digest in *digests* (32 raw bytes, as
    :func:`blob_checksum` returns it; ``None``: not judged).

    An arrival whose :func:`blob_checksum` differs becomes a
    :class:`BlobCorruptedError`, and an answer that is neither bytes nor a
    :class:`ProviderError` (a buggy backend) a :class:`ProviderError`
    naming the provider; every other slot is kept.  One hash per judged
    arrival; a batch of bytes that all match comes back as *outcomes*
    itself, after one compare.
    """
    actual: list = [None] * len(outcomes)  # hashed below, as judged
    if _BYTES.issuperset(map(type, outcomes)) and None not in digests:
        actual = list(map(blob_checksum, outcomes))
        if actual == digests:
            return outcomes
    checked = []
    for key, digest, data, got in zip(keys, digests, outcomes, actual):
        if isinstance(data, ProviderError):
            pass
        elif not isinstance(data, _BYTES_LIKE):
            data = ProviderError(
                f"provider {name!r} answered {type(data).__name__} "
                f"for {key!r}"
            )
        elif digest is not None and (got or blob_checksum(data)) != digest:
            data = BlobCorruptedError(
                f"shard {key!r} from provider {name!r} does not match "
                f"its recorded checksum"
            )
        checked.append(data)
    return checked


@dataclass(frozen=True)
class BlobStat:
    """Metadata returned by ``head``: size and integrity checksum (the
    digest the backend recorded, as :func:`blob_checksum` returns it)."""

    key: str
    size: int
    checksum: bytes


class CloudProvider(ABC):
    """Abstract S3-like object store."""

    #: Can a call wait on anything but the CPU -- a socket, a disk, a
    #: sleep?  A fact each backend states, not a setting: the distributor
    #: hands a request to a transport thread only where another request
    #: could make progress meanwhile.  True unless a backend knows better.
    waits: bool = True

    #: The batched calls a backend can make in two halves: ``start_<call>``
    #: sends the request and returns the call that reads its answers, so
    #: one thread keeps several providers' requests in flight.  A socket
    #: client can (:class:`~repro.net.remote.RemoteProvider`); a call that
    #: must be made whole is named here by no backend.
    splits: frozenset[str] = frozenset()

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("provider name must be non-empty")
        self.name = name

    # -- core S3-style interface ------------------------------------------

    @abstractmethod
    def put(self, key: str, data: bytes, checksum: bytes | None = None) -> None:
        """Store *data* under *key*, overwriting any previous object.

        *checksum*, when given, is ``blob_checksum(data)`` (32 raw bytes)
        as the caller already computed it: the backend records it instead
        of hashing the same bytes again.  A wrong one cannot pass bad bytes
        for good -- it only makes every later ``get`` of the object raise
        :class:`BlobCorruptedError`.
        """

    @abstractmethod
    def get(self, key: str) -> bytes:
        """Return the object at *key*.

        Raises :class:`BlobNotFoundError` if absent and
        :class:`BlobCorruptedError` if the stored bytes fail their
        integrity check.
        """

    @abstractmethod
    def delete(self, key: str) -> None:
        """Remove the object at *key* (raises if absent)."""

    @abstractmethod
    def keys(self) -> list[str]:
        """All keys currently stored, in unspecified order."""

    @abstractmethod
    def head(self, key: str) -> BlobStat:
        """Size/checksum metadata without transferring the payload."""

    # -- batched forms ------------------------------------------------------
    #
    # The distributor's data path stores/fetches every shard of a window bound
    # for one provider in a single call.  The defaults below loop the
    # per-object primitives with per-item error capture, so any backend is
    # batch-capable; RemoteProvider overrides put_many/get_many with one
    # MULTI_PUT / MULTI_GET wire round-trip and delete_many with windows of
    # pipelined DELETE frames.  A whole-provider failure (e.g. transport
    # down) may instead be raised directly by an override.

    def put_many(
        self,
        items: list[tuple[str, bytes]],
        checksums: list[bytes] | None = None,
    ) -> list[ProviderError | None]:
        """Store many objects; one outcome (``None`` = stored) per item.

        *checksums*, when given, holds one ``put`` checksum per item.
        """
        outcomes: list[ProviderError | None] = []
        if checksums is None:
            checksums = [None] * len(items)
        for (key, data), checksum in zip(items, checksums, strict=True):
            try:
                self.put(key, data, checksum=checksum)
                outcomes.append(None)
            except ProviderError as exc:
                outcomes.append(exc)
        return outcomes

    def get_many(self, keys: list[str]) -> list["bytes | ProviderError"]:
        """Fetch many objects; each slot holds the bytes or the error."""
        outcomes: list[bytes | ProviderError] = []
        for key in keys:
            try:
                outcomes.append(self.get(key))
            except ProviderError as exc:
                outcomes.append(exc)
        return outcomes

    def delete_many(self, keys: list[str]) -> list[ProviderError | None]:
        """Remove many objects; one outcome (``None`` = removed) per key.

        An absent key answers :class:`BlobNotFoundError` in its slot and
        does not stop the rest.
        """
        outcomes: list[ProviderError | None] = []
        for key in keys:
            try:
                self.delete(key)
                outcomes.append(None)
            except ProviderError as exc:
                outcomes.append(exc)
        return outcomes

    # Streaming variants: same per-item contract as put_many/get_many, but
    # the caller promises the window of items is bounded (one streaming
    # window's worth of shards), so implementations may frame items
    # individually instead of materializing one aggregate payload.
    # RemoteProvider overrides both with STREAM_PUT/STREAM_GET sessions;
    # for in-process backends the batch form is already zero-aggregation,
    # so delegating is exact.

    def put_stream(
        self,
        items: list[tuple[str, bytes]],
        checksums: list[bytes] | None = None,
    ) -> list[ProviderError | None]:
        """Store one streaming window of objects; outcome per item."""
        return self.put_many(items, checksums=checksums)

    def get_stream(self, keys: list[str]) -> list["bytes | ProviderError"]:
        """Fetch one streaming window of objects; bytes or error per slot."""
        return self.get_many(keys)

    # -- conveniences -------------------------------------------------------

    def contains(self, key: str) -> bool:
        try:
            self.head(key)
            return True
        except BlobNotFoundError:
            return False
        except ProviderUnavailableError:
            raise

    @property
    def object_count(self) -> int:
        return len(self.keys())

    @property
    def stored_bytes(self) -> int:
        """Total payload bytes currently stored.

        Costs one ``keys`` listing plus O(keys) ``head`` calls against the
        backend -- on metered or remote providers that is one billed/network
        request per object, so avoid it on hot paths.
        """
        return sum(self.head(k).size for k in self.keys())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"
