"""Typed exception hierarchy for the distributor and provider layers."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class AuthenticationError(ReproError):
    """Unknown client or wrong password."""


class AuthorizationError(ReproError):
    """Password is valid but not privileged enough for the requested chunk."""


class UnknownClientError(AuthenticationError):
    """No such client is registered at the distributor."""


class UnknownFileError(ReproError):
    """The client has no file by that name."""


class UnknownChunkError(ReproError):
    """No chunk with that (filename, serial) or virtual id exists."""


class ProviderError(ReproError):
    """Base class for provider-side failures."""


class ProviderUnavailableError(ProviderError):
    """The provider is down (outage window / churned out)."""


class BlobNotFoundError(ProviderError):
    """The provider has no object under the requested key."""


class BlobCorruptedError(ProviderError):
    """The stored object failed its integrity check."""


class DeadlineExceeded(ProviderError):
    """The request's deadline expired before the operation completed.

    Subclasses :class:`ProviderError` deliberately: a deadline that
    expires mid-operation must flow through the same failover, degraded
    read, and rollback machinery a failed provider does -- the caller
    gave up, so grinding on (or crashing a transfer loop with an
    unexpected exception type) would be worse than failing the shard.
    """


class ResourceExhaustedError(ProviderUnavailableError):
    """The server shed the request at admission (overloaded).

    Carries an optional ``retry_after`` hint (seconds) the server attached
    to the rejection; retry loops honor it (with jitter) instead of their
    default backoff.  The request was never started, so retrying is safe.
    """

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class RequestTooLargeError(ReproError):
    """A wire request exceeded the server's framing limit."""


class PlacementError(ReproError):
    """No eligible provider set satisfies the placement constraints."""


class UnknownCodecError(ReproError):
    """A chunk's stored codec spec cannot be parsed or instantiated.

    Raised when metadata (chunk table, journal, snapshot) names an erasure
    codec this build does not understand -- a corrupted level value or a
    spec written by a newer codec generation.  Carries enough context to
    classify the chunk instead of crashing the whole metadata load:
    ``spec`` is the offending codec string, ``filename`` the client file
    (or metadata file) it belongs to when known, ``virtual_id`` the chunk.
    """

    def __init__(
        self,
        message: str,
        *,
        spec: str | None = None,
        filename: str | None = None,
        virtual_id: int | None = None,
    ) -> None:
        super().__init__(message)
        self.spec = spec
        self.filename = filename
        self.virtual_id = virtual_id


class MetadataCorruptedError(ReproError, RuntimeError):
    """Distributor metadata failed a check at load: the persisted file's
    integrity digest, or a chunk row that contradicts its own stripe."""


class ReconstructionError(ReproError):
    """Too many stripe members lost for the RAID level to recover."""


class DistributorUnavailableError(ReproError):
    """The (primary) distributor is offline and no secondary can serve."""


class DHTError(ReproError):
    """Lookup/maintenance failure inside a DHT overlay."""


class QuotaExceededError(AuthorizationError):
    """A tenant operation would exceed its configured fleet quota."""


class FleetError(ReproError):
    """Sharded-fleet control-plane failure (routing, membership, migration)."""


class ShardUnavailable(FleetError):
    """The owning shard is degraded; writes fail fast instead of timing out.

    Reads are unaffected -- the gateway keeps them alive through its
    ``_locate`` fan-out -- so this is a *read-only degradation* verdict,
    not an outage.  Carries an optional ``retry_after`` hint mirroring
    :class:`ResourceExhaustedError`.
    """

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after
