"""Per-shard provider key namespacing.

Every shard runs a full :class:`~repro.core.distributor.CloudDataDistributor`
with its own :class:`~repro.util.virtual_ids.VirtualIdAllocator`, so two
shards sharing one physical provider fleet would collide on object keys
(``shard_key(vid, i)`` is only unique per allocator).  The fix is a
transparent key prefix: shard ``s0`` stores ``V123:0`` as
``fleet/s0/V123:0``.  :class:`NamespacedProvider` applies the prefix on
every write/read/delete and strips it again in listings, so the
distributor, its intent-journal recovery, and ``repro fsck`` all keep
seeing the keys they wrote -- while the physical store keeps the shards
disjoint.
"""

from __future__ import annotations

from repro.providers.base import BlobStat, CloudProvider
from repro.providers.registry import ProviderRegistry


class NamespacedProvider(CloudProvider):
    """A provider view that confines all keys under ``fleet/<namespace>/``."""

    def __init__(self, inner: CloudProvider, namespace: str) -> None:
        if "/" in namespace or not namespace:
            raise ValueError(f"namespace must be a non-empty path segment, got {namespace!r}")
        super().__init__(inner.name)
        self.inner = inner
        self.namespace = namespace
        self._prefix = f"fleet/{namespace}/"
        # What the inner provider splits, its ``start_*`` forms forwarded
        # below (read a leg of every round: a plain attribute).
        self.splits = inner.splits

    # -- key mapping -------------------------------------------------------

    def _outer(self, key: str) -> str:
        return self._prefix + key

    def _is_ours(self, outer_key: str) -> bool:
        return outer_key.startswith(self._prefix)

    def _logical(self, outer_key: str) -> str:
        return outer_key[len(self._prefix):]

    # -- CloudProvider interface -------------------------------------------

    def put(self, key: str, data: bytes, checksum: bytes | None = None) -> None:
        self.inner.put(self._outer(key), data, checksum=checksum)

    def get(self, key: str) -> bytes:
        return self.inner.get(self._outer(key))

    def delete(self, key: str) -> None:
        self.inner.delete(self._outer(key))

    def keys(self) -> list[str]:
        return [
            self._logical(k) for k in self.inner.keys() if self._is_ours(k)
        ]

    def head(self, key: str) -> BlobStat:
        stat = self.inner.head(self._outer(key))
        return BlobStat(key=key, size=stat.size, checksum=stat.checksum)

    # -- batched ops: preserve the inner provider's batching ----------------

    def put_many(
        self,
        items: list[tuple[str, bytes]],
        checksums: list[bytes] | None = None,
    ) -> list:
        return self.inner.put_many(
            [(self._outer(k), v) for k, v in items], checksums=checksums
        )

    def get_many(self, keys: list[str]) -> list:
        return self.inner.get_many([self._outer(k) for k in keys])

    def delete_many(self, keys: list[str]) -> list:
        return self.inner.delete_many([self._outer(k) for k in keys])

    def start_put_many(
        self,
        items: list[tuple[str, bytes]],
        checksums: list[bytes] | None = None,
    ):
        return self.inner.start_put_many(
            [(self._outer(k), v) for k, v in items], checksums
        )

    def start_get_many(self, keys: list[str]):
        return self.inner.start_get_many([self._outer(k) for k in keys])

    def start_delete_many(self, keys: list[str]):
        return self.inner.start_delete_many([self._outer(k) for k in keys])

    def contains(self, key: str) -> bool:
        return self.inner.contains(self._outer(key))

    # -- passthroughs the distributor introspects ---------------------------

    @property
    def waits(self) -> bool:
        return self.inner.waits

    @property
    def available(self) -> bool:
        return getattr(self.inner, "available", True)

    @property
    def meter(self):
        """The physical provider's billing meter (or None).

        Capacity accounting is a property of the underlying store: all
        shards writing to one provider draw down the same capacity, so the
        meter is deliberately NOT namespaced.
        """
        return getattr(self.inner, "meter", None)


def shard_registry(base: ProviderRegistry, shard_id: str) -> ProviderRegistry:
    """A shard-private registry wrapping every provider of *base*.

    Privacy/cost/region/capacity metadata carries over untouched -- a
    shard makes the same placement decisions the monolith would, it just
    writes under its own key prefix.  The attestation registry is shared
    (attestation is a property of the physical provider, not the view).
    """
    registry = ProviderRegistry(attestation=base.attestation)
    for entry in base.all():
        registry.register(
            NamespacedProvider(entry.provider, shard_id),
            entry.privacy_level,
            entry.cost_level,
            region=entry.region,
            capacity_bytes=entry.capacity_bytes,
        )
    return registry
