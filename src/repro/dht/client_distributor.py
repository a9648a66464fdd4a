"""Client-side distributor over a DHT overlay (Section IV-C).

"The next architectural issue is the reliability of the Cloud Data
Distributor implemented at a third party server.  To solve this, the Cloud
Data Distributor can be implemented at client side by using CAN or CHORD
like hash tables that will map each ⟨filename, chunk Sl⟩ pair to a Cloud
Provider.  A downloadable list of Cloud Providers can be used to generate
the Cloud Provider Table.  Client will also have to maintain a Chunk Table
for his chunks."

Here the overlay's nodes are the *providers themselves*: the chunk key
``filename:serial`` hashes into the overlay, whose owner (plus optional
replicas) stores the chunk.  One overlay is kept per privacy level so the
eligibility rule (provider PL >= chunk PL) still holds -- the PL-p overlay
contains only providers with PL >= p.  The client keeps a local Chunk
Table (virtual ids, misleading positions) exactly as the paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.core import chunking
from repro.core.errors import DHTError, ProviderError, UnknownFileError
from repro.core.misleading import (
    NO_POSITIONS,
    InjectionRng,
    check_fraction,
    inject,
    remove as remove_misleading,
)
from repro.core.privacy import ChunkSizePolicy, PrivacyLevel
from repro.core.virtual_id import VirtualIdAllocator, shard_key
from repro.dht.can import CANetwork
from repro.dht.chord import ChordRing
from repro.providers.registry import ProviderRegistry
from repro.util.rng import SeedLike, spawn_seeds


class Overlay(Protocol):
    """What the client-side distributor needs from a DHT protocol."""

    @property
    def node_names(self) -> list[str]: ...
    def join(self, name: str): ...
    def leave(self, name: str) -> None: ...
    def nodes_for(self, key: str, r: int = 1) -> list[str]: ...
    def lookup(self, key: str, start: str | None = None): ...
    def __len__(self) -> int: ...


def build_overlays(
    registry: ProviderRegistry, protocol: str = "chord", dims: int = 2,
    m_bits: int = 32,
) -> dict[PrivacyLevel, Overlay]:
    """One overlay per privacy level, populated with eligible providers."""
    overlays: dict[PrivacyLevel, Overlay] = {}
    for level in PrivacyLevel:
        if protocol == "chord":
            overlay: Overlay = ChordRing(m_bits=m_bits)
        elif protocol == "can":
            overlay = CANetwork(dims=dims)
        else:
            raise ValueError(f"unknown DHT protocol {protocol!r}")
        for entry in registry.eligible(level):
            overlay.join(entry.name)
        overlays[level] = overlay
    return overlays


@dataclass
class LocalChunkRecord:
    """The client's local Chunk Table row for one chunk."""

    filename: str
    serial: int
    level: PrivacyLevel
    virtual_id: int
    providers: list[str]
    misleading_positions: np.ndarray  # a repro.core.misleading.position_row


class ClientSideDistributor:
    """A distributor living entirely at the client (no third-party server).

    Compared with :class:`repro.core.distributor.CloudDataDistributor` there
    is no central metadata service and no RAID striping: redundancy comes
    from DHT replication (the chunk is stored in full at ``replicas``
    overlay nodes).  The paper notes the trade-off: "Client will require
    some memory where the tables will reside."
    """

    def __init__(
        self,
        registry: ProviderRegistry,
        protocol: str = "chord",
        replicas: int = 2,
        chunk_policy: ChunkSizePolicy | None = None,
        dims: int = 2,
        seed: SeedLike = None,
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.registry = registry
        self.protocol = protocol
        self.replicas = replicas
        self.chunk_policy = chunk_policy or ChunkSizePolicy()
        self.overlays = build_overlays(registry, protocol=protocol, dims=dims)
        seeds = spawn_seeds(seed, 2)
        self.ids = VirtualIdAllocator(seed=seeds[0])
        self._rng = InjectionRng.spawn(seeds[1])
        self.chunk_table: dict[tuple[str, int], LocalChunkRecord] = {}

    # -- lookup ------------------------------------------------------------------

    @staticmethod
    def chunk_key(filename: str, serial: int) -> str:
        """The ⟨filename, chunk Sl⟩ pair as an overlay key."""
        return f"{filename}:{serial}"

    def locate(self, filename: str, serial: int, level: PrivacyLevel | int) -> list[str]:
        """Providers responsible for the chunk under the PL's overlay."""
        overlay = self.overlays[PrivacyLevel.coerce(level)]
        r = min(self.replicas, len(overlay))
        if r == 0:
            raise DHTError(
                f"no provider eligible for PL {int(PrivacyLevel.coerce(level))}"
            )
        return overlay.nodes_for(self.chunk_key(filename, serial), r=r)

    def lookup_hops(self, filename: str, serial: int, level: PrivacyLevel | int,
                    start: str | None = None) -> int:
        """Routing hops the overlay needs to resolve the chunk's owner."""
        overlay = self.overlays[PrivacyLevel.coerce(level)]
        return overlay.lookup(self.chunk_key(filename, serial), start=start).hops

    # -- data path --------------------------------------------------------------

    def upload_file(
        self,
        filename: str,
        data: bytes,
        level: PrivacyLevel | int,
        misleading_fraction: float = 0.0,
    ) -> int:
        """Split *data* and store each chunk at its DHT replica set.

        Returns the number of chunks (the client keeps the Chunk Table, so
        no third party needs notifying).  A *misleading_fraction*
        :func:`~repro.core.misleading.check_fraction` refuses raises
        ``ValueError`` before any id is drawn or byte stored.
        """
        misleading_fraction = check_fraction(misleading_fraction)
        pl = PrivacyLevel.coerce(level)
        if any(key[0] == filename for key in self.chunk_table):
            raise ValueError(f"file {filename!r} already uploaded")
        chunks = chunking.split(data, pl, policy=self.chunk_policy)
        for chunk in chunks:
            vid = self.ids.allocate()
            stored, positions = chunk.payload, NO_POSITIONS
            if misleading_fraction > 0:
                result = inject(chunk.payload, misleading_fraction, rng=self._rng)
                stored, positions = result.stored, result.positions
            providers = self.locate(filename, chunk.serial, pl)
            for replica_index, name in enumerate(providers):
                self.registry.get(name).provider.put(
                    shard_key(vid, replica_index), stored
                )
            self.chunk_table[(filename, chunk.serial)] = LocalChunkRecord(
                filename=filename,
                serial=chunk.serial,
                level=pl,
                virtual_id=vid,
                providers=list(providers),
                misleading_positions=positions,
            )
        return len(chunks)

    def get_chunk(self, filename: str, serial: int) -> bytes:
        """Fetch one chunk, falling over across replicas."""
        record = self._record(filename, serial)
        last_error: Exception | None = None
        for replica_index, name in enumerate(record.providers):
            try:
                stored = self.registry.get(name).provider.get(
                    shard_key(record.virtual_id, replica_index)
                )
                return remove_misleading(stored, record.misleading_positions)
            except ProviderError as exc:
                last_error = exc
        raise DHTError(
            f"all {len(record.providers)} replicas of {filename}:{serial} failed"
        ) from last_error

    def get_file(self, filename: str) -> bytes:
        serials = sorted(
            serial for (name, serial) in self.chunk_table if name == filename
        )
        if not serials:
            raise UnknownFileError(f"no file named {filename!r}")
        chunks = [
            chunking.Chunk(
                serial=serial,
                level=self._record(filename, serial).level,
                payload=self.get_chunk(filename, serial),
            )
            for serial in serials
        ]
        return chunking.join(chunks)

    def remove_file(self, filename: str) -> None:
        keys = [key for key in self.chunk_table if key[0] == filename]
        if not keys:
            raise UnknownFileError(f"no file named {filename!r}")
        for key in keys:
            record = self.chunk_table.pop(key)
            for replica_index, name in enumerate(record.providers):
                try:
                    self.registry.get(name).provider.delete(
                        shard_key(record.virtual_id, replica_index)
                    )
                except ProviderError:
                    pass
            self.ids.release(record.virtual_id)

    def _record(self, filename: str, serial: int) -> LocalChunkRecord:
        try:
            return self.chunk_table[(filename, serial)]
        except KeyError:
            raise UnknownFileError(
                f"no chunk {serial} of file {filename!r} in the local table"
            ) from None

    # -- churn handling ----------------------------------------------------

    def handle_provider_failure(self, name: str) -> int:
        """A provider left/died: heal the overlays and re-replicate.

        Removes *name* from every overlay it is in, then for each chunk
        that had a replica there, fetches the payload from a surviving
        replica and re-stores it so the replica count recovers on the
        healed overlay.  Returns the number of replicas re-created.

        Chunks whose *every* replica was at the failed provider are
        unrecoverable and counted too -- they surface as
        :class:`DHTError` on the next read, matching real DHT data loss.
        """
        for overlay in self.overlays.values():
            if name in overlay.node_names:  # type: ignore[attr-defined]
                overlay.leave(name)
        recreated = 0
        for record in self.chunk_table.values():
            if name not in record.providers:
                continue
            # Fetch the stored form from any surviving replica.
            stored = None
            for replica_index, provider_name in enumerate(record.providers):
                if provider_name == name:
                    continue
                try:
                    stored = self.registry.get(provider_name).provider.get(
                        shard_key(record.virtual_id, replica_index)
                    )
                    break
                except ProviderError:
                    continue
            if stored is None:
                continue  # all replicas lost; read will fail loudly
            overlay = self.overlays[record.level]
            r = min(self.replicas, len(overlay))
            new_providers = overlay.nodes_for(
                self.chunk_key(record.filename, record.serial), r=r
            )
            # Drop every old replica object (replica indices are being
            # renumbered against the new provider list), then write fresh.
            for replica_index, provider_name in enumerate(record.providers):
                if provider_name == name:
                    continue
                try:
                    self.registry.get(provider_name).provider.delete(
                        shard_key(record.virtual_id, replica_index)
                    )
                except ProviderError:
                    pass
            for replica_index, provider_name in enumerate(new_providers):
                self.registry.get(provider_name).provider.put(
                    shard_key(record.virtual_id, replica_index), stored
                )
                recreated += 1
            record.providers = list(new_providers)
        return recreated

    @property
    def table_memory_bytes(self) -> int:
        """Rough footprint of the client-resident tables (the paper's noted
        limitation of the client-side approach)."""
        total = 0
        for record in self.chunk_table.values():
            total += len(record.filename) + 8 + 8
            total += sum(len(p) for p in record.providers)
            total += record.misleading_positions.nbytes
        return total
