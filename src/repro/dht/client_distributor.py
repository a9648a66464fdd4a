"""Client-side distributor over a DHT overlay (Section IV-C).

"The next architectural issue is the reliability of the Cloud Data
Distributor implemented at a third party server.  To solve this, the Cloud
Data Distributor can be implemented at client side by using CAN or CHORD
like hash tables that will map each ⟨filename, chunk Sl⟩ pair to a Cloud
Provider.  A downloadable list of Cloud Providers can be used to generate
the Cloud Provider Table.  Client will also have to maintain a Chunk Table
for his chunks."

Here the overlay's nodes are the *providers themselves*: the chunk key
``filename:serial`` hashes into the overlay, whose owner (plus replicas)
stores the chunk.  One overlay is kept per privacy level so the
eligibility rule (provider PL >= chunk PL) still holds -- the PL-p overlay
contains only providers with PL >= p.  The distributor itself is the one
engine, :class:`~repro.core.distributor.CloudDataDistributor`, run at the
client with the overlay as its placement and ``raid1@r`` as its codec: the
tables live in it, and every read is checked against the digests it
recorded.
"""

from __future__ import annotations

import secrets
from typing import NamedTuple

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import DHTError, ReconstructionError, UnknownChunkError, UnknownFileError
from repro.core.privacy import ChunkSizePolicy, PrivacyLevel
from repro.core.tables import ChunkEntry
from repro.dht.placement import OverlayPlacement, build_overlays, chunk_key
from repro.providers.registry import ProviderRegistry
from repro.util.rng import SeedLike

#: The one account the client holds at its own engine.
CLIENT = "local"


class Holding(NamedTuple):
    """One chunk as the engine's tables hold it: its Chunk Table row and
    the provider of each shard (replica), by shard index."""

    entry: ChunkEntry
    providers: list[str]


class ClientSideDistributor:
    """A distributor living entirely at the client (no third-party server).

    Redundancy is DHT replication: each chunk is stored in full at the
    ``replicas`` overlay nodes that own its key (the ``raid1@r`` codec).
    The paper notes the trade-off: "Client will require some memory where
    the tables will reside."
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
        self.overlays = build_overlays(registry, protocol=protocol, dims=dims)
        self.engine = CloudDataDistributor(
            registry, chunk_policy=chunk_policy,
            placement=OverlayPlacement(overlays=self.overlays), seed=seed,
        )
        self._password = secrets.token_hex(16)
        self.engine.register_client(CLIENT)
        self.engine.add_password(CLIENT, self._password, max(PrivacyLevel))

    def locate(self, filename: str, serial: int, level: PrivacyLevel | int) -> list[str]:
        """Providers responsible for the chunk under the PL's overlay."""
        overlay = self.overlays[PrivacyLevel.coerce(level)]
        r = min(self.replicas, len(overlay))
        if r == 0:
            raise DHTError(f"no provider eligible for PL {int(PrivacyLevel.coerce(level))}")
        return overlay.nodes_for(chunk_key(filename, serial), r=r)

    def lookup_hops(self, filename: str, serial: int, level: PrivacyLevel | int,
                    start: str | None = None) -> int:
        """Routing hops the overlay needs to resolve the chunk's owner."""
        overlay = self.overlays[PrivacyLevel.coerce(level)]
        return overlay.lookup(chunk_key(filename, serial), start=start).hops

    def upload_file(self, filename: str, data: bytes, level: PrivacyLevel | int,
                    misleading_fraction: float = 0.0) -> int:
        """Split *data* and store each chunk at its DHT replica set; returns
        the number of chunks.  A duplicate *filename* or a refused
        *misleading_fraction* raises ``ValueError`` before anything is
        stored or any id drawn."""
        r = len(self.locate(filename, 0, level))
        receipt = self.engine.upload_file(
            CLIENT, self._password, filename, data, level,
            codec=f"raid1@{r}" if r > 1 else "raid0@1",
            misleading_fraction=misleading_fraction,
        )
        return receipt.chunk_count

    def get_chunk(self, filename: str, serial: int) -> bytes:
        """Fetch one chunk, reading around a replica that is down or whose
        bytes fail their recorded digest."""
        return self._read(self.engine.get_chunk, filename, serial)

    def get_file(self, filename: str) -> bytes:
        return self._read(self.engine.get_file, filename)

    def _read(self, read, filename: str, *serial: int) -> bytes:
        try:
            return read(CLIENT, self._password, filename, *serial)
        except UnknownChunkError as exc:
            raise UnknownFileError(str(exc)) from None
        except ReconstructionError as exc:
            raise DHTError(f"every replica of a chunk of {filename!r} failed") from exc

    def remove_file(self, filename: str) -> None:
        self.engine.remove_file(CLIENT, self._password, filename)

    @property
    def chunk_table(self) -> dict[tuple[str, int], Holding]:
        """This client's chunks by ⟨filename, sl⟩, read off the engine's
        Client and Chunk Tables on each access."""
        engine, table = self.engine, {}
        with engine.op_lock:
            for ref in engine.client_table.get(CLIENT).chunk_refs:
                entry = engine.chunk_table.get(ref.chunk_index)
                table[ref.filename, ref.serial] = Holding(entry, engine._members(entry))
        return table

    def handle_provider_failure(self, name: str) -> int:
        """A provider left/died: heal the overlays and re-replicate.

        Removes *name* from every overlay it is in, then moves each replica
        it held to the healed overlay's owners of the chunk outside its
        stripe -- read from *name* if it still answers, else copied from a
        surviving replica -- as a decommission drains a provider.  Returns
        the number of replicas re-created.  A chunk whose *every* replica
        was at *name* is unrecoverable: it surfaces as :class:`DHTError` on
        the next read, matching real DHT data loss.
        """
        for overlay in self.overlays.values():
            if name in overlay.node_names:
                overlay.leave(name)
        engine, recreated = self.engine, 0
        with engine.op_lock:
            victim = engine.provider_table.index_of(name)
            for (filename, serial), (entry, members) in self.chunk_table.items():
                leaving = [i for i, p in enumerate(entry.provider_indices) if p == victim]
                if not leaving:
                    continue
                owners = self.locate(filename, serial, entry.privacy_level)
                targets = [owner for owner in owners if owner not in members]
                outcome = engine._replace_shards(entry, leaving, targets=targets)
                recreated += len(outcome[0]) if outcome else 0
        return recreated

    @property
    def table_memory_bytes(self) -> int:
        """Bytes the engine's tables hold for this client's chunks (the
        paper's noted limitation of the client-side approach): their Chunk
        Table rows and heap entries, and their Client Table quadruples."""
        engine = self.engine
        with engine.op_lock:
            client = engine.client_table.get(CLIENT)
            files = [client.file(name) for name in client.filenames()]
            return sum(
                engine.chunk_table.nbytes(refs.chunks)
                + refs.serials.nbytes + refs.chunks.nbytes + refs.levels.nbytes
                for refs in files
            )
