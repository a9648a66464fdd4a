"""Snapshot-provider bookkeeping (Table III's ``SP`` column).

"Snapshot of a chunk refers to the state of the chunk before the chunk is
modified.  That is, snapshot provider stores the pre-state and cloud
provider stores the post-state of a chunk after each modification."

The snapshot is the whole pre-modification chunk payload stored as a single
object (key ``S<virtual id>``) at one eligible provider, preferably outside
the chunk's current stripe group so a provider never holds both states.
"""

from __future__ import annotations

from repro.core.errors import PlacementError
from repro.core.placement import PlacementPolicy
from repro.core.privacy import PrivacyLevel
from repro.core.virtual_id import snapshot_key
from repro.providers.registry import ProviderRegistry


class SnapshotManager:
    """Places, writes and reads per-chunk snapshots.  (The distributor
    stores and deletes an update's snapshots in its own provider batches,
    beside the shards.)"""

    def __init__(self, registry: ProviderRegistry, policy: PlacementPolicy) -> None:
        self.registry = registry
        self.policy = policy

    def choose_provider(
        self,
        chunk_level: PrivacyLevel | int,
        exclude: set[str],
        load: dict[str, int] | None = None,
    ) -> str:
        """Pick a snapshot provider, avoiding the stripe members if possible."""
        candidates = self.policy.candidates(self.registry, chunk_level)
        outside = [c for c in candidates if c.name not in exclude]
        pool = outside or candidates
        if not pool:
            raise PlacementError(
                f"no provider eligible to snapshot a PL-"
                f"{int(PrivacyLevel.coerce(chunk_level))} chunk"
            )
        load = load or {}
        pool = sorted(pool, key=lambda e: (int(e.cost_level), load.get(e.name, 0)))
        return pool[0].name

    def write(self, provider_name: str, virtual_id: int, pre_state: bytes) -> str:
        """Store *pre_state* as the snapshot of chunk *virtual_id*."""
        key = snapshot_key(virtual_id)
        self.registry.get(provider_name).provider.put(key, pre_state)
        return key

    def read(self, provider_name: str, virtual_id: int) -> bytes:
        return self.registry.get(provider_name).provider.get(snapshot_key(virtual_id))
