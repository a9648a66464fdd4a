"""Snapshot-provider bookkeeping (Table III's ``SP`` column).

"Snapshot of a chunk refers to the state of the chunk before the chunk is
modified.  That is, snapshot provider stores the pre-state and cloud
provider stores the post-state of a chunk after each modification."

The snapshot is the whole pre-modification chunk payload stored as a single
object (key ``S<virtual id>``) at one eligible provider, preferably outside
the chunk's current stripe group so a provider never holds both states.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Sequence

from repro.core.errors import PlacementError
from repro.core.placement import PlacementPolicy, PlacementSnapshot
from repro.core.privacy import PrivacyLevel
from repro.core.virtual_id import snapshot_key
from repro.providers.registry import ProviderRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.health.monitor import HealthMonitor


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
        health: "HealthMonitor | None" = None,
    ) -> str:
        """Pick a snapshot provider, avoiding the stripe members if
        possible: :meth:`homes` of one stripe, charged to a copy of *load*."""
        snapshot = self.policy.snapshot(self.registry, chunk_level, health)
        return self.homes(snapshot, [exclude], dict(load or {}))[0]

    def homes(
        self,
        snapshot: PlacementSnapshot,
        groups: "Sequence[Collection[str]]",
        load: dict[str, int],
    ) -> list[str]:
        """A snapshot home for each stripe *group* of a window, in order.

        The candidates are *snapshot*'s -- the window's placement snapshot,
        so a provider its health monitor holds DOWN is none -- outside the
        group if any is, else inside it; of them the cheapest cost tier,
        then the least loaded, wins (the first in candidate order on a
        tie).  Each pick is charged to *load* before the next.
        """
        names = [name for _, name in snapshot.ranked]
        if not names:
            raise PlacementError(
                f"no provider eligible to snapshot a PL-{int(snapshot.level)} chunk"
            )
        cost = {name: int(self.registry.get(name).cost_level) for name in names}
        picks = []
        for group in groups:
            pool = [name for name in names if name not in group] or names
            home = min(pool, key=lambda name: (cost[name], load.get(name, 0)))
            load[home] = load.get(home, 0) + 1
            picks.append(home)
        return picks

    def write(self, provider_name: str, virtual_id: int, pre_state: bytes) -> str:
        """Store *pre_state* as the snapshot of chunk *virtual_id*."""
        key = snapshot_key(virtual_id)
        self.registry.get(provider_name).provider.put(key, pre_state)
        return key

    def read(self, provider_name: str, virtual_id: int) -> bytes:
        return self.registry.get(provider_name).provider.get(snapshot_key(virtual_id))
