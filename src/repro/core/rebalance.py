"""Provider churn: admission, decommissioning, and load rebalancing.

"Number of cloud service providers is rapidly increasing" (Section IV-B)
-- and they also leave ("the cloud provider going out of business",
Section III-A).  This module keeps a live deployment healthy through both:

* :func:`admit_provider` registers a new provider with the distributor so
  future placement can use it;
* :func:`decommission_provider` drains every shard off a provider (reading
  it directly, or rebuilding from the stripe when the provider is already
  dark) before it leaves the fleet;
* :func:`rebalance` migrates shards from the most- to the least-loaded
  eligible providers until loads are even.

The last two only choose the shard that leaves (and, rebalancing, where to);
``CloudDataDistributor._replace_shards`` moves it, as for failover and repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import PlacementError, ProviderError, UnknownChunkError
from repro.core.privacy import CostLevel, PrivacyLevel
from repro.core.tables import ChunkEntry
from repro.providers.base import CloudProvider


@dataclass
class MigrationReport:
    """Outcome of a drain or rebalance pass."""

    shards_moved: int = 0
    shards_rebuilt: int = 0
    shards_stuck: int = 0
    moves: list[tuple[int, int, str, str]] = field(default_factory=list)
    # (virtual_id, shard_index, from_provider, to_provider)


def admit_provider(
    distributor: CloudDataDistributor,
    provider: CloudProvider,
    privacy_level: PrivacyLevel | int,
    cost_level: CostLevel | int,
    region: str = "default",
) -> int:
    """Register a new provider mid-flight; returns its table index."""
    distributor.registry.register(provider, privacy_level, cost_level, region=region)
    return distributor.provider_table.add(provider.name, privacy_level, cost_level)


def _relocate(
    distributor: CloudDataDistributor, entry: ChunkEntry, leaving: list[int],
    report: MigrationReport, targets: list[str] | None = None,
) -> int | None:
    """Hand *entry*'s *leaving* shards to the distributor's one re-placement
    routine (op lock held) and book what moved: how many did, or ``None``
    when their bytes can be neither read nor rebuilt."""
    outcome = distributor._replace_shards(entry, leaving, targets=targets)
    if outcome is None:
        return None
    moves, rebuilt = outcome
    report.shards_moved += len(moves)
    report.shards_rebuilt += rebuilt
    report.moves.extend(moves)
    return len(moves)


def decommission_provider(
    distributor: CloudDataDistributor, name: str
) -> MigrationReport:
    """Drain every shard (and snapshot) off provider *name*.

    Shards whose provider is already unreachable, or whose bytes no longer
    match their recorded checksum, are rebuilt from their stripes.  Raises
    :class:`PlacementError` if nothing eligible can host the displaced
    shards.  The provider stays registered (empty) so stale readers fail
    cleanly; remove it from the registry afterwards if desired.  The op
    lock is taken per chunk, so client ops and scrubs take turns with it.
    """
    victim_index = distributor.provider_table.index_of(name)
    report = MigrationReport()
    with distributor.op_lock:
        chunk_indices = [index for index, _ in distributor.chunk_table]
    for index in chunk_indices:
        with distributor.op_lock:
            try:
                entry = distributor.chunk_table.get(index)
            except UnknownChunkError:
                continue  # removed since the snapshot of indices
            leaving = [
                i for i, t in enumerate(entry.provider_indices) if t == victim_index
            ]
            moved = _relocate(distributor, entry, leaving, report) if leaving else 0
            if moved is None:
                report.shards_stuck += len(leaving)
            elif moved < len(leaving):
                raise PlacementError(
                    f"no eligible provider can absorb PL-"
                    f"{int(entry.privacy_level)} shards from {name!r}"
                )
            if entry.snapshot_index == victim_index:  # its snapshot moves too
                try:
                    pre_state = distributor.snapshots.read(name, entry.virtual_id)
                except ProviderError:
                    report.shards_stuck += 1
                    continue
                target = distributor.snapshots.choose_provider(
                    entry.privacy_level,
                    exclude={name, *distributor._members(entry)},
                    load=distributor.provider_loads(),
                    health=distributor.health,
                )
                key = distributor.snapshots.write(target, entry.virtual_id, pre_state)
                distributor.chunk_table.set_snapshot(
                    entry, distributor.provider_table.index_of(target)
                )
                distributor._delete_objects([(name, key)])
                report.shards_moved += 1
    return report


def rebalance(
    distributor: CloudDataDistributor, max_moves: int | None = None
) -> MigrationReport:
    """Even out shard counts by migrating from hottest to coldest providers.

    Moves one shard at a time (each found and made under the op lock) from
    the most-loaded provider to the least-loaded provider eligible for that
    shard's privacy level (and not already in its stripe group), stopping
    when the spread is <= 1 shard or *max_moves* is reached.
    """
    report = MigrationReport()
    budget = max_moves if max_moves is not None else 10_000
    while report.shards_moved < budget:
        with distributor.op_lock:
            if not _cool_hottest(distributor, report):
                break
    return report


def _cool_hottest(distributor: CloudDataDistributor, report: MigrationReport) -> bool:
    """Move one shard off the most-loaded provider to a colder eligible
    one; False when no shard there has anywhere colder to go."""
    loads = distributor.provider_loads()
    if not loads:
        return False
    hottest = max(loads, key=lambda n: (loads[n], n))
    hottest_index = distributor.provider_table.index_of(hottest)
    for _, entry in distributor.chunk_table:
        for shard_index, table_index in enumerate(entry.provider_indices):
            if table_index != hottest_index:
                continue
            # Not into the stripe, nor onto its snapshot's home.
            group = distributor._members(entry)
            if entry.snapshot_index is not None:
                group.append(distributor.provider_table.get(entry.snapshot_index).name)
            eligible = distributor.placement.candidates(
                distributor.registry, entry.privacy_level
            )
            colder = sorted(
                (
                    c.name
                    for c in eligible
                    if c.name not in group
                    and loads.get(c.name, 0) + 1 < loads[hottest]
                ),
                key=lambda n: (loads.get(n, 0), n),
            )
            if colder and _relocate(distributor, entry, [shard_index], report, colder):
                return True
    return False
