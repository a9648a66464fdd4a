"""Deployment consistency verification.

The distributor's metadata and the providers' object stores can drift:
blobs silently lost (§III-A's failure modes), garbage left behind by a
provider that was down during a delete, or corruption at rest.  The
checker cross-audits the two sides without touching payload bytes (HEAD
requests only) and reports every discrepancy so operators can drive
repair (`repair_file`) or garbage collection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.distributor import CloudDataDistributor
from repro.core.errors import ProviderError


@dataclass(frozen=True)
class ShardIssue:
    virtual_id: int
    shard_index: int
    provider: str
    problem: str  # "missing" | "unreachable"


@dataclass
class ConsistencyReport:
    shards_checked: int = 0
    snapshots_checked: int = 0
    missing: list[ShardIssue] = field(default_factory=list)
    orphans: dict[str, list[str]] = field(default_factory=dict)
    unreachable_providers: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.missing and not any(self.orphans.values())

    def summary(self) -> str:
        orphan_count = sum(len(v) for v in self.orphans.values())
        return (
            f"{self.shards_checked} shards + {self.snapshots_checked} "
            f"snapshots checked: {len(self.missing)} missing, "
            f"{orphan_count} orphan object(s), "
            f"{len(self.unreachable_providers)} provider(s) unreachable"
        )


def verify_deployment(distributor: CloudDataDistributor) -> ConsistencyReport:
    """Cross-audit metadata against provider contents.

    * every shard and snapshot referenced by the Chunk Table must exist at
      its recorded provider (``missing`` otherwise);
    * every object at a provider must be referenced by the tables
      (``orphans`` otherwise -- eligible for garbage collection);
    * unreachable providers are reported separately (their objects can be
      neither confirmed nor condemned).
    """
    report = ConsistencyReport()
    expected: dict[str, set[str]] = {
        name: set() for name in distributor.registry.names()
    }
    with distributor.op_lock:
        placed = distributor.chunk_table.provider_keys()
    for index, keys in placed.items():
        expected[distributor.provider_table.get(index).name].update(keys)

    for name in distributor.registry.names():
        provider = distributor.registry.get(name).provider
        try:
            present = set(provider.keys())
        except ProviderError:
            report.unreachable_providers.append(name)
            continue
        for key in sorted(expected[name]):
            is_snapshot = key.startswith("S")
            if is_snapshot:
                report.snapshots_checked += 1
            else:
                report.shards_checked += 1
            if key not in present:
                # The key says which object it is: "S<vid>" or "<vid>.<shard>".
                vid, _, shard = key.lstrip("S").partition(".")
                shard_index = -1 if is_snapshot else int(shard)
                report.missing.append(ShardIssue(int(vid), shard_index, name, "missing"))
        orphans = sorted(present - expected[name])
        if orphans:
            report.orphans[name] = orphans
    return report


def collect_garbage(
    distributor: CloudDataDistributor, report: ConsistencyReport | None = None
) -> int:
    """Delete orphan objects found by :func:`verify_deployment`.

    Returns the number of objects removed.  Safe: only removes keys that
    no table references at the moment of the (re)scan.
    """
    report = report or verify_deployment(distributor)
    return distributor._delete_objects(
        (name, key) for name, keys in report.orphans.items() for key in keys
    )
