"""Client-exposure analysis: how much of a client's data could any one
provider (or collusion of k providers) ever see?

The paper's whole premise is bounding per-provider exposure
("Distribution ... minimize[s] the risk associated with information
leakage by any provider", Section I).  These functions compute that bound
from a live deployment's metadata, giving operators the number the paper
argues about.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.core.distributor import CloudDataDistributor


@dataclass(frozen=True)
class ProviderExposure:
    """One provider's view of one client's corpus."""

    provider: str
    shard_count: int
    shard_bytes: int
    chunk_coverage: float  # fraction of the client's chunks it holds a shard of
    byte_share: float  # its shard bytes / client's total stored shard bytes


@dataclass(frozen=True)
class ExposureReport:
    client: str
    total_chunks: int
    total_shard_bytes: int
    per_provider: tuple[ProviderExposure, ...]

    @property
    def max_byte_share(self) -> float:
        """The paper's headline bound: the largest single-provider share."""
        return max((p.byte_share for p in self.per_provider), default=0.0)

    @property
    def max_chunk_coverage(self) -> float:
        return max((p.chunk_coverage for p in self.per_provider), default=0.0)

    @property
    def providers_used(self) -> int:
        return sum(1 for p in self.per_provider if p.shard_count > 0)


def client_exposure(
    distributor: CloudDataDistributor, client: str
) -> ExposureReport:
    """Per-provider exposure of *client*'s stored data.

    Computed purely from distributor metadata (chunk table + stripe
    geometry); no provider traffic.
    """
    entry = distributor.client_table.get(client)
    shard_counts: dict[str, int] = {}
    shard_bytes: dict[str, int] = {}
    chunks_touched: dict[str, set[int]] = {}
    total_bytes = 0
    for ref in entry.chunk_refs:
        chunk = distributor.chunk_table.get(ref.chunk_index)
        # Under an unknown-codec quarantine the stripe never deserialized, but
        # its raw row still carries the shard size: enough for a byte-share bound.
        shard_size = int(chunk.packed.shard_size)
        for table_index in chunk.provider_indices:
            name = distributor.provider_table.get(table_index).name
            shard_counts[name] = shard_counts.get(name, 0) + 1
            shard_bytes[name] = shard_bytes.get(name, 0) + shard_size
            chunks_touched.setdefault(name, set()).add(chunk.virtual_id)
            total_bytes += shard_size
    n_chunks = entry.count
    per_provider = []
    for name in distributor.registry.names():
        count = shard_counts.get(name, 0)
        per_provider.append(
            ProviderExposure(
                provider=name,
                shard_count=count,
                shard_bytes=shard_bytes.get(name, 0),
                chunk_coverage=(
                    len(chunks_touched.get(name, ())) / n_chunks if n_chunks else 0.0
                ),
                byte_share=(
                    shard_bytes.get(name, 0) / total_bytes if total_bytes else 0.0
                ),
            )
        )
    per_provider.sort(key=lambda p: (-p.shard_bytes, p.provider))
    return ExposureReport(
        client=client,
        total_chunks=n_chunks,
        total_shard_bytes=total_bytes,
        per_provider=tuple(per_provider),
    )


def collusion_exposure(
    distributor: CloudDataDistributor, client: str, k: int
) -> float:
    """Worst-case byte share visible to the best collusion of *k* providers.

    Exact for small fleets (exhaustive over k-subsets); byte shares are
    additive across providers because shards are disjoint.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    report = client_exposure(distributor, client)
    shares = [p.byte_share for p in report.per_provider if p.byte_share > 0]
    if k >= len(shares):
        return sum(shares)
    return max(
        sum(subset) for subset in combinations(shares, k)
    ) if k else 0.0


def exposure_rows(report: ExposureReport) -> list[list[object]]:
    """Rows for ASCII rendering of an exposure report."""
    return [
        [
            p.provider,
            p.shard_count,
            p.shard_bytes,
            f"{p.chunk_coverage:.1%}",
            f"{p.byte_share:.1%}",
        ]
        for p in report.per_provider
    ]
