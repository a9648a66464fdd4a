"""The paper's primary contribution: the Cloud Data Distributor.

Categorization (privacy levels), fragmentation (PL-sized chunking),
distribution (PL/cost-aware RAID placement over providers), virtual-id
client concealment, misleading-byte injection, ⟨password, PL⟩ access
control, snapshotting, repair, and the multi-distributor extension.
"""

from repro.core.access_control import AccessController
from repro.core.audit import AuditEvent, AuditLog
from repro.core.cache import ChunkCache
from repro.core.categorize import (
    CategorySuggestion,
    check_level,
    shannon_entropy,
    suggest_level,
)
from repro.core.chunking import Chunk, chunk_count, join, split
from repro.core.client import CloudClient
from repro.core.distributor import (
    CloudDataDistributor,
    FileReceipt,
    RepairReport,
)
from repro.core.errors import (
    AuthenticationError,
    AuthorizationError,
    BlobCorruptedError,
    BlobNotFoundError,
    DHTError,
    DistributorUnavailableError,
    PlacementError,
    ProviderError,
    ProviderUnavailableError,
    ReconstructionError,
    ReproError,
    UnknownChunkError,
    UnknownClientError,
    UnknownFileError,
)
from repro.core.misleading import (
    InjectionResult,
    InjectionRng,
    inject,
)
from repro.core.misleading import remove as remove_misleading
from repro.core.multi_distributor import DistributorGroup
from repro.core.persistence import (
    MetadataCorruptedError,
    load_metadata,
    save_metadata,
)
from repro.core.placement import PlacementPolicy
from repro.core.rebalance import (
    MigrationReport,
    admit_provider,
    decommission_provider,
    rebalance,
)
from repro.core.privacy import (
    DEFAULT_CHUNK_SIZES,
    ChunkSizePolicy,
    CostLevel,
    PrivacyLevel,
    provider_may_store,
)
from repro.core.snapshots import SnapshotManager
from repro.core.tables import (
    ChunkEntry,
    ChunkTable,
    ClientEntry,
    ClientTable,
    CloudProviderTable,
    FileChunkRef,
    ProviderEntry,
)
from repro.core.virtual_id import (
    VirtualIdAllocator,
    shard_key,
    snapshot_key,
    storage_key,
)

__all__ = [
    "AccessController",
    "AuditEvent",
    "AuditLog",
    "ChunkCache",
    "CategorySuggestion",
    "check_level",
    "shannon_entropy",
    "suggest_level",
    "MetadataCorruptedError",
    "load_metadata",
    "save_metadata",
    "MigrationReport",
    "admit_provider",
    "decommission_provider",
    "rebalance",
    "Chunk",
    "chunk_count",
    "join",
    "split",
    "CloudClient",
    "CloudDataDistributor",
    "FileReceipt",
    "RepairReport",
    "AuthenticationError",
    "AuthorizationError",
    "BlobCorruptedError",
    "BlobNotFoundError",
    "DHTError",
    "DistributorUnavailableError",
    "PlacementError",
    "ProviderError",
    "ProviderUnavailableError",
    "ReconstructionError",
    "ReproError",
    "UnknownChunkError",
    "UnknownClientError",
    "UnknownFileError",
    "InjectionResult",
    "InjectionRng",
    "inject",
    "remove_misleading",
    "DistributorGroup",
    "PlacementPolicy",
    "DEFAULT_CHUNK_SIZES",
    "ChunkSizePolicy",
    "CostLevel",
    "PrivacyLevel",
    "provider_may_store",
    "SnapshotManager",
    "ChunkEntry",
    "ChunkTable",
    "ClientEntry",
    "ClientTable",
    "CloudProviderTable",
    "FileChunkRef",
    "ProviderEntry",
    "VirtualIdAllocator",
    "shard_key",
    "snapshot_key",
    "storage_key",
]
